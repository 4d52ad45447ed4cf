"""Deterministic packet generator.

Builds real frames with seeded randomness, so every experiment is
reproducible bit-for-bit.  The generator is also the traffic *sink* for
round-trip latency measurement, like the paper's (timestamps ride in the
UDP payload).

Instrumentation goes through :mod:`repro.obs` — the repo's single
instrumentation path: generated-frame counters land in the shared
metrics registry and diagnostics go through the ``repro.gen.packetgen``
logger, so generator volume exports alongside router counters.
"""

from __future__ import annotations

import random
import struct
from typing import List, Optional

import numpy as np

from repro.net.checksum import checksum16_rows
from repro.net.packet import build_udp_ipv4, build_udp_ipv6
from repro.obs import get_logger, get_registry, names

log = get_logger("gen.packetgen")

#: Where the drawn fields start in a generated frame — source address,
#: destination address, source port, destination port, back to back
#: (the RSS input layout) — and the IPv4 header and its checksum field.
_IPV4_FIELDS, _IPV6_FIELDS = 26, 22
_IPV4_HEADER, _IPV4_CHECKSUM = slice(14, 34), slice(24, 26)


class PacketGenerator:
    """Seeded generator of evaluation traffic."""

    def __init__(self, seed: int = 1) -> None:
        self.rng = random.Random(seed)
        self.generated = 0
        registry = get_registry()
        self._m_ipv4 = registry.counter(
            names.GEN_FRAMES, help="frames built by the generator", family="ipv4"
        )
        self._m_ipv6 = registry.counter(
            names.GEN_FRAMES, help="frames built by the generator", family="ipv6"
        )

    def random_ipv4_frame(self, frame_len: int = 64,
                          timestamp_ns: Optional[int] = None) -> bytearray:
        """One IPv4/UDP frame with random dst address and ports."""
        payload = b""
        if timestamp_ns is not None:
            payload = struct.pack(">Q", timestamp_ns)
        frame = build_udp_ipv4(
            src_ip=self.rng.getrandbits(32),
            dst_ip=self.rng.getrandbits(32),
            src_port=self.rng.randint(1024, 65535),
            dst_port=self.rng.randint(1, 65535),
            frame_len=frame_len,
            payload=payload,
        )
        self.generated += 1
        self._m_ipv4.inc()
        return frame

    def random_ipv6_frame(self, frame_len: int = 78,
                          timestamp_ns: Optional[int] = None) -> bytearray:
        """One IPv6/UDP frame with random dst address and ports."""
        payload = b""
        if timestamp_ns is not None:
            payload = struct.pack(">Q", timestamp_ns)
        frame = build_udp_ipv6(
            src_ip=self.rng.getrandbits(128),
            dst_ip=self.rng.getrandbits(128),
            src_port=self.rng.randint(1024, 65535),
            dst_port=self.rng.randint(1, 65535),
            frame_len=frame_len,
            payload=payload,
        )
        self.generated += 1
        self._m_ipv6.inc()
        return frame

    def _rows(self, count: int, template: bytearray, start: int,
              addr_bytes: int) -> np.ndarray:
        """``count`` copies of ``template``, one a row, each stamped at
        ``start`` with the addresses and ports of one frame, drawn as
        the per-frame builders draw them: two addresses of
        ``addr_bytes``, then the two ports, frame after frame."""
        if count < 0:
            raise ValueError("count must be non-negative")
        log.debug("burst: %d frames of %d B", count, len(template))
        rng, bits = self.rng, addr_bytes * 8
        addrs: List[int] = []
        ports: List[int] = []
        for _ in range(count):
            addrs += (rng.getrandbits(bits), rng.getrandbits(bits))
            ports += (rng.randint(1024, 65535), rng.randint(1, 65535))
        packed = b"".join(addr.to_bytes(addr_bytes, "big") for addr in addrs)
        rows = np.empty((count, len(template)), dtype=np.uint8)
        rows[:] = np.frombuffer(template, dtype=np.uint8)
        fields = rows[:, start:start + 2 * addr_bytes + 4]
        fields[:, :-4] = np.frombuffer(packed, dtype=np.uint8).reshape(
            count, 2 * addr_bytes
        )
        fields[:, -4:] = np.array(ports, dtype=">u2").view(np.uint8).reshape(
            count, 4
        )
        self.generated += count
        return rows

    def ipv4_rows(self, count: int, frame_len: int = 64) -> np.ndarray:
        """A burst of random-destination IPv4 frames, one frame a row.

        The ``(count, frame_len)`` uint8 matrix holds exactly the frames
        :meth:`random_ipv4_frame` builds, draw for draw — the same rng
        calls in the same order — but as columns: the addresses and
        ports are written big-endian into one header template and the
        header checksums come from one :func:`checksum16_rows`.
        """
        template = build_udp_ipv4(0, 0, 0, 0, frame_len=frame_len)
        template[_IPV4_CHECKSUM] = bytes(2)
        rows = self._rows(count, template, _IPV4_FIELDS, 4)
        checksums = checksum16_rows(rows[:, _IPV4_HEADER]).astype(">u2")
        rows[:, _IPV4_CHECKSUM] = checksums.view(np.uint8).reshape(count, 2)
        self._m_ipv4.inc(count)
        return rows

    def ipv6_rows(self, count: int, frame_len: int = 78) -> np.ndarray:
        """A burst of random-destination IPv6 frames, one frame a row:
        :meth:`random_ipv6_frame`'s frames, draw for draw (see
        :meth:`ipv4_rows`; IPv6 has no header checksum)."""
        template = build_udp_ipv6(0, 0, 0, 0, frame_len=frame_len)
        rows = self._rows(count, template, _IPV6_FIELDS, 16)
        self._m_ipv6.inc(count)
        return rows

    def ipv4_burst(self, count: int, frame_len: int = 64) -> List[bytearray]:
        """A burst of random-destination IPv4 frames (:meth:`ipv4_rows`,
        one ``bytearray`` a row)."""
        return list(map(bytearray, self.ipv4_rows(count, frame_len)))

    def ipv6_burst(self, count: int, frame_len: int = 78) -> List[bytearray]:
        """A burst of random-destination IPv6 frames (:meth:`ipv6_rows`,
        one ``bytearray`` a row)."""
        return list(map(bytearray, self.ipv6_rows(count, frame_len)))

    def random_ipv4_addresses(self, count: int) -> List[int]:
        """Bare random addresses (the Figure 2 lookup-only workload)."""
        return [self.rng.getrandbits(32) for _ in range(count)]

    def random_ipv6_addresses(self, count: int) -> List[int]:
        """Bare random 128-bit addresses."""
        return [self.rng.getrandbits(128) for _ in range(count)]

    @staticmethod
    def read_timestamp(frame: bytes, l4_payload_offset: int = 42) -> Optional[int]:
        """Recover a timestamp embedded by the frame builders."""
        if len(frame) < l4_payload_offset + 8:
            return None
        return struct.unpack_from(">Q", frame, l4_payload_offset)[0]

    @staticmethod
    def replay_pcap(path: str) -> List[bytearray]:
        """Load a capture as injectable frames (trace replay).

        Pairs with :func:`repro.net.pcap.write_pcap`: dump a run's sink,
        edit or trim it in Wireshark, and replay it through the testbed.
        """
        from repro.net.pcap import read_pcap

        frames = [bytearray(record.data) for record in read_pcap(path)]
        log.info("replayed %d frames from %s", len(frames), path)
        return frames
