"""Seeded traffic for the library workloads, with the builder's own labels.

The library workloads hand the router frames built here, so the program
under test receives only generated inputs and every frame carries the
verdict an independent reading of the routing table predicts for it.
Nothing in this file calls into ``repro``: the checksum, the frame layout
and the longest-prefix match are written out again on purpose, because
they are what the oracle compares the program's output against.

The two CLI workloads (``ipv4_inproc``, ``ipv4_fork2``) cannot use this
builder: ``python -m repro run`` has no frame input, it generates its own
stream from ``--seed``.  Their inputs are still a pure function of the
seed; their oracle is differential (see ``oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

ETH_LEN = 14
IP_LEN = 20
TTL = 64
#: Every frame of the ipv4 mix is a minimum-size Ethernet frame.
IPV4_FRAME_LEN = 64

#: Label codes, equal to the router's disposition codes by construction of
#: the oracle, not by import: 1 forward, 2 drop, 3 slow path.
FORWARD, DROP, SLOW_PATH = 1, 2, 3

#: Share of each class in the ipv4 mix.  85 % routed matches what random
#: destinations hit in the full RouteViews-shaped table (paper §6.2.1).
IPV4_MIX = (
    ("routed", 0.85),
    ("unrouted", 0.12),
    ("ttl1", 0.01),
    ("badsum", 0.01),
    ("nonip", 0.01),
)


def header_sums(headers: np.ndarray) -> np.ndarray:
    """Folded ones'-complement sum of each row of 20-byte headers.

    A header whose checksum field is right sums to 0xFFFF.
    """
    words = (headers[:, 0::2].astype(np.uint32) << 8) | headers[:, 1::2]
    total = words.sum(axis=1)
    total = (total & 0xFFFF) + (total >> 16)
    return (total & 0xFFFF) + (total >> 16)


def longest_prefix_ports(routes: np.ndarray, addrs: np.ndarray) -> np.ndarray:
    """Next hop of each address by longest-prefix match; -1 for no route.

    ``routes`` is the ``(n, 3)`` int64 array of (prefix, length, hop).
    One sorted array per prefix length, probed from the longest length
    down; an address keeps the first (longest) prefix that contains it.
    """
    ports = np.full(len(addrs), -1, dtype=np.int64)
    addrs = addrs.astype(np.int64)
    for length in np.unique(routes[:, 1])[::-1].tolist():
        own = routes[routes[:, 1] == length]
        own = own[np.argsort(own[:, 0])]
        masked = addrs & (((1 << length) - 1) << (32 - length))
        at = np.minimum(np.searchsorted(own[:, 0], masked), len(own) - 1)
        hit = (own[at, 0] == masked) & (ports < 0)
        ports[hit] = own[at[hit], 2]
    return ports


def uncovered_gaps(routes: np.ndarray) -> np.ndarray:
    """``(k, 2)`` inclusive address ranges no prefix covers."""
    starts = routes[:, 0]
    ends = starts + (1 << (32 - routes[:, 1]))      # exclusive
    order = np.argsort(starts)
    starts, ends = starts[order], np.maximum.accumulate(ends[order])
    gap_from = np.concatenate(([0], ends))
    gap_to = np.concatenate((starts, [1 << 32]))
    keep = gap_to > gap_from
    return np.stack((gap_from[keep], gap_to[keep] - 1), axis=1)


def _udp_ipv4_rows(
    rng: np.random.Generator, dsts: np.ndarray, frame_len: int
) -> np.ndarray:
    """``(n, frame_len)`` uint8 Ethernet + IPv4 + UDP frames, checksums set."""
    n = len(dsts)
    rows = np.zeros((n, frame_len), dtype=np.uint8)
    rows[:, 0:6] = (0x00, 0x1B, 0x21, 0x00, 0x00, 0x02)
    rows[:, 6:12] = (0x00, 0x1B, 0x21, 0x00, 0x00, 0x01)
    rows[:, 12:14] = (0x08, 0x00)
    ip = rows[:, ETH_LEN:ETH_LEN + IP_LEN]
    ip[:, 0] = 0x45
    ip_total = frame_len - ETH_LEN
    ip[:, 2:4] = (ip_total >> 8, ip_total & 0xFF)
    ip[:, 8] = TTL
    ip[:, 9] = 17
    ip[:, 12:16] = rng.integers(0, 256, size=(n, 4), dtype=np.uint8)
    ip[:, 16:20] = (
        dsts.astype(">u4").view(np.uint8).reshape(n, 4)
    )
    udp = rows[:, ETH_LEN + IP_LEN:ETH_LEN + IP_LEN + 8]
    ports = rng.integers(1024, 65536, size=(n, 2)).astype(">u2")
    udp[:, 0:4] = ports.view(np.uint8).reshape(n, 4)
    udp_len = ip_total - IP_LEN
    udp[:, 4:6] = (udp_len >> 8, udp_len & 0xFF)
    payload = rows[:, ETH_LEN + IP_LEN + 8:]
    payload[:] = rng.integers(0, 256, size=payload.shape, dtype=np.uint8)
    set_header_checksum(rows)
    return rows


def set_header_checksum(rows: np.ndarray) -> None:
    """Write the right IPv4 header checksum into each frame of ``rows``."""
    ip = rows[:, ETH_LEN:ETH_LEN + IP_LEN]
    ip[:, 10:12] = 0
    value = 0xFFFF - header_sums(ip)
    ip[:, 10] = value >> 8
    ip[:, 11] = value & 0xFF


@dataclass
class LabelledTraffic:
    """Frames in arrival order plus what should happen to each."""

    rows: np.ndarray          # (n, frame_len) uint8, the pristine frames
    verdicts: np.ndarray      # (n,) FORWARD / DROP / SLOW_PATH
    ports: np.ndarray         # (n,) egress port, -1 unless FORWARD

    def frames(self) -> List[bytearray]:
        """Fresh mutable copies (the router rewrites TTLs in place)."""
        return split_rows(self.rows)

    def verdict_counts(self) -> Dict[str, int]:
        """How many frames the labels forward, drop and divert."""
        return {
            "forwarded": int((self.verdicts == FORWARD).sum()),
            "dropped": int((self.verdicts == DROP).sum()),
            "slow_path": int((self.verdicts == SLOW_PATH).sum()),
        }


def split_rows(rows: np.ndarray) -> List[bytearray]:
    """One ``bytearray`` per row of a ``(n, width)`` uint8 array."""
    blob = rows.tobytes()
    width = rows.shape[1]
    return [
        bytearray(blob[start:start + width])
        for start in range(0, len(blob), width)
    ]


def ipv4_traffic(
    route_list: Sequence[Tuple[int, int, int]], count: int, seed: int
) -> LabelledTraffic:
    """``count`` labelled 64 B frames in the ``IPV4_MIX`` proportions.

    Routed destinations are drawn under installed prefixes (a random
    prefix, random host bits), unrouted ones from the gaps between them;
    the port label is the longest-prefix match over the same route list.
    """
    routes = np.array(route_list, dtype=np.int64)
    rng = np.random.default_rng(seed)
    kinds = rng.choice(
        len(IPV4_MIX), size=count, p=[share for _, share in IPV4_MIX]
    )
    unrouted = kinds == 1
    pick = routes[rng.integers(0, len(routes), size=count)]
    host_bits = rng.integers(0, 1 << 32, size=count, dtype=np.int64)
    dsts = pick[:, 0] | (host_bits & ((1 << (32 - pick[:, 1])) - 1))
    gaps = uncovered_gaps(routes)
    gap = gaps[rng.integers(0, len(gaps), size=count)]
    in_gap = gap[:, 0] + host_bits % (gap[:, 1] - gap[:, 0] + 1)
    dsts = np.where(unrouted, in_gap, dsts)

    rows = _udp_ipv4_rows(rng, dsts, IPV4_FRAME_LEN)
    ttl1, badsum, nonip = kinds == 2, kinds == 3, kinds == 4
    rows[ttl1, ETH_LEN + 8] = 1
    set_header_checksum(rows)
    rows[badsum, ETH_LEN + 10] ^= 0x55
    rows[nonip, 12:14] = (0x08, 0x06)

    ports = longest_prefix_ports(routes, dsts)
    verdicts = np.full(count, FORWARD, dtype=np.uint8)
    verdicts[unrouted | badsum] = DROP
    verdicts[ttl1 | nonip] = SLOW_PATH
    ports[verdicts != FORWARD] = -1
    return LabelledTraffic(rows=rows, verdicts=verdicts, ports=ports)


def ipsec_traffic(small: int, large: int, seed: int) -> List[bytearray]:
    """``small`` 64 B and ``large`` 1514 B IPv4/UDP frames, interleaved.

    ``small`` is a multiple of ``large``; one large frame follows every
    ``small // large`` small ones (3:1 for 1536:512), so every burst
    carries both sizes.  All are plain IPv4: the gateway tunnels each.
    """
    if large < 1 or small % large:
        raise ValueError("small must be a positive multiple of large")
    rng = np.random.default_rng(seed)
    dsts = rng.integers(0, 1 << 32, size=small + large, dtype=np.int64)
    small_frames = split_rows(_udp_ipv4_rows(rng, dsts[:small], 64))
    large_frames = split_rows(_udp_ipv4_rows(rng, dsts[small:], 1514))
    run = small // large
    frames: List[bytearray] = []
    for index, big in enumerate(large_frames):
        frames.extend(small_frames[index * run:(index + 1) * run])
        frames.append(big)
    return frames
