"""Receive-Side Scaling: the Toeplitz hash and queue indirection.

RSS (paper Section 4.4) spreads received packets across RX queues "by
hashing the five-tuples ... of a packet header", so that each CPU core
owns its queues exclusively.  The hash is the Toeplitz construction the
82599 (and the Microsoft RSS spec the paper cites) uses, implemented
bit-exactly: test vectors from the Microsoft "Verifying the RSS Hash
Calculation" documentation pass against this implementation.

Flow affinity — all packets of one flow land in one queue, preserving
intra-flow order (Section 5.3) — follows from the hash being a pure
function of the tuple.

Two forms of one hash: :meth:`RSSHasher.toeplitz`, bit-serial over one
input (the oracle, and the NIC model's per-frame steering), and
:meth:`RSSHasher.toeplitz_rows`, a whole burst's inputs at once through
per-byte lookup tables — what :class:`ShardMap` steers with.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from repro.net.frames import FrameBatch, FrameLike
from repro.net.packet import FiveTuple

#: The de-facto standard 40-byte RSS secret key from the Microsoft RSS
#: specification; drivers (including ixgbe) ship it as the default.
MICROSOFT_RSS_KEY = bytes(
    [
        0x6D, 0x5A, 0x56, 0xDA, 0x25, 0x5B, 0x0E, 0xC2,
        0x41, 0x67, 0x25, 0x3D, 0x43, 0xA3, 0x8F, 0xB0,
        0xD0, 0xCA, 0x2B, 0xCB, 0xAE, 0x7B, 0x30, 0xB4,
        0x77, 0xCB, 0x2D, 0xA3, 0x80, 0x30, 0xF2, 0x0C,
        0x6A, 0x42, 0xB7, 0x3B, 0xBE, 0xAC, 0x01, 0xFA,
    ]
)


class RSSHasher:
    """Toeplitz hasher plus an indirection table of queue indices.

    ``queue_map`` plays the role of the NIC's RETA (redirection table):
    hash bits index into it to select the destination RX queue.  The
    Section 4.5 NUMA fix — "configure RSS to distribute packets only to
    those CPU cores in the same node as the NICs" — is expressed by
    building the map from the local node's queues only.
    """

    def __init__(
        self,
        queue_map: Sequence[int],
        key: bytes = MICROSOFT_RSS_KEY,
    ) -> None:
        if not queue_map:
            raise ValueError("queue_map must not be empty")
        if len(key) < 16:
            raise ValueError("RSS key too short")
        self.queue_map: List[int] = list(queue_map)
        self.key = key
        # Input bit p (MSB first) XORs in the 32-bit key window starting
        # at key bit p, so byte i of the input contributes the XOR of
        # the windows of its set bits: one 256-entry table per byte
        # position, derived from the key once.  Built by doubling from
        # the least significant bit: values with that bit set are the
        # values below it XOR its window.
        key_bits, total = int.from_bytes(key, "big"), len(key) * 8
        windows = np.array(
            [(key_bits >> (total - 32 - p)) & 0xFFFFFFFF
             for p in range(total - 32)],
            dtype=np.uint32,
        ).reshape(-1, 8)
        tables = np.zeros((len(windows), 1), dtype=np.uint32)
        for bit in range(7, -1, -1):
            tables = np.hstack([tables, tables ^ windows[:, bit:bit + 1]])
        #: ``(len(key) - 4, 256)``: byte position x byte value -> hash term.
        self._tables = tables

    def toeplitz(self, data: bytes) -> int:
        """The Toeplitz hash of ``data`` under the configured key.

        For each set bit of the input (MSB first), XOR in the 32-bit
        window of the key starting at that bit position.
        """
        if len(data) + 4 > len(self.key):
            raise ValueError(
                f"input of {len(data)}B needs a key of {len(data) + 4}B"
            )
        result = 0
        window = int.from_bytes(self.key[:4], "big")
        key_bits = int.from_bytes(self.key, "big")
        total_bits = len(self.key) * 8
        for i, byte in enumerate(data):
            for bit in range(8):
                if byte & (0x80 >> bit):
                    result ^= window
                # Slide the 32-bit window one bit right along the key.
                position = i * 8 + bit + 1
                window = (key_bits >> (total_bits - 32 - position)) & 0xFFFFFFFF
        return result

    def toeplitz_rows(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`toeplitz` of every row of an ``(n, width)`` uint8
        matrix, as a ``uint32`` column: one table lookup per input byte,
        XOR-reduced along the row."""
        width = rows.shape[1]
        if width > len(self._tables):
            raise ValueError(f"input of {width}B needs a key of {width + 4}B")
        return np.bitwise_xor.reduce(
            self._tables[np.arange(width), rows], axis=1
        )

    @staticmethod
    def tuple_bytes(flow: FiveTuple) -> bytes:
        """Serialise a 5-tuple into the RSS input layout.

        IPv4: src(4) dst(4) sport(2) dport(2); IPv6: src(16) dst(16)
        sport(2) dport(2) — the orders the Microsoft spec defines.
        """
        addr_len = 16 if flow.is_ipv6 else 4
        return (
            flow.src_ip.to_bytes(addr_len, "big")
            + flow.dst_ip.to_bytes(addr_len, "big")
            + flow.src_port.to_bytes(2, "big")
            + flow.dst_port.to_bytes(2, "big")
        )

    def hash_flow(self, flow: FiveTuple) -> int:
        """32-bit RSS hash of a flow."""
        return self.toeplitz(self.tuple_bytes(flow))

    def queue_for(self, flow: FiveTuple) -> int:
        """Destination RX queue for a flow (hash LSBs through the RETA)."""
        return self.queue_map[self.hash_flow(flow) % len(self.queue_map)]


class ShardMap:
    """RSS flow steering of raw frames onto N shards (docs/SHARDING.md).

    The one frame-level steering of the data plane: a router's node
    steers onto its worker threads with it
    (:class:`repro.core.framework.PacketShader`), the sharded plane
    onto its worker processes — the same way the NIC assigns flows to
    RX queues: Toeplitz hash of the 5-tuple, modulo the shard count.
    Flow affinity is the correctness keystone — every packet of a flow
    is pre-shaded, shaded, and post-shaded by one worker, so per-flow
    state (flow tables, reordering) never crosses a worker boundary.

    A burst is steered as columns (:meth:`shards_of`): the 5-tuples are
    gathered as one byte matrix per IP family and hashed by table, so
    no per-frame parse and no per-flow state exist; a repeated flow
    costs what a new one does and lands where its first packet did
    because the hash is pure.

    Frames that carry no 5-tuple (ARP, malformed L3, unknown
    EtherTypes) cannot hash; they fall back to a deterministic
    round-robin over shards via an internal counter, in arrival order,
    so chaos traffic spreads evenly *and* a sequential re-partition of
    the same frame stream lands every frame on the same shard — the
    property the differential suite leans on.
    """

    def __init__(self, num_shards: int, key: bytes = MICROSOFT_RSS_KEY) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards
        self._hasher = RSSHasher(queue_map=range(num_shards), key=key)
        #: Round-robin state for unhashable frames (see class docstring).
        self.fallbacks = 0

    def shards_of(
        self, frames: Union[Sequence[FrameLike], np.ndarray]
    ) -> np.ndarray:
        """The owning shard of every frame, in arrival order: an int64
        column.  ``frames`` is a sequence of frames or a 2-D ``uint8``
        array with one frame a row."""
        batch = FrameBatch.from_frames(frames)
        shards = np.empty(len(batch), dtype=np.int64)
        hashed = np.zeros(len(batch), dtype=bool)
        for indices, rows in batch.rss_rows():
            shards[indices] = self._hasher.toeplitz_rows(rows) % self.num_shards
            hashed[indices] = True
        rest = np.flatnonzero(~hashed)
        shards[rest] = (self.fallbacks + np.arange(len(rest))) % self.num_shards
        self.fallbacks += len(rest)
        return shards

    def partition(self, frames: Sequence) -> List[List]:
        """Split a frame stream into per-shard sub-streams.

        Relative order within each shard matches arrival order — the
        intra-flow ordering RSS guarantees (Section 5.3).
        """
        shards = self.shards_of(frames)
        return [
            [frames[i] for i in np.flatnonzero(shards == shard).tolist()]
            for shard in range(self.num_shards)
        ]
