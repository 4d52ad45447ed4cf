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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.packet import FiveTuple, PacketParseError, parse_packet

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

#: Flows a :class:`ShardMap` memoises before it clears and starts over:
#: bounds the memo of a long-lived router under flow churn.
FLOW_CACHE_MAX = 1 << 16


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

    Frames that carry no 5-tuple (ARP, malformed L3, unknown
    EtherTypes) cannot hash; they fall back to a deterministic
    round-robin over shards via an internal counter, so chaos traffic
    spreads evenly *and* a sequential re-partition of the same frame
    stream lands every frame on the same shard — the property the
    differential suite leans on.
    """

    def __init__(self, num_shards: int, key: bytes = MICROSOFT_RSS_KEY) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards
        self._hasher = RSSHasher(queue_map=range(num_shards), key=key)
        #: Hash memo: 5-tuples repeat heavily (flows), the Toeplitz
        #: inner loop is bit-serial; caching makes steering O(1) per
        #: packet after a flow's first frame.  Cleared when it reaches
        #: FLOW_CACHE_MAX entries — the hash is pure, so a cleared
        #: memo changes cost, never placement.
        self._cache: Dict[Tuple[int, int, int, int, int, bool], int] = {}
        #: Round-robin state for unhashable frames (see class docstring).
        self.fallbacks = 0

    def shard_of_flow(self, flow: FiveTuple) -> int:
        """The owning shard of a flow (pure, memoised)."""
        memo_key = (
            flow.src_ip, flow.dst_ip, flow.src_port, flow.dst_port,
            flow.protocol, flow.is_ipv6,
        )
        shard = self._cache.get(memo_key)
        if shard is None:
            shard = self._hasher.hash_flow(flow) % self.num_shards
            if len(self._cache) >= FLOW_CACHE_MAX:
                self._cache.clear()
            self._cache[memo_key] = shard
        return shard

    def shard_of_frame(self, frame) -> int:
        """The owning shard of a raw frame (round-robin if unhashable)."""
        flow: Optional[FiveTuple]
        try:
            flow = parse_packet(bytes(frame)).five_tuple()
        except PacketParseError:
            flow = None
        if flow is None:
            shard = self.fallbacks % self.num_shards
            self.fallbacks += 1
            return shard
        return self.shard_of_flow(flow)

    def partition(self, frames: Sequence) -> List[List]:
        """Split a frame stream into per-shard sub-streams.

        Relative order within each shard matches arrival order — the
        intra-flow ordering RSS guarantees (Section 5.3).
        """
        shards: List[List] = [[] for _ in range(self.num_shards)]
        for frame in frames:  # reprolint: ignore[RL006]
            shards[self.shard_of_frame(frame)].append(frame)
        return shards
