"""Scalar reference data plane: the packet-at-a-time formulation.

These are the pre-vectorization per-packet loops, kept verbatim as the
*reference semantics* for the structure-of-arrays fast path in
:mod:`repro.apps.ipv4` / :mod:`repro.apps.ipv6`:

the differential tests fuzz malformed/valid frame mixes through both
formulations and require identical verdicts, slow-path reason counts,
and egress maps.

The per-packet loops here are deliberate — this module IS the slow
formulation — hence the RL006 suppressions.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.chunk import FORWARD_CODE, Chunk
from repro.lookup.dir24_8 import NO_ROUTE
from repro.net.checksum import verify_checksum16
from repro.net.ethernet import (
    ETHERNET_HEADER_LEN,
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
)
from repro.net.ipv4 import IPV4_HEADER_LEN, decrement_ttl, extract_dst
from repro.net.ipv6 import IPV6_HEADER_LEN, decrement_hop_limit
from repro.net.ipv6 import extract_dst as extract_dst_v6
from repro.net.neighbors import NeighborTable


def classify_ipv4_scalar(
    chunk: Chunk,
    local_addresses: frozenset,
    verify_checksums: bool,
    reasons: Dict[str, int],
) -> np.ndarray:
    """The original per-packet IPv4 classification loop."""
    dsts = np.zeros(len(chunk), dtype=np.uint32)
    for index, frame in enumerate(chunk.frames):  # reprolint: ignore[RL006]
        l3 = ETHERNET_HEADER_LEN
        if len(frame) < l3 + IPV4_HEADER_LEN:
            chunk.set_drop(index)
            reasons["malformed"] += 1
            continue
        ethertype = (frame[12] << 8) | frame[13]
        if ethertype != ETHERTYPE_IPV4:
            chunk.set_slow_path(index)
            reasons["non-ip"] += 1
            continue
        if frame[l3] != 0x45:  # version 4, no options
            chunk.set_drop(index)
            reasons["malformed"] += 1
            continue
        if verify_checksums and not verify_checksum16(
            bytes(frame[l3:l3 + IPV4_HEADER_LEN])
        ):
            chunk.set_drop(index)
            reasons["bad-checksum"] += 1
            continue
        dst = extract_dst(frame, l3)
        if dst in local_addresses:
            chunk.set_slow_path(index)
            reasons["local"] += 1
            continue
        if not decrement_ttl(frame, l3):
            chunk.set_slow_path(index)
            reasons["ttl-expired"] += 1
            continue
        dsts[index] = dst
    return dsts


def apply_next_hops_ipv4_scalar(
    chunk: Chunk,
    next_hops: np.ndarray,
    neighbors: Optional[NeighborTable] = None,
) -> None:
    """The original per-packet next-hop application loop."""
    for index in chunk.pending_indices():
        next_hop = int(next_hops[index])
        if next_hop == NO_ROUTE:
            chunk.set_drop(index)
        elif neighbors is None:
            chunk.set_forward(index, next_hop)
        else:
            port = neighbors.rewrite(chunk.frames[index], next_hop)
            if port is None:
                chunk.set_slow_path(index)  # awaiting ARP
            else:
                chunk.set_forward(index, port)


def classify_ipv6_scalar(
    chunk: Chunk,
    local_addresses: frozenset,
    reasons: Dict[str, int],
) -> List[int]:
    """The original per-packet IPv6 classification loop."""
    dsts = [0] * len(chunk)
    for index, frame in enumerate(chunk.frames):  # reprolint: ignore[RL006]
        l3 = ETHERNET_HEADER_LEN
        if len(frame) < l3 + IPV6_HEADER_LEN:
            chunk.set_drop(index)
            reasons["malformed"] += 1
            continue
        ethertype = (frame[12] << 8) | frame[13]
        if ethertype != ETHERTYPE_IPV6:
            chunk.set_slow_path(index)
            reasons["non-ip"] += 1
            continue
        if frame[l3] >> 4 != 6:
            chunk.set_drop(index)
            reasons["malformed"] += 1
            continue
        dst = extract_dst_v6(frame, l3)
        if dst in local_addresses:
            chunk.set_slow_path(index)
            reasons["local"] += 1
            continue
        if not decrement_hop_limit(frame, l3):
            chunk.set_slow_path(index)
            reasons["hop-limit"] += 1
            continue
        dsts[index] = dst
    return dsts


def split_by_port_scalar(chunk: Chunk) -> dict:
    """The original per-packet egress-distribution loop."""
    by_port: dict = {}
    for frame, code, port in zip(  # reprolint: ignore[RL006]
        chunk.frames, chunk.dispositions.tolist(), chunk.out_ports.tolist()
    ):
        if code == FORWARD_CODE:
            by_port.setdefault(port, []).append(frame)
    return by_port
