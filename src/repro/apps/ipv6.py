"""IPv6 forwarding (paper Section 6.2.2).

The memory-intensive showcase: the Waldvogel binary search needs seven
dependent probes per lookup, so CPU throughput is latency-bound while the
GPU hides the latency with thousands of threads.  The workflow mirrors
IPv4 "except that a wide IPv6 address causes four times more data to be
copied into the GPU memory" (16 B per destination instead of 4 B).
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np

from repro.calib.constants import APPS, GPU_KERNELS
from repro.core.application import GPUWorkItem, RouterApplication
from repro.core.chunk import Chunk
from repro.hw.gpu import KernelSpec
from repro.lookup.ipv6_bsearch import IPv6BinarySearch
from repro.net.ethernet import ETHERNET_HEADER_LEN, ETHERTYPE_IPV6
from repro.net.ipv6 import IPV6_HEADER_LEN
from repro.net.neighbors import NeighborTable


class IPv6Forwarder(RouterApplication):
    """The IPv6 application over the binary-search-on-lengths table."""

    name = "ipv6"

    def __init__(
        self,
        table: IPv6BinarySearch,
        local_addresses: Optional[Set[int]] = None,
        neighbors: Optional[NeighborTable] = None,
    ) -> None:
        self.table = table
        self.local_addresses = local_addresses or set()
        #: Optional next-hop table (see the IPv4 twin); unresolved hops
        #: divert to the slow path for neighbor discovery.
        self.neighbors = neighbors
        self.slow_path_reasons = {
            "non-ip": 0,
            "malformed": 0,
            "hop-limit": 0,
            "local": 0,
        }

    def swap_table(self, new_table: IPv6BinarySearch) -> IPv6BinarySearch:
        """Double-buffered FIB update (Section 7), as for IPv4."""
        old, self.table = self.table, new_table
        return old

    def _classify(self, chunk: Chunk) -> Tuple[List[int], np.ndarray]:
        """Verdicts for broken/local packets; ``(dsts, pending)``.

        Masked column operations over a :class:`FrameBatch`, with the
        same precedence as the scalar reference
        (:mod:`repro.apps.scalar_ref`): too short → drop; wrong
        ethertype → slow path; wrong version → drop; local destination
        → slow path; hop limit expired → slow path; the rest get the
        hop-limit decrement and their 128-bit destination gathered.
        ``pending`` is the boolean lookup mask, computed once here and
        reused by the callbacks.
        """
        reasons = self.slow_path_reasons
        l3 = ETHERNET_HEADER_LEN
        batch = chunk.batch()
        dsts: List[int] = [0] * len(chunk)

        ok = batch.long_enough(l3 + IPV6_HEADER_LEN)
        short = ~ok
        if short.any():
            chunk.set_drop(short)
            reasons["malformed"] += int(np.count_nonzero(short))

        non_ip = ok & (batch.ethertypes() != ETHERTYPE_IPV6)
        if non_ip.any():
            chunk.set_slow_path(non_ip)
            reasons["non-ip"] += int(np.count_nonzero(non_ip))
            ok &= ~non_ip

        bad_version = ok & ((batch.byte_at(l3) >> 4) != 6)
        if bad_version.any():
            chunk.set_drop(bad_version)
            reasons["malformed"] += int(np.count_nonzero(bad_version))
            ok &= ~bad_version

        # 128-bit destinations exceed numpy's integer width, so the
        # gather is vectorized into hi/lo 64-bit folds and only the
        # candidate packets pay a per-address combine.
        candidates = np.flatnonzero(ok)
        addresses = batch.ipv6_dsts(candidates)
        if self.local_addresses:
            local = candidates[
                np.fromiter(
                    (address in self.local_addresses for address in addresses),
                    dtype=bool,
                    count=len(addresses),
                )
            ]
            if local.size:
                chunk.set_slow_path(local)
                reasons["local"] += int(local.size)
                ok[local] = False

        expired = ok & (batch.byte_at(l3 + 7) <= 1)
        if expired.any():
            chunk.set_slow_path(expired)
            reasons["hop-limit"] += int(np.count_nonzero(expired))
            ok &= ~expired

        batch.ipv6_decrement_hop_limit(np.flatnonzero(ok))
        for index, address in zip(candidates.tolist(), addresses):
            if ok[index]:
                dsts[index] = address
        return dsts, chunk.pending_mask() & ok

    def _apply_next_hops(
        self,
        chunk: Chunk,
        next_hops: List[Optional[int]],
        pending: Optional[np.ndarray] = None,
    ) -> None:
        mask = chunk.pending_mask() if pending is None else pending
        frames = chunk.frames
        neighbors = self.neighbors
        for index in np.flatnonzero(mask).tolist():
            next_hop = next_hops[index]
            if next_hop is None:
                chunk.set_drop(index)
            elif neighbors is None:
                chunk.set_forward(index, next_hop)
            else:
                port = neighbors.rewrite(frames[index], next_hop)
                if port is None:
                    chunk.set_slow_path(index)  # awaiting ND
                else:
                    chunk.set_forward(index, port)

    def pre_shade(self, chunk: Chunk) -> Optional[GPUWorkItem]:
        dsts, pending = self._classify(chunk)
        if not pending.any():
            return None
        chunk.app_state = pending  # reused by post_shade
        table = self.table
        spec = KernelSpec(
            name="ipv6_bsearch",
            compute_cycles=GPU_KERNELS.ipv6_compute_cycles,
            mem_accesses=GPU_KERNELS.ipv6_mem_accesses,
            fn=table.lookup_batch,
        )
        # Addresses in ``args``: the H2D copy, and the picklable wire
        # form of the work (the callable rebinds master-side).
        return GPUWorkItem(
            spec=spec,
            threads=len(chunk),
            bytes_in=16 * len(chunk),
            bytes_out=4 * len(chunk),
            args=(dsts,),
        )

    def kernel_fn(self, name: str):
        if name == "ipv6_bsearch":
            return self.table.lookup_batch
        return None

    def post_shade(self, chunk: Chunk, gpu_output) -> None:
        if gpu_output is None:
            return
        pending = chunk.app_state
        if not (isinstance(pending, np.ndarray) and pending.dtype == bool):
            pending = None  # stale/foreign state: recompute from verdicts
        self._apply_next_hops(chunk, gpu_output, pending)

    def cpu_process(self, chunk: Chunk) -> None:
        dsts, pending = self._classify(chunk)
        if pending.any():
            self._apply_next_hops(chunk, self.table.lookup_batch(dsts), pending)

    # ------------------------------------------------------------------
    # Cost hooks.
    # ------------------------------------------------------------------

    def cpu_cycles_per_packet(self, frame_len: int) -> float:
        return (
            APPS.fast_path_header_cycles
            + APPS.ipv6_probes * APPS.ipv6_cpu_probe_cycles
            + APPS.routing_decision_cycles
        )

    def worker_cycles_per_packet(self, frame_len: int) -> float:
        return APPS.fast_path_header_cycles + APPS.ipv6_gather_extra_cycles

    def kernel_cost(self, frame_len: int) -> Tuple[KernelSpec, float]:
        spec = KernelSpec(
            name="ipv6_bsearch",
            compute_cycles=GPU_KERNELS.ipv6_compute_cycles,
            mem_accesses=GPU_KERNELS.ipv6_mem_accesses,
        )
        return spec, 1.0

    def gpu_bytes_per_packet(self, frame_len: int) -> Tuple[float, float]:
        return 16.0, 4.0
