"""IPv6 forwarding (paper Section 6.2.2).

The memory-intensive showcase: the Waldvogel binary search needs seven
dependent probes per lookup, so CPU throughput is latency-bound while the
GPU hides the latency with thousands of threads.  The workflow mirrors
IPv4 "except that a wide IPv6 address causes four times more data to be
copied into the GPU memory" (16 B per destination instead of 4 B).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.apps.forwarder import Forwarder
from repro.calib.constants import APPS, GPU_KERNELS
from repro.core.chunk import Chunk
from repro.hw.gpu import KernelSpec
from repro.net.ethernet import ETHERNET_HEADER_LEN, ETHERTYPE_IPV6
from repro.net.ipv6 import IPV6_HEADER_LEN


class IPv6Forwarder(Forwarder):
    """The IPv6 application over the binary-search-on-lengths table."""

    name = "ipv6"
    kernel_name = "ipv6_bsearch"
    REASONS = ("non-ip", "malformed", "hop-limit", "local")

    def gather(self, chunk: Chunk) -> Optional[List[int]]:
        """Verdicts for broken/local packets; the gathered destinations.

        Masked column operations over a :class:`FrameBatch`, with the
        same precedence as the scalar reference
        (:mod:`repro.apps.scalar_ref`): too short → drop; wrong
        ethertype → slow path; wrong version → drop; local destination
        → slow path; hop limit expired → slow path; the rest get the
        hop-limit decrement and their 128-bit destination gathered (one
        slot per packet, zero where settled).  The boolean lookup mask
        is left in ``chunk.app_state`` for ``apply``.
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
        pending = chunk.pending_mask() & ok
        if not pending.any():
            return None
        chunk.app_state = pending
        return dsts

    def apply(self, chunk: Chunk, next_hops: List[Optional[int]]) -> None:
        # Next hops are port indices, so -1 can stand for "no route".
        hops = np.array([-1 if hop is None else hop for hop in next_hops])
        self._apply_next_hops(chunk, hops, hops < 0)

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
            name=self.kernel_name,
            compute_cycles=GPU_KERNELS.ipv6_compute_cycles,
            mem_accesses=GPU_KERNELS.ipv6_mem_accesses,
        )
        return spec, 1.0

    def gpu_bytes_per_packet(self, frame_len: int) -> Tuple[float, float]:
        return 16.0, 4.0
