"""IPv4 forwarding (paper Section 6.2.1).

Pre-shading: fetch a chunk, divert slow-path packets (destined to local,
malformed, TTL expired, bad checksum) to the Linux stack, update TTL and
checksum on the rest, and gather destination addresses into an array.
Shading: the DIR-24-8 lookup over the gathered addresses (a vectorised
numpy gather — the same two-level table walk the CUDA kernel performs).
Post-shading: distribute packets to ports by next hop.

The FIB-update hook (:meth:`IPv4Forwarder.swap_table`) implements the
double-buffering update the paper sketches in Section 7: a new table is
built off to the side and swapped in atomically between chunks.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

import numpy as np

from repro.calib.constants import APPS, GPU_KERNELS
from repro.core.application import GPUWorkItem, RouterApplication
from repro.core.chunk import Chunk
from repro.hw.gpu import KernelSpec
from repro.lookup.dir24_8 import Dir24_8, NO_ROUTE
from repro.net.ethernet import ETHERNET_HEADER_LEN, ETHERTYPE_IPV4
from repro.net.ipv4 import IPV4_HEADER_LEN
from repro.net.neighbors import NeighborTable


class IPv4Forwarder(RouterApplication):
    """The IPv4 application over a DIR-24-8 table."""

    name = "ipv4"

    def __init__(
        self,
        table: Dir24_8,
        local_addresses: Optional[Set[int]] = None,
        verify_checksums: bool = True,
        neighbors: Optional[NeighborTable] = None,
    ) -> None:
        self.table = table
        self.local_addresses = local_addresses or set()
        self.verify_checksums = verify_checksums
        #: Optional next-hop table; when set, post-shading rewrites the
        #: Ethernet header (next-hop MAC in, egress-port MAC out) and
        #: unresolved next hops divert to the slow path for ARP.
        self.neighbors = neighbors
        self.slow_path_reasons = {
            "non-ip": 0,
            "malformed": 0,
            "ttl-expired": 0,
            "bad-checksum": 0,
            "local": 0,
        }

    # ------------------------------------------------------------------
    # FIB update (Section 7: incremental update / double buffering).
    # ------------------------------------------------------------------

    def swap_table(self, new_table: Dir24_8) -> Dir24_8:
        """Atomically install a new FIB; returns the old one.

        Chunks in flight finish against the table they started with (the
        work item captures the table reference), so the data path never
        observes a half-updated FIB.
        """
        old, self.table = self.table, new_table
        return old

    # ------------------------------------------------------------------
    # Classification (the slow-path logic of Section 6.2.1).
    # ------------------------------------------------------------------

    def _classify(self, chunk: Chunk) -> Tuple[np.ndarray, np.ndarray]:
        """Set DROP/SLOW_PATH verdicts; returns ``(dsts, pending)``.

        ``dsts`` is a uint32 array with one slot per packet (non-pending
        packets hold zero; their lookup result is ignored) and
        ``pending`` the boolean mask of packets awaiting the lookup —
        computed once here and reused by the callbacks instead of
        re-walking the chunk.

        The whole classification runs as masked column operations over a
        :class:`FrameBatch` — precedence matches the scalar reference in
        :mod:`repro.apps.scalar_ref` exactly: too short → drop
        (malformed); wrong ethertype → slow path (non-ip); not version
        4 / with options → drop (malformed); bad header checksum → drop;
        local destination → slow path; TTL expired → slow path; the rest
        get the TTL decrement + RFC 1624 checksum patch and their
        destination gathered.
        """
        reasons = self.slow_path_reasons
        l3 = ETHERNET_HEADER_LEN
        batch = chunk.batch()
        #: Tracks whether any packet failed a screen yet: while True,
        #: ``ok`` is known all-True and the masked gathers can be
        #: skipped (the all-pass case is the fast-path common case).
        all_ok = True

        if batch.grid is not None and batch.grid.shape[1] >= l3 + IPV4_HEADER_LEN:
            ok = np.ones(len(chunk), dtype=bool)  # uniform, wide enough
        else:
            ok = batch.long_enough(l3 + IPV4_HEADER_LEN)
            short = ~ok
            if short.any():
                chunk.set_drop(short)
                reasons["malformed"] += int(np.count_nonzero(short))
                all_ok = False

        non_ip = ok & ~batch.ethertype_is(ETHERTYPE_IPV4)
        if non_ip.any():
            chunk.set_slow_path(non_ip)
            reasons["non-ip"] += int(np.count_nonzero(non_ip))
            ok &= ~non_ip
            all_ok = False

        bad_version = ok & (batch.byte_at(l3) != 0x45)  # version 4, no options
        if bad_version.any():
            chunk.set_drop(bad_version)
            reasons["malformed"] += int(np.count_nonzero(bad_version))
            ok &= ~bad_version
            all_ok = False

        if self.verify_checksums and (all_ok or ok.any()):
            verified = batch.ipv4_checksum_ok(ok)
            bad = ok & ~verified
            if bad.any():
                chunk.set_drop(bad)
                reasons["bad-checksum"] += int(np.count_nonzero(bad))
                ok = verified
                all_ok = False

        addresses = batch.ipv4_dsts()
        if self.local_addresses:
            local = ok & np.isin(
                addresses,
                np.fromiter(
                    self.local_addresses,
                    dtype=np.uint32,
                    count=len(self.local_addresses),
                ),
            )
            if local.any():
                chunk.set_slow_path(local)
                reasons["local"] += int(np.count_nonzero(local))
                ok &= ~local
                all_ok = False

        expired = ok & (batch.byte_at(l3 + 8) <= 1)
        if expired.any():
            chunk.set_slow_path(expired)
            reasons["ttl-expired"] += int(np.count_nonzero(expired))
            ok &= ~expired
            all_ok = False

        batch.ipv4_decrement_ttl(ok)
        if all_ok:
            dsts = addresses
        else:
            dsts = np.zeros(len(chunk), dtype=np.uint32)
            dsts[ok] = addresses[ok]
        return dsts, chunk.pending_mask() & ok

    def _apply_next_hops(
        self,
        chunk: Chunk,
        next_hops: np.ndarray,
        pending: Optional[np.ndarray] = None,
    ) -> None:
        mask = chunk.pending_mask() if pending is None else pending
        if not mask.any():
            return
        hops = np.asarray(next_hops)
        no_route = mask & (hops == NO_ROUTE)
        chunk.set_drop(no_route)
        routed = np.flatnonzero(mask & ~no_route)
        if self.neighbors is None:
            chunk.set_forward(routed, hops[routed])
            return
        frames = chunk.frames
        for index in routed.tolist():
            port = self.neighbors.rewrite(frames[index], int(hops[index]))
            if port is None:
                chunk.set_slow_path(index)  # awaiting ARP
            else:
                chunk.set_forward(index, port)

    # ------------------------------------------------------------------
    # The three callbacks.
    # ------------------------------------------------------------------

    def pre_shade(self, chunk: Chunk) -> Optional[GPUWorkItem]:
        dsts, pending = self._classify(chunk)
        if not pending.any():
            return None
        chunk.app_state = pending  # reused by post_shade
        table = self.table  # captured: FIB swaps don't affect in-flight work
        spec = KernelSpec(
            name="ipv4_dir24_8",
            compute_cycles=GPU_KERNELS.ipv4_compute_cycles,
            mem_accesses=GPU_KERNELS.ipv4_mem_accesses,
            fn=table.lookup_batch,
        )
        # The gathered addresses ride in ``args`` — the H2D copy — so
        # the work item can cross a process boundary with the callable
        # stripped (rebound from kernel_fn on the master's side).
        return GPUWorkItem(
            spec=spec,
            threads=len(chunk),
            bytes_in=4 * len(chunk),
            bytes_out=4 * len(chunk),
            args=(dsts,),
        )

    def kernel_fn(self, name: str):
        if name == "ipv4_dir24_8":
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
    # Cost hooks (calibration notes in repro.calib.constants.AppCosts).
    # ------------------------------------------------------------------

    def cpu_cycles_per_packet(self, frame_len: int) -> float:
        accesses = 1.0 + 0.03  # 3% of RouteViews prefixes are longer than /24
        return (
            APPS.fast_path_header_cycles
            + accesses * APPS.ipv4_cpu_lookup_cycles
            + APPS.routing_decision_cycles
        )

    def worker_cycles_per_packet(self, frame_len: int) -> float:
        return APPS.fast_path_header_cycles

    def kernel_cost(self, frame_len: int) -> Tuple[KernelSpec, float]:
        spec = KernelSpec(
            name="ipv4_dir24_8",
            compute_cycles=GPU_KERNELS.ipv4_compute_cycles,
            mem_accesses=GPU_KERNELS.ipv4_mem_accesses,
        )
        return spec, 1.0

    def gpu_bytes_per_packet(self, frame_len: int) -> Tuple[float, float]:
        return 4.0, 4.0
