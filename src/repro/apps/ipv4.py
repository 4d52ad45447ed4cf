"""IPv4 forwarding (paper Section 6.2.1).

Pre-shading: fetch a chunk, divert slow-path packets (destined to local,
malformed, TTL expired, bad checksum) to the Linux stack, update TTL and
checksum on the rest, and gather destination addresses into an array.
Shading: the DIR-24-8 lookup over the gathered addresses (a vectorised
numpy gather — the same two-level table walk the CUDA kernel performs).
Post-shading: distribute packets to ports by next hop
(:class:`repro.apps.forwarder.Forwarder`, shared with IPv6).
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

import numpy as np

from repro.apps.forwarder import Forwarder
from repro.calib.constants import APPS, GPU_KERNELS
from repro.core.chunk import Chunk
from repro.hw.gpu import KernelSpec
from repro.lookup.dir24_8 import Dir24_8, NO_ROUTE
from repro.net.ethernet import ETHERNET_HEADER_LEN, ETHERTYPE_IPV4
from repro.net.ipv4 import IPV4_HEADER_LEN
from repro.net.neighbors import NeighborTable


class IPv4Forwarder(Forwarder):
    """The IPv4 application over a DIR-24-8 table."""

    name = "ipv4"
    kernel_name = "ipv4_dir24_8"
    REASONS = ("non-ip", "malformed", "ttl-expired", "bad-checksum", "local")

    def __init__(
        self,
        table: Dir24_8,
        local_addresses: Optional[Set[int]] = None,
        verify_checksums: bool = True,
        neighbors: Optional[NeighborTable] = None,
    ) -> None:
        super().__init__(table, local_addresses, neighbors)
        self.verify_checksums = verify_checksums

    def gather(self, chunk: Chunk) -> Optional[np.ndarray]:
        """Classification (the slow-path logic of Section 6.2.1): set
        DROP/SLOW_PATH verdicts and gather the destinations.

        Returns a uint32 array with one slot per packet (zero where
        settled; that lookup result is ignored) and leaves the boolean
        mask of packets awaiting the lookup in ``chunk.app_state``, so
        ``apply`` does not re-walk the chunk.

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
        pending = chunk.pending_mask() & ok
        if not pending.any():
            return None
        chunk.app_state = pending
        return dsts

    def apply(self, chunk: Chunk, next_hops: np.ndarray) -> None:
        self._apply_next_hops(chunk, next_hops, next_hops == NO_ROUTE)

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
            name=self.kernel_name,
            compute_cycles=GPU_KERNELS.ipv4_compute_cycles,
            mem_accesses=GPU_KERNELS.ipv4_mem_accesses,
        )
        return spec, 1.0

    def gpu_bytes_per_packet(self, frame_len: int) -> Tuple[float, float]:
        return 4.0, 4.0
