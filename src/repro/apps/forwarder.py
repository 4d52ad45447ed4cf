"""What the IPv4 and IPv6 forwarders share (paper Sections 6.2.1-2).

Both keep a swappable FIB, gather one destination per packet, run the
table's batch lookup as their kernel and distribute packets to ports by
next hop; only the header screens, address width and table differ.
"""

from __future__ import annotations

from typing import Optional, Set

import numpy as np

from repro.core.application import RouterApplication
from repro.core.chunk import Chunk
from repro.net.neighbors import NeighborTable


class Forwarder(RouterApplication):
    """An IP forwarder over a longest-prefix-match table.

    A subclass's ``gather`` leaves the boolean mask of packets awaiting
    the lookup in ``chunk.app_state``; its ``apply`` hands the looked-up
    hops to :meth:`_apply_next_hops`.
    """

    #: Why ``gather`` diverts or drops: the ``slow_path_reasons`` keys.
    REASONS: tuple = ()

    def __init__(
        self,
        table,
        local_addresses: Optional[Set[int]] = None,
        neighbors: Optional[NeighborTable] = None,
    ) -> None:
        self.table = table
        self.local_addresses = local_addresses or set()
        #: Optional next-hop table; when set, post-shading rewrites the
        #: Ethernet header (next-hop MAC in, egress-port MAC out) and
        #: unresolved next hops divert to the slow path for ARP / ND.
        self.neighbors = neighbors
        self.slow_path_reasons = dict.fromkeys(self.REASONS, 0)

    def swap_table(self, new_table):
        """Atomically install a new FIB; returns the old one — the
        double-buffered update of Section 7.

        Chunks in flight finish against the table they started with (the
        work item captures its lookup at gather time), so the data path
        never observes a half-updated FIB.
        """
        old, self.table = self.table, new_table
        return old

    def kernel(self):
        return self.table.lookup_batch

    def _apply_next_hops(
        self, chunk: Chunk, hops: np.ndarray, no_route: np.ndarray
    ) -> None:
        """Drop the looked-up packets under ``no_route``, forward the
        rest to ``hops`` (through the neighbor table when there is one).
        """
        pending = chunk.app_state
        chunk.set_drop(pending & no_route)
        routed = np.flatnonzero(pending & ~no_route)
        if self.neighbors is None:
            chunk.set_forward(routed, hops[routed])
            return
        frames = chunk.frames
        for index in routed.tolist():
            port = self.neighbors.rewrite(frames[index], int(hops[index]))
            if port is None:
                chunk.set_slow_path(index)  # awaiting ARP / ND
            else:
                chunk.set_forward(index, port)
