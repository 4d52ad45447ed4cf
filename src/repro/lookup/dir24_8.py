"""DIR-24-8-BASIC IPv4 lookup (Gupta, Lin, McKeown, INFOCOM 1998).

The paper's IPv4 structure (Section 6.2.1): a 2^24-entry first table
indexed by the top 24 address bits, holding either a next hop or a pointer
into a second table of 256-entry blocks indexed by the low 8 bits.  One
memory access resolves any prefix up to /24; prefixes longer than 24 bits
(3% of the RouteViews snapshot) cost a second access.

Stored as numpy arrays — the same flat-array layout a GPU kernel wants —
so the "GPU kernel" for IPv4 (:mod:`repro.apps.ipv4`) is literally a
vectorised gather over these arrays.

Encoding (as in the original paper): ``tbl24`` entries with the top bit
clear hold a next hop directly; with the top bit set, the low 15 bits are
the index of a 256-entry block in ``tbl_long``.

Construction is control-plane work, done once: an empty table is built
in bulk, one vectorised paint per prefix length (:meth:`Dir24_8._paint`).
Routes added to a built table are updates, applied one at a time by
:meth:`Dir24_8._insert` — the per-route oracle the bulk build is tested
against, byte for byte.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

#: Sentinel next hop meaning "no route".
NO_ROUTE = 0x7FFF
_LONG_FLAG = 0x8000
_MAX_BLOCKS = 0x7FFF


def _validate(prefix: int, length: int, next_hop: int) -> None:
    """Raise for the first check one route fails, in the oracle's order."""
    if not 0 <= length <= 32:
        raise ValueError(f"IPv4 prefix length {length} out of range")
    if not 0 <= prefix < (1 << 32):
        raise ValueError("prefix out of IPv4 range")
    if length < 32 and prefix & ((1 << (32 - length)) - 1):
        raise ValueError(f"{prefix:#x}/{length} has host bits set")
    if not 0 <= next_hop < NO_ROUTE:
        raise ValueError(f"next hop {next_hop} does not fit in 15 bits")


def _paint_rows(table, cells, hops, bounds, span) -> None:
    """Set the ``2**span``-cell rows starting at ``cells[lo:hi]`` to
    ``hops[lo:hi]``; of two routes for one row the later wins."""
    lo, hi = bounds
    if lo < hi:
        rows, last = np.unique(cells[lo:hi][::-1] >> span, return_index=True)
        table.reshape(-1, 1 << span)[rows] = hops[lo:hi][::-1][last, None]


class Dir24_8:
    """The two-level DIR-24-8-BASIC table."""

    def __init__(self) -> None:
        self.tbl24 = np.full(1 << 24, NO_ROUTE, dtype=np.uint16)
        self.tbl_long = np.zeros(0, dtype=np.uint16)
        #: ``tbl_long``'s 256-entry rows once built; :meth:`_insert`
        #: writes them in place and appends new blocks.
        self._blocks: List[np.ndarray] = []
        self._routes = 0
        self._built = False

    def __len__(self) -> int:
        return self._routes

    @property
    def memory_bytes(self) -> int:
        """Footprint of both tables (the paper's 32 MB + spillover)."""
        return self.tbl24.nbytes + 256 * 2 * len(self._blocks)

    def add_routes(
        self, routes: Union[Iterable[Tuple[int, int, int]], np.ndarray]
    ) -> None:
        """Insert (prefix, length, next_hop) routes and build.

        ``routes`` is an iterable of triples or an ``(n, 3)`` integer
        array.  Routes apply in ascending length order, so longer
        prefixes overwrite shorter ones in their covered range — the
        standard DIR-24-8 construction — and of two routes for one
        prefix the later wins.  Next hops must fit in 15 bits and must
        not equal the NO_ROUTE sentinel.

        An empty table is painted in bulk; a table holding routes takes
        them as updates, one :meth:`_insert` each.  Both leave the same
        bytes and raise the same errors.
        """
        if not isinstance(routes, np.ndarray):
            routes = list(routes)
        if not self._routes and len(routes):
            try:
                columns = np.asarray(routes, dtype=np.int64)
            except OverflowError:
                pass  # past int64 is out of range: _insert names the route
            else:
                self._paint(columns)
                return
        self._insert_all(routes)

    def _insert_all(self, routes) -> None:
        """Route by route, stable in ascending length: the update path,
        and on an empty table the oracle for :meth:`_paint`."""
        if isinstance(routes, np.ndarray):
            routes = routes.tolist()
        for prefix, length, next_hop in sorted(routes, key=lambda r: r[1]):
            self._insert(prefix, length, next_hop)
        self._finalize(
            np.concatenate(self._blocks) if self._blocks else self.tbl_long
        )

    def _paint(self, routes: np.ndarray) -> None:
        """Build an empty table from ``(n, 3)`` int64 routes.

        In :meth:`_insert`'s order (stable by length), each length ``L``
        up to 24 is one assignment of whole rows of ``tbl24`` viewed as
        ``(2**L, 2**(24 - L))``.  Every long block is then allocated at
        once — the distinct ``/24`` s of the longer routes, numbered by
        first appearance and seeded from the painted ``tbl24`` — and
        lengths 25-32 paint rows of ``tbl_long`` the same way.
        """
        prefix, length, hop = routes.T
        order = np.argsort(length, kind="stable")
        prefix, length, hop = prefix[order], length[order], hop[order]
        host_mask = (1 << np.clip(32 - length, 0, 32)) - 1
        bad = (
            (length < 0) | (length > 32)
            | (prefix < 0) | (prefix >= 1 << 32)
            | ((prefix & host_mask) != 0)
            | (hop < 0) | (hop >= NO_ROUTE)
        )
        # _insert raises at the first bad route or at the block that
        # overflows, whichever comes first in its order.
        stop = int(np.argmax(bad)) if bad.any() else len(bad)
        edges = np.searchsorted(length[:stop], np.arange(34))
        long24, first, inverse = np.unique(
            prefix[edges[25]:stop] >> 8, return_index=True,
            return_inverse=True,
        )
        if len(long24) > _MAX_BLOCKS:
            raise MemoryError("tbl_long block space exhausted")
        if stop < len(bad):
            _validate(int(prefix[stop]), int(length[stop]), int(hop[stop]))

        hop = hop.astype(np.uint16)
        # Each route's first cell: a tbl24 index, or a tbl_long one for
        # the long routes once their blocks are numbered.
        cells = prefix >> 8
        for bits in range(25):
            _paint_rows(self.tbl24, cells, hop, edges[bits:bits + 2],
                        24 - bits)
        by_first = np.argsort(first)
        block_of = np.empty_like(by_first)
        block_of[by_first] = np.arange(len(long24))
        long24 = long24[by_first]
        tbl_long = np.repeat(self.tbl24[long24], 256)
        self.tbl24[long24] = np.arange(len(long24), dtype=np.uint16) | _LONG_FLAG
        cells[edges[25]:] = (block_of[inverse] << 8) | (
            prefix[edges[25]:] & 0xFF
        )
        for bits in range(25, 33):
            _paint_rows(tbl_long, cells, hop, edges[bits:bits + 2], 32 - bits)
        self._routes = len(routes)
        self._finalize(tbl_long)

    def _insert(self, prefix: int, length: int, next_hop: int) -> None:
        _validate(prefix, length, next_hop)
        self._routes += 1
        if length <= 24:
            start = prefix >> 8
            span = 1 << (24 - length)
            # Ranges already expanded to a long block keep their block but
            # its uncovered entries inherit the new shorter route.
            segment = self.tbl24[start:start + span]
            plain = (segment & _LONG_FLAG) == 0
            segment[plain] = next_hop
            for index in np.nonzero(~plain)[0]:
                block = self._blocks[int(segment[index]) & _MAX_BLOCKS]
                block[block == NO_ROUTE] = next_hop
        else:
            index24 = prefix >> 8
            entry = int(self.tbl24[index24])
            if entry & _LONG_FLAG:
                block = self._blocks[entry & _MAX_BLOCKS]
            else:
                if len(self._blocks) >= _MAX_BLOCKS:
                    raise MemoryError("tbl_long block space exhausted")
                # New block inherits the covering short route (or NO_ROUTE).
                block = np.full(256, entry, dtype=np.uint16)
                self._blocks.append(block)
                self.tbl24[index24] = _LONG_FLAG | (len(self._blocks) - 1)
            low = prefix & 0xFF
            span = 1 << (32 - length)
            block[low:low + span] = next_hop

    def _finalize(self, tbl_long: np.ndarray) -> None:
        """Install the flat second-level array; its rows are the blocks."""
        self.tbl_long = tbl_long
        self._blocks = list(tbl_long.reshape(-1, 256))
        self._built = True

    def lookup(self, addr: int) -> Tuple[Optional[int], int]:
        """Scalar lookup; returns (next_hop or None, memory_accesses).

        The access count is the quantity the CPU/GPU cost models consume:
        1 for a /24-resolved address, 2 when the long table is consulted.
        """
        if not self._built:
            raise RuntimeError("table not built; call add_routes first")
        if not 0 <= addr < (1 << 32):
            raise ValueError("address out of IPv4 range")
        entry = int(self.tbl24[addr >> 8])
        if entry & _LONG_FLAG:
            block = entry & _MAX_BLOCKS
            value = int(self.tbl_long[block * 256 + (addr & 0xFF)])
            return (None if value == NO_ROUTE else value), 2
        return (None if entry == NO_ROUTE else entry), 1

    def lookup_batch(self, addrs: np.ndarray) -> np.ndarray:
        """Vectorised lookup — the IPv4 "GPU kernel".

        ``addrs`` is a uint32 array; returns a uint16 array of next hops
        (NO_ROUTE where unrouted).  Two gathers, exactly the memory
        behaviour the GPU model charges for.
        """
        if not self._built:
            raise RuntimeError("table not built; call add_routes first")
        addrs = np.asarray(addrs, dtype=np.uint32)
        entries = self.tbl24[addrs >> np.uint32(8)]
        result = entries.copy()
        long_mask = (entries & _LONG_FLAG) != 0
        if long_mask.any():
            blocks = (entries[long_mask] & _MAX_BLOCKS).astype(np.int64)
            offsets = (addrs[long_mask] & np.uint32(0xFF)).astype(np.int64)
            result[long_mask] = self.tbl_long[blocks * 256 + offsets]
        return result

    def expected_accesses(self, addrs: np.ndarray) -> float:
        """Mean memory accesses per lookup over an address sample."""
        addrs = np.asarray(addrs, dtype=np.uint32)
        entries = self.tbl24[addrs >> np.uint32(8)]
        return float(1.0 + ((entries & _LONG_FLAG) != 0).mean())
