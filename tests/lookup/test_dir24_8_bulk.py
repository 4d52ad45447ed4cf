"""The bulk DIR-24-8 build against the per-route oracle, byte for byte.

An empty table is painted in bulk, one vectorised assignment per prefix
length; ``_insert`` — one route at a time, in stable ascending-length
order — is the oracle, and the update path of a built table.  The two
must leave identical ``tbl24`` / ``tbl_long`` bytes, route counts and
footprints for any route set, and raise the same exception with the
same message for any invalid one.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lookup.dir24_8 import Dir24_8, NO_ROUTE
from repro.lookup.routeviews import synthetic_bgp_table

#: A few /24s that many routes share, so short routes land under long
#: blocks and one (prefix, length) repeats with different next hops.
HOT_24S = (0x0A0A0A00, 0x0A0A0B00, 0xC0A80100, 0x00000000, 0xFFFFFF00)
LENGTHS = (0, 1, 8, 16, 23, 24, 25, 26, 30, 31, 32)


def oracle(*rounds):
    table = Dir24_8()
    for routes in rounds:
        table._insert_all(routes)
    return table


def bulk(*rounds):
    table = Dir24_8()
    for routes in rounds:
        table.add_routes(routes)
    return table


def assert_same(table, expected):
    for name in ("tbl24", "tbl_long"):
        got, want = getattr(table, name), getattr(expected, name)
        assert got.dtype == want.dtype == np.uint16
        assert np.array_equal(got, want)
    assert len(table) == len(expected)
    assert table.memory_bytes == expected.memory_bytes


def outcome(build, *rounds):
    """The table a build leaves, or the (type, message) it raised."""
    try:
        return build(*rounds)
    except (ValueError, MemoryError) as exc:
        return type(exc), str(exc)


@st.composite
def valid_routes(draw):
    length = draw(st.one_of(st.sampled_from(LENGTHS), st.integers(0, 32)))
    address = draw(st.one_of(
        st.integers(0, (1 << 32) - 1),
        st.builds(lambda base, low: base | low,
                  st.sampled_from(HOT_24S), st.integers(0, 255)),
    ))
    prefix = address & ~((1 << (32 - length)) - 1) & 0xFFFFFFFF
    return prefix, length, draw(st.integers(0, NO_ROUTE - 1))


route_sets = st.lists(valid_routes(), max_size=60)


@st.composite
def invalid_routes(draw):
    prefix, length, hop = draw(valid_routes())
    kind = draw(st.sampled_from(
        ("length", "range", "host", "hop", "huge")
    ))
    if kind == "length":
        return prefix, draw(st.sampled_from((-1, 33, 64))), hop
    if kind == "range":
        return draw(st.sampled_from((-256, 1 << 32))), length, hop
    if kind == "host":
        return prefix | 1, min(length, 31), hop
    if kind == "hop":
        return prefix, length, draw(st.sampled_from((-1, NO_ROUTE, 1 << 16)))
    return 1 << 70, length, hop


class TestBulkMatchesOracle:
    @settings(max_examples=100, deadline=None)
    @given(route_sets)
    def test_any_route_set(self, routes):
        assert_same(bulk(routes), oracle(routes))

    @settings(max_examples=40, deadline=None)
    @given(route_sets, route_sets)
    def test_update_after_bulk_build(self, first, second):
        """A second ``add_routes`` is an update: bulk then ``_insert``
        equals two ``_insert`` rounds."""
        assert_same(bulk(first, second), oracle(first, second))

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.one_of(valid_routes(), invalid_routes()), max_size=30))
    def test_invalid_input_raises_what_the_oracle_raises(self, routes):
        built, expected = outcome(bulk, routes), outcome(oracle, routes)
        if isinstance(expected, tuple):
            assert built == expected
        else:
            assert_same(built, expected)

    def test_failed_bulk_build_leaves_the_table_empty(self):
        table = Dir24_8()
        with pytest.raises(ValueError, match="host bits"):
            table.add_routes([(0x0A000000, 8, 1), (0x0A000001, 8, 2)])
        table.add_routes([(0x0A000000, 8, 1)])
        assert_same(table, oracle([(0x0A000000, 8, 1)]))

    def test_last_duplicate_wins(self):
        routes = [(0x0A0A0A80, 25, 1), (0x0A000000, 8, 2),
                  (0x0A0A0A80, 25, 3), (0x0A000000, 8, 4)]
        table = bulk(routes)
        assert_same(table, oracle(routes))
        assert table.lookup(0x0A0A0A81) == (3, 2)
        assert table.lookup(0x0A0A0A01) == (4, 2)
        assert table.lookup(0x0A0B0000) == (4, 1)

    def test_array_input_is_the_list(self):
        routes = synthetic_bgp_table(count=5000, seed=4)
        assert_same(bulk(np.array(routes, dtype=np.int64)), bulk(routes))
        assert_same(bulk(routes, np.array(routes[:50])), oracle(routes, routes[:50]))

    def test_block_exhaustion(self):
        """The 15-bit index holds 0x7FFF blocks; one more raises at the
        route that needs it — unless a bad route comes first."""
        longs = [((i << 8) | 0x80, 25, 1) for i in range(0x7FFF + 1)]
        full = bulk(longs[:-1])
        assert len(full.tbl_long) == 0x7FFF * 256
        assert_same(full, oracle(longs[:-1]))
        late = [((0x7FFF + 5) << 8 | 1, 25, 1)]   # host bits, sorted last
        early = [(1, 24, 1)]                       # host bits, sorted first
        for routes in (longs, longs + late, early + longs):
            assert outcome(bulk, routes) == outcome(oracle, routes)
        assert outcome(bulk, longs)[0] is MemoryError
        assert outcome(bulk, early + longs)[0] is ValueError


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_full_synthetic_table(seed):
    routes = synthetic_bgp_table(num_next_hops=8, seed=seed)
    assert_same(bulk(routes), oracle(routes))
