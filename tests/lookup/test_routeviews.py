"""Synthetic table generators vs the paper's workload statistics."""

import hashlib

import numpy as np
import pytest

from repro.lookup.routeviews import (
    ROUTEVIEWS_PREFIX_COUNT,
    fraction_longer_than,
    length_histogram,
    random_ipv6_table,
    synthetic_bgp_table,
)


class TestBGPTable:
    def test_default_count_matches_snapshot(self):
        # Section 6.2.1: 282,797 unique prefixes.
        table = synthetic_bgp_table()
        assert len(table) == ROUTEVIEWS_PREFIX_COUNT == 282_797

    def test_three_percent_longer_than_24(self):
        # Section 6.2.1: "only 3% percent of the prefixes are longer
        # than 24 bits".
        table = synthetic_bgp_table()
        assert fraction_longer_than(table, 24) == pytest.approx(0.03, abs=0.005)

    def test_slash24_dominates(self):
        table = synthetic_bgp_table(count=50_000, seed=2)
        histogram = length_histogram(table)
        assert histogram[24] > 0.4 * len(table)

    def test_prefixes_unique(self):
        table = synthetic_bgp_table(count=30_000, seed=3)
        assert len({(p, l) for p, l, _ in table}) == len(table)

    def test_deterministic_for_seed(self):
        assert synthetic_bgp_table(count=1000, seed=7) == synthetic_bgp_table(
            count=1000, seed=7
        )
        assert synthetic_bgp_table(count=1000, seed=7) != synthetic_bgp_table(
            count=1000, seed=8
        )

    def test_next_hops_in_range(self):
        table = synthetic_bgp_table(count=5000, num_next_hops=8)
        assert {nh for _, _, nh in table} <= set(range(8))

    def test_prefixes_well_formed(self):
        for prefix, length, _ in synthetic_bgp_table(count=5000, seed=4):
            assert 0 <= prefix < (1 << 32)
            if length < 32:
                assert prefix & ((1 << (32 - length)) - 1) == 0

    @pytest.mark.parametrize("seed, digest", [
        (1, "bcde5777df49a7b6d1115763d3e8342d77a6d370969de8a2ecbc9298a80d89c9"),
        (2, "4d0aaee1ec71791af48b9a7f800d08217a924ebafd5c014be12db1c2935bc6a8"),
        (3, "082918d7b64bb26fbff2919f78a6505cdac09e89154a358ae3c274859171b8f5"),
    ])
    def test_full_table_bytes_are_pinned(self, seed, digest):
        """The full table is a fixed byte string per seed: the benchmark's
        labelled traffic and every ``BENCH_*.json`` are derived from it,
        so the generator may get faster but never draw differently."""
        routes = synthetic_bgp_table(num_next_hops=8, seed=seed)
        blob = np.asarray(routes, dtype="<u4").tobytes()
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_bgp_table(count=0)
        with pytest.raises(ValueError):
            synthetic_bgp_table(count=100, num_next_hops=0)


class TestIPv6Table:
    def test_default_count_is_200k(self):
        # Section 6.2.2: "we randomly generate 200,000 prefixes".
        assert len(random_ipv6_table()) == 200_000

    def test_lengths_in_routable_range(self):
        table = random_ipv6_table(count=5000, seed=5)
        lengths = {l for _, l, _ in table}
        assert min(lengths) >= 16 and max(lengths) <= 64

    def test_unique_and_deterministic(self):
        table = random_ipv6_table(count=3000, seed=6)
        assert len({(p, l) for p, l, _ in table}) == 3000
        assert table == random_ipv6_table(count=3000, seed=6)

    def test_well_formed(self):
        for prefix, length, _ in random_ipv6_table(count=2000, seed=7):
            assert prefix & ((1 << (128 - length)) - 1) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            random_ipv6_table(count=-1)
        with pytest.raises(ValueError):
            random_ipv6_table(count=10, min_length=0)
