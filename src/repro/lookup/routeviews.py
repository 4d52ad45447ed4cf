"""Synthetic forwarding tables matching the paper's workloads.

The paper populates its IPv4 table from the RouteViews BGP snapshot of
September 1, 2009 — 282,797 unique prefixes, "only 3% percent of the
prefixes ... longer than 24 bits" (Section 6.2.1) — and its IPv6 table
with 200,000 randomly generated prefixes (Section 6.2.2), because real
IPv6 tables of the era were small enough to fit CPU caches and would have
flattered the CPU baseline.

We cannot ship the snapshot, so :func:`synthetic_bgp_table` generates a
table with the same size and a prefix-length histogram matched to the
published shape of 2009 global BGP tables (dominated by /24, with mass at
/16-/23 and a thin >24 tail summing to 3%).  DIR-24-8 performance depends
only on the count and the length distribution, so the substitution
preserves the lookup behaviour the evaluation exercises.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

#: Unique prefixes in the 2009-09-01 RouteViews snapshot (Section 6.2.1).
ROUTEVIEWS_PREFIX_COUNT = 282_797

#: Prefix-length distribution modelled on 2009 global BGP statistics
#: (CIDR report era): /24 carries roughly half the table, /16-/23 most of
#: the rest, and lengths 25-32 sum to the 3% the paper quotes.
BGP_LENGTH_DISTRIBUTION: Dict[int, float] = {
    8: 0.0001,
    9: 0.0002,
    10: 0.0004,
    11: 0.001,
    12: 0.002,
    13: 0.004,
    14: 0.007,
    15: 0.012,
    16: 0.046,
    17: 0.022,
    18: 0.036,
    19: 0.072,
    20: 0.052,
    21: 0.060,
    22: 0.086,
    23: 0.080,
    24: 0.489,
    25: 0.006,
    26: 0.006,
    27: 0.005,
    28: 0.004,
    29: 0.004,
    30: 0.004,
    31: 0.0005,
    32: 0.0004,
}


def _unique_prefixes(
    rng: random.Random, count: int, length: int, width: int
) -> List[int]:
    """Draw ``count`` distinct left-aligned prefixes of one length."""
    space = 1 << length
    if count > space:
        raise ValueError(f"cannot draw {count} unique /{length} prefixes")
    out = []
    seen = set()
    while len(out) < count:
        value = rng.getrandbits(length) << (width - length)
        if value in seen:
            continue
        seen.add(value)
        out.append(value)
    return out


def synthetic_bgp_table(
    count: int = ROUTEVIEWS_PREFIX_COUNT,
    num_next_hops: int = 8,
    seed: int = 20090901,
) -> List[Tuple[int, int, int]]:
    """A RouteViews-shaped IPv4 table: (prefix, length, next_hop) routes.

    ``num_next_hops`` defaults to 8, one per output port of the test
    system.  Deterministic for a given seed.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if num_next_hops <= 0:
        raise ValueError("need at least one next hop")
    rng = random.Random(seed)
    total_weight = sum(BGP_LENGTH_DISTRIBUTION.values())
    routes: List[Tuple[int, int, int]] = []
    lengths = sorted(BGP_LENGTH_DISTRIBUTION)
    for index, length in enumerate(lengths):
        if index == len(lengths) - 1:
            per_length = count - len(routes)
        else:
            per_length = round(
                count * BGP_LENGTH_DISTRIBUTION[length] / total_weight
            )
        per_length = min(per_length, 1 << length)
        for prefix in _unique_prefixes(rng, per_length, length, 32):
            routes.append((prefix, length, rng.randrange(num_next_hops)))
    return routes


def random_ipv6_table(
    count: int = 200_000,
    num_next_hops: int = 8,
    seed: int = 2010,
    min_length: int = 16,
    max_length: int = 64,
) -> List[Tuple[int, int, int]]:
    """The Section 6.2.2 IPv6 workload: randomly generated prefixes.

    The paper randomly generates 200,000 prefixes precisely to defeat CPU
    caching; lengths are drawn uniformly over the global-routable range
    (/16-/64, where real IPv6 allocations live).
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if not 1 <= min_length <= max_length <= 128:
        raise ValueError("bad length range")
    rng = random.Random(seed)
    routes: List[Tuple[int, int, int]] = []
    seen: set = set()
    while len(routes) < count:
        length = rng.randint(min_length, max_length)
        prefix = rng.getrandbits(length) << (128 - length)
        key = (prefix, length)
        if key in seen:
            continue
        seen.add(key)
        routes.append((prefix, length, rng.randrange(num_next_hops)))
    return routes


def length_histogram(routes: List[Tuple[int, int, int]]) -> Dict[int, int]:
    """Prefix-length histogram of a route list (for tests/reports)."""
    histogram: Dict[int, int] = {}
    for _, length, _ in routes:
        histogram[length] = histogram.get(length, 0) + 1
    return histogram


def fraction_longer_than(routes: List[Tuple[int, int, int]], length: int) -> float:
    """Fraction of routes longer than ``length`` (the paper's 3% check)."""
    if not routes:
        return 0.0
    return sum(1 for _, l, _ in routes if l > length) / len(routes)
