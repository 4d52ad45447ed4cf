"""The evaluation workloads, one constructor per Figure 11 experiment.

Each workload bundles the forwarding state (tables, SAs) with a frame
stream, so examples, tests, and benchmarks all run the identical setup
the paper describes in Section 6.2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.crypto.esp import SecurityAssociation
from repro.gen.packetgen import PacketGenerator
from repro.lookup.dir24_8 import Dir24_8
from repro.lookup.ipv6_bsearch import IPv6BinarySearch
from repro.lookup.routeviews import (
    ROUTEVIEWS_PREFIX_COUNT,
    random_ipv6_table,
    synthetic_bgp_table,
)
from repro.openflow.actions import Action, ActionType
from repro.openflow.flowkey import FlowKey, VLAN_NONE
from repro.openflow.flowtable import WildcardEntry
from repro.openflow.switch import OpenFlowSwitch

#: Frame sizes the evaluation sweeps (Figures 6 and 11).
EVAL_FRAME_SIZES = (64, 128, 256, 512, 1024, 1514)


@dataclass
class IPv4Workload:
    """RouteViews-shaped table + random-destination traffic."""

    table: Dir24_8
    generator: PacketGenerator
    num_routes: int


def ipv4_table(
    num_routes: int = 0, num_ports: int = 8, seed: int = 42
) -> Dir24_8:
    """The Section 6.2.1 FIB.  ``num_routes=0`` means the full RouteViews
    count (282,797); tests pass smaller counts."""
    # Route columns, so the tuple list is garbage before the 32 MB tbl24
    # is allocated.
    routes = np.array(
        synthetic_bgp_table(num_routes or ROUTEVIEWS_PREFIX_COUNT,
                            num_ports, seed),
        dtype=np.int64,
    )
    table = Dir24_8()
    table.add_routes(routes)
    return table


def ipv4_workload(
    num_routes: int = 0, num_ports: int = 8, seed: int = 42
) -> IPv4Workload:
    """The Section 6.2.1 setup: :func:`ipv4_table` and its traffic."""
    table = ipv4_table(num_routes, num_ports, seed)
    return IPv4Workload(table=table, generator=PacketGenerator(seed),
                        num_routes=len(table))


@dataclass
class IPv6Workload:
    """200k random prefixes + random-destination traffic."""

    table: IPv6BinarySearch
    generator: PacketGenerator
    num_routes: int


def ipv6_table(
    num_routes: int = 200_000, num_ports: int = 8, seed: int = 42
) -> IPv6BinarySearch:
    """The Section 6.2.2 table: randomly generated prefixes, sized to
    defeat CPU caches."""
    table = IPv6BinarySearch()
    table.build(random_ipv6_table(num_routes, num_ports, seed))
    return table


def ipv6_workload(
    num_routes: int = 200_000, num_ports: int = 8, seed: int = 42
) -> IPv6Workload:
    """The Section 6.2.2 setup: :func:`ipv6_table` and its traffic."""
    return IPv6Workload(table=ipv6_table(num_routes, num_ports, seed),
                        generator=PacketGenerator(seed),
                        num_routes=num_routes)


@dataclass
class OpenFlowWorkload:
    """A populated switch plus the keys its exact entries match."""

    switch: OpenFlowSwitch
    generator: PacketGenerator
    exact_keys: List[FlowKey]
    num_exact: int
    num_wildcard: int


def _random_key(rng: random.Random, in_port_range: int = 8) -> FlowKey:
    return FlowKey(
        in_port=rng.randrange(in_port_range),
        dl_src=rng.getrandbits(48),
        dl_dst=rng.getrandbits(48),
        dl_vlan=VLAN_NONE,
        dl_type=0x0800,
        nw_src=rng.getrandbits(32),
        nw_dst=rng.getrandbits(32),
        nw_proto=17,
        tp_src=rng.randint(1, 65535),
        tp_dst=rng.randint(1, 65535),
    )


def openflow_workload(
    num_exact: int = 32 * 1024,
    num_wildcard: int = 32,
    num_ports: int = 8,
    seed: int = 42,
) -> OpenFlowWorkload:
    """The Section 6.2.3 setup; the default 32K+32 is the configuration
    compared against the NetFPGA implementation."""
    rng = random.Random(seed)
    switch = OpenFlowSwitch()
    exact_keys = []
    for _ in range(num_exact):
        key = _random_key(rng)
        switch.add_exact_flow(
            key, [Action(ActionType.OUTPUT, rng.randrange(num_ports))]
        )
        exact_keys.append(key)
    for priority in range(num_wildcard, 0, -1):
        switch.add_wildcard_flow(
            WildcardEntry(
                priority=priority,
                fields={"nw_dst": rng.getrandbits(32), "dl_type": 0x0800},
                nw_dst_mask=rng.choice((8, 16, 24)),
                actions=[Action(ActionType.OUTPUT, rng.randrange(num_ports))],
            )
        )
    return OpenFlowWorkload(
        switch=switch,
        generator=PacketGenerator(seed),
        exact_keys=exact_keys,
        num_exact=num_exact,
        num_wildcard=num_wildcard,
    )


@dataclass
class IPsecWorkload:
    """An outbound SA plus plaintext traffic to tunnel."""

    sa: SecurityAssociation
    generator: PacketGenerator


def ipsec_workload(seed: int = 42) -> IPsecWorkload:
    """The Section 6.2.4 setup: AES-128-CTR + HMAC-SHA1, static keys."""
    rng = random.Random(seed)
    sa = SecurityAssociation(
        spi=0x50534844,  # 'PSHD'
        encryption_key=rng.getrandbits(128).to_bytes(16, "big"),
        nonce=rng.getrandbits(32).to_bytes(4, "big"),
        auth_key=rng.getrandbits(160).to_bytes(20, "big"),
        tunnel_src=0x0A000001,
        tunnel_dst=0x0A000002,
    )
    return IPsecWorkload(sa=sa, generator=PacketGenerator(seed))
