"""The four evaluated applications (paper Section 6.2).

Each application implements the three-callback interface of
:class:`repro.core.application.RouterApplication` twice over:

* functionally — real frames in, real verdicts out, with the heavy work
  (lookup, hashing, crypto) executed by the "GPU kernel" (a numpy/Python
  function run through the GPU device model) in CPU+GPU mode, or inline
  in CPU-only mode; both modes produce bit-identical results;
* temporally — the cost hooks the solver turns into Figure 11's bars.

:mod:`repro.apps.lookup_only` is the Section 2.3 microbenchmark (IPv6
lookup without packet I/O — Figure 2).
"""

from typing import Callable, Tuple

import numpy as np

from repro.apps.ipv4 import IPv4Forwarder
from repro.apps.ipv6 import IPv6Forwarder
from repro.apps.openflow import OpenFlowApp
from repro.apps.ipsec import IPsecDecapGateway, IPsecGateway
from repro.apps.lookup_only import (
    cpu_ipv6_lookup_rate_pps,
    gpu_ipv6_lookup_rate_pps,
)
from repro.core.application import RouterApplication
from repro.gen import workloads
from repro.gen.packetgen import PacketGenerator

#: The one name -> application mapping: (its read-only forwarding table
#: over ``(num_routes, seed)``, or None where all its state is per
#: instance; the application over ``(table, seed)``; the
#: ``PacketGenerator`` method drawing its traffic; natural frame length).
REGISTRY = {
    "ipv4": (
        lambda routes, seed: workloads.ipv4_table(routes, seed=seed),
        lambda table, seed: IPv4Forwarder(table), "ipv4_rows", 64,
    ),
    "ipv6": (
        lambda routes, seed: workloads.ipv6_table(routes, seed=seed),
        lambda table, seed: IPv6Forwarder(table), "ipv6_rows", 78,
    ),
    "openflow": (
        None,
        lambda table, seed: OpenFlowApp(workloads.openflow_workload(
            num_exact=2048, num_wildcard=32, seed=seed
        ).switch), "ipv4_rows", 64,
    ),
    "ipsec": (
        None,
        lambda table, seed: IPsecGateway(workloads.ipsec_workload(seed).sa),
        "ipv4_rows", 64,
    ),
}


def _entry(name: str):
    if name not in REGISTRY:
        raise ValueError(f"unknown app {name!r}")
    return REGISTRY[name]


def build_table(name: str, num_routes: int = 5_000, seed: int = 42):
    """The read-only forwarding table of a registered app, or None.

    The table is what one process builds and every instance of the app
    may share (a forked plane's workers and master read one copy); it
    binds no observability handle.  The default is small (the cost
    models don't depend on its size); ``num_routes=0`` is the full
    RouteViews-shaped IPv4 table."""
    make_table = _entry(name)[0]
    return make_table(num_routes, seed) if make_table else None


def app_over(
    name: str, table, seed: int = 42
) -> Tuple[RouterApplication, Callable[..., np.ndarray]]:
    """``(application, burst)`` over a :func:`build_table` table,
    deterministic in ``seed``; ``burst(packets, frame_len=None)`` draws
    the app's traffic at its natural minimum frame length unless told
    otherwise, as a ``(packets, frame_len)`` uint8 matrix, one frame a
    row (what ``Chunk``, ``ShardMap`` and ``process_frames`` take)."""
    _, make_app, burst, natural_len = _entry(name)
    draw = getattr(PacketGenerator(seed), burst)
    return make_app(table, seed), lambda packets, frame_len=None: draw(
        packets, frame_len or natural_len
    )


def build_app(
    name: str, num_routes: int = 5_000, seed: int = 42
) -> Tuple[RouterApplication, Callable[..., np.ndarray]]:
    """:func:`app_over` a freshly built table."""
    return app_over(name, build_table(name, num_routes, seed), seed)


__all__ = [
    "IPsecDecapGateway",
    "IPsecGateway",
    "IPv4Forwarder",
    "IPv6Forwarder",
    "OpenFlowApp",
    "REGISTRY",
    "app_over",
    "build_app",
    "build_table",
    "cpu_ipv6_lookup_rate_pps",
    "gpu_ipv6_lookup_rate_pps",
]
