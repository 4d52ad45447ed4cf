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

from typing import Callable, List, Tuple

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

#: The one name -> application mapping: (workload constructor over
#: ``(num_routes, seed)``, application over that workload, the
#: ``PacketGenerator`` method drawing its traffic, natural frame length).
REGISTRY = {
    "ipv4": (
        lambda routes, seed: workloads.ipv4_workload(routes, seed=seed),
        lambda workload: IPv4Forwarder(workload.table), "ipv4_burst", 64,
    ),
    "ipv6": (
        lambda routes, seed: workloads.ipv6_workload(routes, seed=seed),
        lambda workload: IPv6Forwarder(workload.table), "ipv6_burst", 78,
    ),
    "openflow": (
        lambda routes, seed: workloads.openflow_workload(
            num_exact=2048, num_wildcard=32, seed=seed
        ),
        lambda workload: OpenFlowApp(workload.switch), "ipv4_burst", 64,
    ),
    "ipsec": (
        lambda routes, seed: workloads.ipsec_workload(seed),
        lambda workload: IPsecGateway(workload.sa), "ipv4_burst", 64,
    ),
}


def build_app(
    name: str, num_routes: int = 5_000, seed: int = 42
) -> Tuple[RouterApplication, Callable[..., List[bytearray]]]:
    """``(application, burst)`` for a registered name, deterministic in
    ``seed``; ``burst(packets, frame_len=None)`` draws the app's traffic
    at its natural minimum frame length unless told otherwise.  The
    default table is small (the cost models don't depend on its size);
    ``num_routes=0`` is the full RouteViews-shaped IPv4 table."""
    if name not in REGISTRY:
        raise ValueError(f"unknown app {name!r}")
    make_workload, make_app, burst, natural_len = REGISTRY[name]
    workload = make_workload(num_routes, seed)
    draw = getattr(workload.generator, burst)
    return make_app(workload), lambda packets, frame_len=None: draw(
        packets, frame_len or natural_len
    )


__all__ = [
    "IPsecDecapGateway",
    "IPsecGateway",
    "IPv4Forwarder",
    "IPv6Forwarder",
    "OpenFlowApp",
    "REGISTRY",
    "build_app",
    "cpu_ipv6_lookup_rate_pps",
    "gpu_ipv6_lookup_rate_pps",
]
