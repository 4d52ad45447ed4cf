"""The registered benchmark suite: one producer per figure/table.

Importing this module populates the registry with every reproduction
benchmark — the paper's figures (fig2, fig5, fig6, fig11a–d, fig12),
its tables (table1–3), and the reproduction's extension benches
(degraded, numa, divergence, ablations, extensions).  Producers return
:class:`~repro.perf.registry.BenchResult`: series rows, the headline
scalars the regression gate tracks, and the bottleneck verdict —
capacity-view (:class:`repro.sim.metrics.ThroughputReport`'s analyzer
output) where the figure is a pipeline throughput, data-derived where
it is not.

``quick=True`` shrinks workload sizes and simulation horizons only; it
never changes a calibrated model, so headline numbers agree between
modes within the gate's tolerances.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.perf.registry import BenchResult, bench

#: Figure 2's batch sweep (the crossover anchors 320/640 included).
FIG2_BATCHES = (32, 64, 128, 256, 320, 512, 640, 1024, 2048, 4096, 8192, 16384)
#: Figure 5's batch sweep.
FIG5_BATCHES = (1, 2, 4, 8, 16, 32, 64, 128)
#: Figure 12's offered-load sweep (Gbps).
FIG12_LOADS = (0.5, 1, 2, 3, 4, 6, 7.5, 12, 16, 20, 24, 28)
#: Figure 11(c)'s (exact, wildcard) table-size sweep.
FIG11C_CONFIGS = (
    (1 << 10, 32), (1 << 12, 32), (1 << 14, 32), (32 << 10, 32),
    (1 << 16, 32), (32 << 10, 128), (32 << 10, 512),
)
#: Table 1's transfer sizes.
TABLE1_SIZES = (256, 1024, 4096, 16384, 65536, 262144, 1048576)


def _finite(value: float) -> Optional[float]:
    """inf/nan -> None, so payloads stay strict JSON."""
    return value if math.isfinite(value) else None


# -- Figure 2: IPv6 lookup throughput vs batch size --------------------


@bench("fig2", "IPv6 lookup throughput vs batch size (Mpps)",
       x_key="batch", units={"gpu_mpps": "Mpps", "cpu1_mpps": "Mpps",
                             "cpu2_mpps": "Mpps"})
def produce_fig2(quick: bool = False) -> BenchResult:
    from repro.apps.lookup_only import (
        cpu_ipv6_lookup_rate_pps,
        gpu_crossover_batch,
        gpu_ipv6_lookup_rate_pps,
    )

    cpu1 = cpu_ipv6_lookup_rate_pps(1) / 1e6
    cpu2 = cpu_ipv6_lookup_rate_pps(2) / 1e6
    series = [
        {
            "batch": batch,
            "gpu_mpps": gpu_ipv6_lookup_rate_pps(batch) / 1e6,
            "cpu1_mpps": cpu1,
            "cpu2_mpps": cpu2,
        }
        for batch in FIG2_BATCHES
    ]
    gpu = {row["batch"]: row["gpu_mpps"] for row in series}
    crossover1 = gpu_crossover_batch(1)
    crossover2 = gpu_crossover_batch(2)
    # Small batches leave the GPU under-occupied behind the fixed launch
    # cost; past the crossover the kernel itself is the limit.
    small_batch_efficiency = gpu[FIG2_BATCHES[0]] / gpu[FIG2_BATCHES[-1]]
    bottleneck = (
        "kernel_launch_overhead" if small_batch_efficiency < 0.5
        else "lookup_kernel"
    )
    return BenchResult(
        series=series,
        headline={
            "gpu_peak_mpps": gpu[FIG2_BATCHES[-1]],
            "crossover_1cpu": float(crossover1),
            "crossover_2cpu": float(crossover2),
            "peak_vs_1cpu": gpu[FIG2_BATCHES[-1]] / cpu1,
        },
        bottleneck=bottleneck,
    )


# -- Figure 5: batched I/O ---------------------------------------------


@bench("fig5", "single-core 64B forwarding vs I/O batch size (Gbps)",
       x_key="batch", units={"gbps": "Gbps"})
def produce_fig5(quick: bool = False) -> BenchResult:
    from repro.io_engine.batching import (
        forwarding_cycles_per_packet,
        forwarding_pps_single_core,
    )
    from repro.sim.metrics import pps_to_gbps

    series = [
        {"batch": batch,
         "gbps": pps_to_gbps(forwarding_pps_single_core(batch), 64)}
        for batch in FIG5_BATCHES
    ]
    gbps = {row["batch"]: row["gbps"] for row in series}
    speedup = gbps[64] / gbps[1]
    return BenchResult(
        series=series,
        headline={
            "gbps_batch1": gbps[1],
            "gbps_batch64": gbps[64],
            "speedup_64": speedup,
            # The Section 4.4 ablations behind the curve.
            "cycles_optimized": forwarding_cycles_per_packet(64),
            "cycles_no_prefetch": forwarding_cycles_per_packet(
                64, prefetch=False),
            "cycles_unaligned_8core": forwarding_cycles_per_packet(
                64, aligned_queues=False, num_cores=8),
        },
        bottleneck="per_packet_overheads" if speedup > 4 else "compute",
    )


# -- Figure 6: the packet I/O engine -----------------------------------


@bench("fig6", "packet I/O engine throughput (Gbps)",
       x_key="frame_len",
       units={"rx_gbps": "Gbps", "tx_gbps": "Gbps", "forward_gbps": "Gbps",
              "node_crossing_gbps": "Gbps"})
def produce_fig6(quick: bool = False) -> BenchResult:
    from repro.gen.workloads import EVAL_FRAME_SIZES
    from repro.io_engine.engine import io_throughput_report

    series = []
    for size in EVAL_FRAME_SIZES:
        forward = io_throughput_report(size, mode="forward")
        series.append({
            "frame_len": size,
            "rx_gbps": io_throughput_report(size, mode="rx").gbps,
            "tx_gbps": io_throughput_report(size, mode="tx").gbps,
            "forward_gbps": forward.gbps,
            "node_crossing_gbps": io_throughput_report(
                size, mode="forward", node_crossing=True).gbps,
            "bottleneck": forward.bottleneck,
        })
    report_64 = io_throughput_report(64, mode="forward")
    return BenchResult(
        series=series,
        headline={
            "forward_gbps_64": report_64.gbps,
            "forward_mpps_64": report_64.mpps,
            "rx_gbps_64": series[0]["rx_gbps"],
            "tx_gbps_64": series[0]["tx_gbps"],
        },
        bottleneck=report_64.bottleneck,
    )


# -- Figure 11: the four applications ----------------------------------


def _app_sweep(app, quick: bool) -> List[Dict[str, object]]:
    from repro import app_throughput_report
    from repro.gen.workloads import EVAL_FRAME_SIZES

    series = []
    for size in EVAL_FRAME_SIZES:
        cpu = app_throughput_report(app, size, use_gpu=False)
        gpu = app_throughput_report(app, size, use_gpu=True)
        series.append({
            "frame_len": size,
            "cpu_gbps": cpu.gbps,
            "gpu_gbps": gpu.gbps,
            "speedup": gpu.gbps / cpu.gbps,
            "bottleneck": gpu.bottleneck,
        })
    return series


def _app_headline(series: List[Dict[str, object]]) -> Dict[str, float]:
    by_size = {row["frame_len"]: row for row in series}
    return {
        "cpu_gbps_64": by_size[64]["cpu_gbps"],
        "gpu_gbps_64": by_size[64]["gpu_gbps"],
        "gpu_gbps_1514": by_size[1514]["gpu_gbps"],
        "speedup_64": by_size[64]["speedup"],
    }


_FIG11_UNITS = {"cpu_gbps": "Gbps", "gpu_gbps": "Gbps", "speedup": "ratio"}


@bench("fig11a", "IPv4 forwarding throughput (Gbps)",
       x_key="frame_len", units=_FIG11_UNITS)
def produce_fig11a(quick: bool = False) -> BenchResult:
    from repro.apps import build_app

    # Full mode builds the RouteViews-sized table (0 = all 282,797
    # prefixes); the cost models don't depend on table size, so quick
    # shrinks it.
    series = _app_sweep(build_app("ipv4", 5_000 if quick else 0)[0], quick)
    return BenchResult(
        series=series,
        headline=_app_headline(series),
        bottleneck=series[0]["bottleneck"],
    )


@bench("fig11b", "IPv6 forwarding throughput (Gbps)",
       x_key="frame_len", units=_FIG11_UNITS)
def produce_fig11b(quick: bool = False) -> BenchResult:
    from repro.apps import build_app

    # Full mode uses the paper's 200,000 random prefixes.
    routes = 5_000 if quick else 200_000
    series = _app_sweep(build_app("ipv6", routes)[0], quick)
    return BenchResult(
        series=series,
        headline=_app_headline(series),
        bottleneck=series[0]["bottleneck"],
    )


@bench("fig11c", "OpenFlow switch throughput @64B vs table size (Gbps)",
       x_key="config", units=_FIG11_UNITS)
def produce_fig11c(quick: bool = False) -> BenchResult:
    from repro import app_throughput_report
    from repro.apps.openflow import OpenFlowApp
    from repro.gen.workloads import openflow_workload

    series = []
    for num_exact, num_wildcard in FIG11C_CONFIGS:
        # Hash tables are O(1) per packet, so build small exact tables
        # with the right wildcard count; the wildcard count is what
        # drives the cost model.
        workload = openflow_workload(
            num_exact=min(num_exact, 2048), num_wildcard=num_wildcard
        )
        app = OpenFlowApp(workload.switch)
        cpu = app_throughput_report(app, 64, use_gpu=False)
        gpu = app_throughput_report(app, 64, use_gpu=True)
        series.append({
            "config": f"{num_exact // 1024}K+{num_wildcard}",
            "exact_entries": num_exact,
            "wildcard_entries": num_wildcard,
            "cpu_gbps": cpu.gbps,
            "gpu_gbps": gpu.gbps,
            "speedup": gpu.gbps / cpu.gbps,
            "bottleneck": gpu.bottleneck,
        })
    by_config = {row["config"]: row for row in series}
    netfpga = by_config["32K+32"]["gpu_gbps"] / 4.0
    return BenchResult(
        series=series,
        headline={
            "gpu_gbps_32K32": by_config["32K+32"]["gpu_gbps"],
            "cpu_gbps_32K32": by_config["32K+32"]["cpu_gbps"],
            "netfpga_equivalents": netfpga,
            "speedup_32K512": by_config["32K+512"]["speedup"],
        },
        bottleneck=by_config["32K+32"]["bottleneck"],
    )


@bench("fig11d", "IPsec gateway input throughput (Gbps)",
       x_key="frame_len", units=_FIG11_UNITS)
def produce_fig11d(quick: bool = False) -> BenchResult:
    from repro.apps import build_app

    series = _app_sweep(build_app("ipsec")[0], quick)
    return BenchResult(
        series=series,
        headline=_app_headline(series),
        bottleneck=series[0]["bottleneck"],
    )


# -- Figure 12: latency vs offered load --------------------------------


def _fig12_percentiles_us(app, quick: bool) -> Dict[str, float]:
    """p50/p95/p99 of the event-driven simulator's sojourn times at the
    12 Gbps operating point, read back through the registry histogram's
    :meth:`~repro.obs.registry.Histogram.percentile` estimator."""
    from repro.obs import MetricsRegistry, get_registry, names, set_registry
    from repro.sim.latency import LatencySimulator
    from repro.sim.metrics import gbps_to_pps

    previous = set_registry(MetricsRegistry())
    try:
        simulator = LatencySimulator(app, 64, use_gpu=True, seed=1)
        duration = 4e6 if quick else 8e6
        simulator.run(gbps_to_pps(12, 64), duration_ns=duration,
                      warmup_ns=duration / 4)
        registry = get_registry()
        histogram = registry.get(names.SIM_SOJOURN_NS)
        return {
            f"gpu_p{p}_us": histogram.percentile(p) / 1000.0
            for p in (50, 95, 99)
        }
    finally:
        set_registry(previous)


@bench("fig12", "IPv6 round-trip latency vs offered load (us)",
       x_key="offered_gbps",
       units={"cpu_nobatch_us": "us", "cpu_batch_us": "us", "gpu_us": "us",
              "gpu_p50_us": "us", "gpu_p95_us": "us", "gpu_p99_us": "us"})
def produce_fig12(quick: bool = False) -> BenchResult:
    from repro import app_latency_ns
    from repro.apps import build_app
    from repro.sim.metrics import gbps_to_pps

    app, _ = build_app("ipv6", 2000)
    series = []
    for gbps in FIG12_LOADS:
        pps = gbps_to_pps(gbps, 64)
        series.append({
            "offered_gbps": gbps,
            "cpu_nobatch_us": _finite(app_latency_ns(
                app, 64, pps, use_gpu=False, batching=False) / 1000.0),
            "cpu_batch_us": _finite(app_latency_ns(
                app, 64, pps, use_gpu=False, batching=True) / 1000.0),
            "gpu_us": _finite(app_latency_ns(
                app, 64, pps, use_gpu=True) / 1000.0),
        })

    def saturation_gbps(key: str) -> float:
        for row in series:
            if row[key] is None:
                return float(row["offered_gbps"])
        return float("inf")

    by_load = {row["offered_gbps"]: row for row in series}
    headline: Dict[str, float] = {
        "gpu_us_12gbps": by_load[12]["gpu_us"],
        "gpu_min_us": min(row["gpu_us"] for row in series),
        "gpu_max_us": max(row["gpu_us"] for row in series),
        "cpu_nobatch_sat_gbps": saturation_gbps("cpu_nobatch_us"),
        "cpu_batch_sat_gbps": saturation_gbps("cpu_batch_us"),
    }
    headline.update(_fig12_percentiles_us(app, quick))

    from repro import app_throughput_report
    report = app_throughput_report(app, 64, use_gpu=True)
    return BenchResult(
        series=series,
        headline=headline,
        bottleneck=report.bottleneck,
    )


# -- Tables 1-3 ---------------------------------------------------------


@bench("table1", "host<->device transfer rate (MB/s)", kind="table",
       x_key="bytes", units={"h2d_mbps": "MB/s", "d2h_mbps": "MB/s"})
def produce_table1(quick: bool = False) -> BenchResult:
    from repro.hw.gpu import GPUDevice
    from repro.hw.pcie import PCIeLink

    link = PCIeLink()
    series = [
        {
            "bytes": size,
            "h2d_mbps": link.h2d_rate_mbps(size),
            "d2h_mbps": link.d2h_rate_mbps(size),
        }
        for size in TABLE1_SIZES
    ]
    device = GPUDevice()
    peak = series[-1]
    return BenchResult(
        series=series,
        headline={
            "h2d_peak_mbps": peak["h2d_mbps"],
            "d2h_peak_mbps": peak["d2h_mbps"],
            "asymmetry": peak["h2d_mbps"] / peak["d2h_mbps"],
            # The Section 2.2 kernel-launch microbenchmark rides along.
            "launch_us_1thread": device.launch_latency_ns(1) / 1000.0,
            "launch_us_4096threads": device.launch_latency_ns(4096) / 1000.0,
        },
        # The dual-IOH asymmetry: the lower direction is the ceiling.
        bottleneck="d2h_path" if peak["d2h_mbps"] < peak["h2d_mbps"]
        else "h2d_path",
    )


@bench("table2", "test system hardware specification and cost",
       kind="table", x_key="item", units={"unit_usd": "USD"})
def produce_table2(quick: bool = False) -> BenchResult:
    from repro.calib.constants import CPU, GPU, SYSTEM

    series = [
        {"item": "CPU", "qty": SYSTEM.num_nodes, "unit_usd": SYSTEM.price_cpu},
        {"item": "RAM", "qty": SYSTEM.ram_modules, "unit_usd": SYSTEM.price_ram},
        {"item": "M/B", "qty": 1, "unit_usd": SYSTEM.price_motherboard},
        {"item": "GPU", "qty": SYSTEM.num_nodes, "unit_usd": SYSTEM.price_gpu},
        {"item": "NIC", "qty": SYSTEM.num_nodes * SYSTEM.nics_per_node,
         "unit_usd": SYSTEM.price_nic},
        {"item": "misc", "qty": 1, "unit_usd": SYSTEM.price_misc},
    ]
    priciest = max(series, key=lambda row: row["qty"] * row["unit_usd"])
    return BenchResult(
        series=series,
        headline={
            "total_cost_usd": float(SYSTEM.total_cost),
            "gpu_unit_usd": float(SYSTEM.price_gpu),
            "total_ports": float(SYSTEM.total_ports),
            "cpu_cores": float(CPU.cores * SYSTEM.num_nodes),
            "gpu_cores": float(GPU.total_cores),
        },
        # The Section 7 price argument: where the dollars actually go.
        bottleneck=f"cost_{priciest['item'].lower().replace('/', '')}",
    )


@bench("table3", "CPU cycle breakdown in packet RX", kind="table",
       x_key="bin", units={"share": "fraction"})
def produce_table3(quick: bool = False) -> BenchResult:
    from repro.io_engine.driver import UnmodifiedDriver

    driver = UnmodifiedDriver()
    frame = bytes(64)
    for _ in range(800 if quick else 2000):
        driver.receive_and_drop(frame)
    shares = driver.breakdown.shares()
    series = [{"bin": name, "share": share} for name, share in shares.items()]
    skb_related = (
        shares["skb initialization"]
        + shares["skb (de)allocation"]
        + shares["memory subsystem"]
    )
    top = max(series, key=lambda row: row["share"])
    return BenchResult(
        series=series,
        headline={
            "skb_related_share": skb_related,
            "top_bin_share": top["share"],
        },
        # The Table 3 verdict is the dominant functional bin.
        bottleneck=str(top["bin"]),
    )


# -- Extension benches --------------------------------------------------


@bench("degraded", "breaker-open degraded throughput vs CPU-only baseline",
       kind="extension", x_key="case",
       units={"clean_gbps": "Gbps", "cpu_only_gbps": "Gbps",
              "degraded_gbps": "Gbps", "ratio": "ratio"})
def produce_degraded(quick: bool = False) -> BenchResult:
    from repro import app_throughput_report
    from repro.apps import build_app
    from repro.core.solver import degraded_throughput_report
    from repro.gen.workloads import EVAL_FRAME_SIZES

    routes = 2_000 if quick else 5_000
    apps = {name: build_app(name, routes)[0] for name in ("ipv4", "ipv6")}
    series = []
    verdict = ""
    for name, app in apps.items():
        for size in EVAL_FRAME_SIZES:
            clean = app_throughput_report(app, size, use_gpu=True)
            cpu_only = app_throughput_report(app, size, use_gpu=False)
            degraded = degraded_throughput_report(app, size)
            series.append({
                "case": f"{name}@{size}",
                "app": name,
                "frame_len": size,
                "clean_gbps": clean.gbps,
                "cpu_only_gbps": cpu_only.gbps,
                "degraded_gbps": degraded.gbps,
                "ratio": degraded.gbps / cpu_only.gbps,
            })
            if name == "ipv4" and size == 64:
                verdict = degraded.bottleneck
    ratios = [row["ratio"] for row in series]
    return BenchResult(
        series=series,
        headline={
            "min_ratio": min(ratios),
            "mean_ratio": sum(ratios) / len(ratios),
            "ipv4_degraded_gbps_64": series[0]["degraded_gbps"],
        },
        bottleneck=verdict,
    )


@bench("numa", "NUMA-aware vs NUMA-blind forwarding", kind="extension",
       x_key="configuration", units={"io_gbps": "Gbps", "app_gbps": "Gbps"})
def produce_numa(quick: bool = False) -> BenchResult:
    from repro import app_throughput_report
    from repro.apps import build_app
    from repro.core.config import RouterConfig
    from repro.io_engine.engine import io_throughput_report

    app, _ = build_app("ipv6", 1000)
    aware = io_throughput_report(64, mode="forward", numa_aware=True)
    blind = io_throughput_report(64, mode="forward", numa_aware=False)
    app_aware = app_throughput_report(app, 64, use_gpu=True)
    app_blind = app_throughput_report(
        app, 64, use_gpu=True, config=RouterConfig(numa_aware=False)
    )
    series = [
        {"configuration": "aware", "io_gbps": aware.gbps,
         "app_gbps": app_aware.gbps},
        {"configuration": "blind", "io_gbps": blind.gbps,
         "app_gbps": app_blind.gbps},
    ]
    return BenchResult(
        series=series,
        headline={
            "aware_over_blind": aware.gbps / blind.gbps,
            "aware_gbps": aware.gbps,
            "blind_gbps": blind.gbps,
        },
        # NUMA-blind crossings move the ceiling to the interconnect.
        bottleneck=blind.bottleneck,
    )


@bench("divergence", "warp divergence and the classify-and-sort fix",
       kind="extension", x_key="mix",
       units={"unsorted_us": "us", "sorted_us": "us",
              "divergence_factor": "ratio"})
def produce_divergence(quick: bool = False) -> BenchResult:
    import random

    from repro.hw.divergence import divergent_execution_factor, sort_for_warps
    from repro.hw.gpu import GPUDevice, KernelSpec

    rng = random.Random(55)
    device = GPUDevice()
    n = 1024 if quick else 3072
    series = []
    for paths, mix in ((1, "single suite"), (2, "two suites"),
                       (4, "four suites")):
        labels = [rng.randrange(paths) for _ in range(n)]
        unsorted_factor = divergent_execution_factor(labels)
        sorted_labels = [labels[i] for i in sort_for_warps(labels)]
        sorted_factor = divergent_execution_factor(sorted_labels)
        time_unsorted = device.execution_time_ns(
            KernelSpec(name="mix", compute_cycles=400.0,
                       divergence_factor=unsorted_factor), n)
        time_sorted = device.execution_time_ns(
            KernelSpec(name="mix", compute_cycles=400.0,
                       divergence_factor=sorted_factor), n)
        series.append({
            "mix": mix,
            "paths": paths,
            "divergence_factor": unsorted_factor,
            "unsorted_us": time_unsorted / 1000.0,
            "sorted_us": time_sorted / 1000.0,
        })
    by_mix = {row["mix"]: row for row in series}
    baseline = by_mix["single suite"]["sorted_us"]
    penalty = by_mix["four suites"]["unsorted_us"] / baseline
    recovery = by_mix["four suites"]["sorted_us"] / baseline
    return BenchResult(
        series=series,
        headline={
            "four_suite_penalty": penalty,
            "sorted_recovery": recovery,
        },
        bottleneck="warp_divergence" if penalty > 1.5 else "gpu_kernel",
    )


@bench("ablations", "Section 7 / 2.4 quantitative claims", kind="extension",
       x_key="machine_class", units={"usd_per_ghz": "USD/GHz"})
def produce_ablations(quick: bool = False) -> BenchResult:
    from repro import app_throughput_report
    from repro.apps import build_app
    from repro.calib.constants import CPU, GPU, SYSTEM
    from repro.hw.cpu import memory_access_time

    # The paper's own price points: $/GHz of aggregate clock.
    series = [
        {"machine_class": "single-socket", "usd_per_ghz": 240 / (2.66 * 4)},
        {"machine_class": "dual-socket", "usd_per_ghz": 925 / (2.66 * 4)},
        {"machine_class": "quad-socket", "usd_per_ghz": 2190 / (2.00 * 6)},
    ]
    app, _ = build_app("ipv6", 1000)
    gpu_gbps = app_throughput_report(app, 64, use_gpu=True).gbps
    cpu_gbps = app_throughput_report(app, 64, use_gpu=False).gbps

    accesses = 16.0
    serial = memory_access_time(accesses)
    alone = memory_access_time(0.0, independent_accesses=accesses,
                               all_cores_busy=False)
    bursting = memory_access_time(0.0, independent_accesses=accesses,
                                  all_cores_busy=True)
    bw_ratio = GPU.mem_bandwidth / CPU.mem_bandwidth
    return BenchResult(
        series=series,
        headline={
            "power_increase": SYSTEM.power_full_gpu_w / SYSTEM.power_full_cpu_w
            - 1.0,
            "gpu_gbps_per_watt": gpu_gbps / SYSTEM.power_full_gpu_w,
            "cpu_gbps_per_watt": cpu_gbps / SYSTEM.power_full_cpu_w,
            "mshr_one_core": serial / alone,
            "mshr_all_cores": serial / bursting,
            "gpu_bw_ratio": bw_ratio,
        },
        # The Section 2.4 argument: random 4B lookups starve on CPU
        # memory bandwidth; the GPU brings 5.5x of it.
        bottleneck="cpu_memory_bandwidth" if bw_ratio > 4 else "compute",
    )


@bench("workloads", "adversarial workloads: goodput and p99 under flood",
       kind="extension", x_key="scenario",
       units={"goodput": "ratio", "p99_us": "us", "slo_headroom": "ratio",
              "shed_share": "ratio", "table_occupancy": "ratio"})
def produce_workloads(quick: bool = False) -> BenchResult:
    """The overload-control figure: each flood scenario scored on both
    axes the SLO cares about — established goodput (throughput the
    ladder must protect) and windowed p99 vs the budget (latency the
    adaptive chunking must respect).  Scenario runs are deterministic
    from their seed, so quick and full modes agree exactly.
    """
    from repro.faults.scenarios import run_scenario
    from repro.obs import MetricsRegistry, set_registry

    previous = set_registry(MetricsRegistry())
    try:
        series = []
        for name in ("heavy-tail", "syn-flood", "ddos"):
            report = run_scenario(name, seed=1)
            goodput = (
                report.established_goodput
                if report.established_packets
                else report.forwarded / report.injected
            )
            series.append({
                "scenario": name,
                "goodput": goodput,
                "p99_us": report.p99_ns / 1000.0,
                "slo_headroom": report.slo_budget_ns / report.p99_ns,
                "shed_share": report.rx_shed / report.injected,
                "table_occupancy": (
                    report.flow_table_len / report.flow_table_cap
                    if report.flow_table_cap else None
                ),
                "conservation_ok": report.conservation_ok,
            })
    finally:
        set_registry(previous)
    headroom = {row["scenario"]: row["slo_headroom"] for row in series}
    min_headroom = min(headroom.values())
    return BenchResult(
        series=series,
        headline={
            "min_goodput": min(row["goodput"] for row in series),
            "min_slo_headroom": min_headroom,
            "heavy_tail_p99_us": next(
                row["p99_us"] for row in series
                if row["scenario"] == "heavy-tail"
            ),
            "ddos_table_occupancy": next(
                row["table_occupancy"] for row in series
                if row["scenario"] == "ddos"
            ),
            "total_shed_share": sum(row["shed_share"] for row in series)
            / len(series),
        },
        # The binding axis: latency headroom when the AIMD loop is the
        # constraint, shedding when the ladder is doing the work.
        bottleneck="slo_p99" if min_headroom < 1.5 else "rx_shedding",
    )


@bench("scaling", "sharded data-plane throughput vs worker processes",
       kind="extension", x_key="workers",
       units={"ipv4_gbps": "Gbps", "ipv6_gbps": "Gbps",
              "ipv4_speedup": "ratio", "ipv6_speedup": "ratio"})
def produce_scaling(quick: bool = False) -> BenchResult:
    """Throughput vs shard count for the multi-process plane.

    This is the *capacity model's* view of docs/SHARDING.md: each
    worker process is one logical worker of one node, so the sweep sets
    ``workers_per_node_gpu_mode`` and reads the pipeline solver — the
    same model every Figure 11 number comes from.  The committed figure
    is deterministic by design; measured wall-clock scaling depends on
    how many cores the host actually has (CI runners may have one), so
    it is measured by the wall-clock benchmark (``bench/``:
    ``shard.fork1_kpps``, ``shard.scaling_2w_over_1w``) instead.

    The expected shape: linear through 4 workers (the worker stage is
    the bottleneck), then the I/O engine caps the curve at 8 — shading
    scales out, the NICs do not.
    """
    from dataclasses import replace

    from repro import app_throughput_report
    from repro.apps import build_app
    from repro.calib.constants import SYSTEM
    from repro.core.config import RouterConfig

    routes = 2_000 if quick else 5_000
    apps = {name: build_app(name, routes)[0] for name in ("ipv4", "ipv6")}
    series = []
    bottleneck_8w = ""
    for workers in (1, 2, 4, 8):
        config = RouterConfig(
            use_gpu=True,
            system=replace(
                SYSTEM, num_nodes=1, workers_per_node_gpu_mode=workers
            ),
        )
        row: Dict[str, object] = {"workers": workers}
        for name, app in apps.items():
            report = app_throughput_report(app, 64, use_gpu=True,
                                           config=config)
            row[f"{name}_gbps"] = report.gbps
            row[f"{name}_bottleneck"] = report.bottleneck
            if name == "ipv4" and workers == 8:
                bottleneck_8w = report.bottleneck
        series.append(row)
    by_workers = {row["workers"]: row for row in series}
    for row in series:
        for name in apps:
            row[f"{name}_speedup"] = (
                row[f"{name}_gbps"] / by_workers[1][f"{name}_gbps"]
            )
    return BenchResult(
        series=series,
        headline={
            "ipv4_speedup_4w": by_workers[4]["ipv4_speedup"],
            "ipv6_speedup_4w": by_workers[4]["ipv6_speedup"],
            "ipv4_speedup_8w": by_workers[8]["ipv4_speedup"],
            "ipv4_gbps_8w": by_workers[8]["ipv4_gbps"],
            "ipv4_gbps_1w": by_workers[1]["ipv4_gbps"],
        },
        # Where the linear region ends: shading scales out until the
        # packet I/O engine becomes the ceiling.
        bottleneck=bottleneck_8w,
    )


@bench("extensions", "huge buffers, composition, and VLB scaling",
       kind="extension", x_key="nodes",
       units={"direct_gbps": "Gbps", "classic_gbps": "Gbps"})
def produce_extensions(quick: bool = False) -> BenchResult:
    from repro import app_throughput_report
    from repro.apps import build_app
    from repro.calib.constants import IO_ENGINE, LINUX_STACK
    from repro.core.composite import CompositeApplication
    from repro.core.scaling import VLBCluster, packetshader_vs_rb4

    series = []
    for nodes in (1, 2, 4, 8):
        direct = VLBCluster(num_nodes=nodes, node_capacity_gbps=40.0,
                            mesh_link_gbps=10.0, direct=True)
        classic = VLBCluster(num_nodes=nodes, node_capacity_gbps=40.0,
                             mesh_link_gbps=10.0, direct=False)
        series.append({
            "nodes": nodes,
            "direct_gbps": direct.external_capacity_gbps(),
            "classic_gbps": classic.external_capacity_gbps(),
        })
    comparison = packetshader_vs_rb4()

    composite = CompositeApplication(
        [build_app("ipv4", 1000)[0], build_app("ipsec")[0]]
    )
    composite_gpu = app_throughput_report(composite, 64, use_gpu=True).gbps
    composite_cpu = app_throughput_report(composite, 64, use_gpu=False).gbps

    skb_ratio = LINUX_STACK.total_cycles / IO_ENGINE.rx_only_per_packet_cycles
    return BenchResult(
        series=series,
        headline={
            "skb_engine_ratio": skb_ratio,
            "ps_vs_rb4_ratio": comparison["packetshader_single_box"]
            / comparison["routebricks_rb4"],
            "vlb8_direct_gbps": series[-1]["direct_gbps"],
            "composite_gpu_gbps_64": composite_gpu,
            "composite_speedup_64": composite_gpu / composite_cpu,
        },
        # Classic VLB halves external capacity into the mesh.
        bottleneck="mesh_links"
        if series[-1]["classic_gbps"] < series[-1]["direct_gbps"]
        else "node_capacity",
    )
