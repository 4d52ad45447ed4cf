"""The paper's figures and tables, checked in tier-1.

One module-scoped fixture runs every registered producer once, in quick
mode, through :func:`repro.perf.runner.run_figure` — the pipeline
``python -m repro bench --quick`` runs, minus the writing (that command
is the only writer of ``BENCH_<figure>.json``).  Three checks read the
payloads:

* every figure is within its ``perf/reference.py`` tolerance;
* ``ANCHORS``: one row per number a figure must hit, at the tolerance
  its claim was written with (tighter than reference.py's in places);
* ``SHAPES``: one function per figure for the qualitative claims —
  monotone curves, orderings, bottleneck verdicts, saturation cells.
"""

from __future__ import annotations

from typing import Callable, Dict

import pytest

from repro.calib.constants import GPU, SYSTEM
from repro.perf.registry import figure_ids, get_spec
from repro.perf.runner import MANIFEST_NAME, REPO_ROOT, run_figure


@pytest.fixture(scope="module")
def payloads() -> Dict[str, Dict[str, object]]:
    return {
        figure: run_figure(get_spec(figure), quick=True)
        for figure in figure_ids()
    }


def rows(payload: Dict[str, object]) -> Dict[object, Dict[str, object]]:
    """A payload's series rows, keyed by their x value."""
    return {row[payload["x_key"]]: row for row in payload["series"]}


def column(payload: Dict[str, object], key: str) -> list:
    return [row[key] for row in payload["series"]]


def test_committed_artifacts_are_the_registry():
    """No artifact outlives its spec, and no spec lacks its artifact."""
    on_disk = sorted(path.name for path in REPO_ROOT.glob("BENCH_*.json"))
    expected = [f"BENCH_{figure}.json" for figure in figure_ids()]
    assert on_disk == sorted(expected + [MANIFEST_NAME])


@pytest.mark.parametrize("figure", figure_ids())
def test_within_tolerance(payloads, figure):
    divergence = payloads[figure]["divergence"]
    assert divergence is not None, f"{figure}: no reference scored"
    assert divergence["within_tol"], (
        f"{figure}: out of tolerance vs {divergence['source']} "
        f"(fidelity {divergence['fidelity']}, "
        f"max rel error {divergence['max_rel_error']})"
    )


# -- anchors ------------------------------------------------------------


def anchor(figure, key, expected, x=None, rel=None, abs=None):
    """One anchor: series cell ``key`` at ``x``, or headline ``key``."""
    where = key if x is None else f"{key}@{x}"
    return pytest.param(
        figure, key, x, pytest.approx(expected, rel=rel, abs=abs),
        id=f"{figure}-{where}",
    )


EXACT = {"rel": 0, "abs": 0}

# Table 1 (MB/s): bytes -> (host-to-device, device-to-host).
TABLE1 = {
    256: (55, 63),
    1024: (185, 211),
    4096: (759, 786),
    16384: (2069, 1743),
    65536: (4046, 2848),
    262144: (5142, 3242),
    1048576: (5577, 3394),
}

# Table 3: functional bin -> share of RX cycles.
TABLE3 = {
    "skb initialization": 0.049,
    "skb (de)allocation": 0.080,
    "memory subsystem": 0.502,
    "NIC device driver": 0.133,
    "others": 0.098,
    "compulsory cache misses": 0.138,
}

ANCHORS = [
    # Figure 5: 0.78 Gbps packet by packet, 10.5 at batch 64, x13.5.
    anchor("fig5", "gbps", 0.78, x=1, rel=0.02),
    anchor("fig5", "gbps", 10.5, x=64, rel=0.02),
    anchor("fig5", "speedup_64", 13.5, rel=0.03),
    # Figure 6: RX / TX / forwarding, and 58.4 Mpps minimal forwarding.
    anchor("fig6", "rx_gbps", 53.1, x=64, rel=0.02),
    anchor("fig6", "tx_gbps", 79.3, x=64, rel=0.02),
    anchor("fig6", "forward_gbps", 41.1, x=64, rel=0.03),
    anchor("fig6", "rx_gbps", 59.9, x=1514, rel=0.02),
    anchor("fig6", "tx_gbps", 80.0, x=1514, rel=0.02),
    anchor("fig6", "forward_gbps", 40.0, x=1514, rel=0.03),
    anchor("fig6", "forward_mpps_64", 58.4, rel=0.02),
    # Figure 11: 39 / 38.2 / 32 / 10.2 Gbps with the GPU.
    anchor("fig11a", "gpu_gbps", 39.0, x=64, rel=0.02),
    anchor("fig11a", "cpu_gbps", 28.0, x=64, rel=0.05),
    anchor("fig11b", "gpu_gbps", 38.2, x=64, rel=0.03),
    anchor("fig11b", "cpu_gbps", 8.0, x=64, rel=0.10),
    anchor("fig11c", "gpu_gbps", 32.0, x="32K+32", rel=0.03),
    anchor("fig11c", "netfpga_equivalents", 8.0, rel=0.05),
    anchor("fig11d", "gpu_gbps", 10.2, x=64, rel=0.10),
    # Table 1 and the Section 2.2 kernel-launch microbenchmark.
    *(
        anchor("table1", key, mbps, x=size, rel=0.20)
        for size, pair in TABLE1.items()
        for key, mbps in zip(("h2d_mbps", "d2h_mbps"), pair)
    ),
    anchor("table1", "launch_us_1thread", 3.8, rel=0.01),
    anchor("table1", "launch_us_4096threads", 4.1, rel=0.01),
    # Table 2.
    anchor("table2", "total_cost_usd", 7000, rel=0.05),
    anchor("table2", "gpu_cores", 480, **EXACT),
    anchor("table2", "total_ports", 8, **EXACT),
    # Table 3: skb-related operations take 63.1% of the cycles.
    *(anchor("table3", "share", share, x=name, abs=0.01)
      for name, share in TABLE3.items()),
    anchor("table3", "skb_related_share", 0.631, abs=0.01),
    # Section 4.5: NUMA-aware +60%.
    anchor("numa", "aware_over_blind", 1.6, rel=0.05),
    # Section 7 and Section 2.4: $/GHz, power, memory-level parallelism,
    # 177.4 vs 32 GB/s.
    anchor("ablations", "usd_per_ghz", 23, x="single-socket", rel=0.05),
    anchor("ablations", "usd_per_ghz", 87, x="dual-socket", rel=0.05),
    anchor("ablations", "usd_per_ghz", 183, x="quad-socket", rel=0.05),
    anchor("ablations", "power_increase", 0.68, abs=0.01),
    anchor("ablations", "mshr_one_core", 6.0),
    anchor("ablations", "mshr_all_cores", 4.0),
    anchor("ablations", "gpu_bw_ratio", 5.54, rel=0.01),
    # Sections 7-8: an 8-node VLB cluster of PacketShaders.
    anchor("extensions", "vlb8_direct_gbps", 160.0, rel=0.05),
    # The healthy mix sheds nothing; ddos fills the flow table exactly.
    anchor("workloads", "shed_share", 0.0, x="heavy-tail", **EXACT),
    anchor("workloads", "table_occupancy", 1.0, x="ddos", **EXACT),
]


@pytest.mark.parametrize("figure, key, x, expected", ANCHORS)
def test_anchor(payloads, figure, key, x, expected):
    payload = payloads[figure]
    actual = payload["headline"][key] if x is None else rows(payload)[x][key]
    assert actual == expected


# -- shapes -------------------------------------------------------------

SHAPES: Dict[str, Callable[[Dict[str, object]], None]] = {}


def shape(figure: str):
    def register(check):
        SHAPES[figure] = check
        return check

    return register


@shape("fig2")
def _fig2(payload):
    by_batch = rows(payload)
    gpu = {batch: row["gpu_mpps"] for batch, row in by_batch.items()}
    cpu1, cpu2 = by_batch[32]["cpu1_mpps"], by_batch[32]["cpu2_mpps"]
    # GPU throughput proportional to the level of parallelism.
    assert gpu[16384] > gpu[1024] > gpu[128] > gpu[32]
    # Crossing one X5550 past ~320 packets, two past ~640.
    assert gpu[320] <= cpu1 * 1.05 and gpu[512] >= cpu1
    assert gpu[640] <= cpu2 * 1.05 and gpu[1024] >= cpu2
    # Peak "comparable to about ten X5550 processors".
    assert 7.5 <= payload["headline"]["peak_vs_1cpu"] <= 11.0


@shape("fig5")
def _fig5(payload):
    gbps = column(payload, "gbps")
    assert gbps == sorted(gbps)
    # The gain stalls past batch 32.
    by_batch = rows(payload)
    assert by_batch[128]["gbps"] / by_batch[64]["gbps"] < 1.15
    # Prefetch and the Section 4.4 queue alignment each pay.
    headline = payload["headline"]
    assert headline["cycles_no_prefetch"] > headline["cycles_optimized"]
    assert headline["cycles_unaligned_8core"] == pytest.approx(
        headline["cycles_optimized"] * 1.2, rel=0.01
    )


@shape("fig6")
def _fig6(payload):
    for row in payload["series"]:
        # TX > RX (the dual-IOH asymmetry) > forwarding, which stays at
        # 40 Gbps with node crossing close behind.
        assert row["tx_gbps"] > row["rx_gbps"] > row["forward_gbps"] >= 39.9
        assert (
            row["forward_gbps"] * 0.97
            <= row["node_crossing_gbps"]
            <= row["forward_gbps"]
        )


@shape("fig11a")
def _fig11a(payload):
    by_size = rows(payload)
    # Close to the 40 Gbps maximum for every size past 64 B.
    for size, row in by_size.items():
        if size > 64:
            assert row["gpu_gbps"] >= 39.5
    # CPU-only catches up at large frames: both are I/O bound.
    assert by_size[1514]["cpu_gbps"] == pytest.approx(
        by_size[1514]["gpu_gbps"], rel=0.01
    )


@shape("fig11b")
def _fig11b(payload):
    # The largest GPU win of the four applications, shrinking as
    # frames grow until I/O bounds both modes.
    assert rows(payload)[64]["speedup"] > 4.0
    speedups = column(payload, "speedup")
    for earlier, later in zip(speedups, speedups[1:]):
        assert later <= earlier * 1.02


@shape("fig11c")
def _fig11c(payload):
    by_config = rows(payload)
    # "CPU+GPU mode outperforms CPU-only mode for all configurations."
    for row in payload["series"]:
        assert row["gpu_gbps"] > row["cpu_gbps"]
    # Wildcard growth devastates the CPU and barely dents the GPU.
    small, large = by_config["32K+32"], by_config["32K+512"]
    assert large["cpu_gbps"] < small["cpu_gbps"] / 3
    assert large["gpu_gbps"] > small["gpu_gbps"] * 0.9
    assert large["speedup"] > by_config["1K+32"]["speedup"] * 3


@shape("fig11d")
def _fig11d(payload):
    by_size = rows(payload)
    gpu = column(payload, "gpu_gbps")
    assert gpu == sorted(gpu)
    assert 18.0 <= by_size[1514]["gpu_gbps"] <= 24.0
    # "by a factor of 3.5, regardless of packet sizes".
    for speedup in column(payload, "speedup"):
        assert 3.0 <= speedup <= 5.2
    # RouteBricks: 1.9 Gbps at 64 B, 6.1 at large frames.
    assert by_size[64]["gpu_gbps"] / 1.9 > 5.0
    assert by_size[1514]["gpu_gbps"] / 6.1 > 3.0


@shape("fig12")
def _fig12(payload):
    by_load = rows(payload)
    # The GPU path runs 200-400 us across the measured range.
    for us in column(payload, "gpu_us"):
        assert us is not None and 150 < us < 450
    # GPU transactions cost latency where the CPU modes coexist.
    for gbps in (1, 2, 3):
        row = by_load[gbps]
        assert row["gpu_us"] > max(row["cpu_batch_us"], row["cpu_nobatch_us"])
    # Saturation (None): no-batch dies past 3 Gbps, CPU+batch past 7.5.
    assert by_load[3]["cpu_nobatch_us"] is not None
    assert by_load[4]["cpu_nobatch_us"] is None
    assert by_load[7.5]["cpu_batch_us"] is not None
    assert by_load[12]["cpu_batch_us"] is None
    # The low-load interrupt-moderation hump.
    assert by_load[0.5]["cpu_batch_us"] > by_load[6]["cpu_batch_us"]
    assert by_load[0.5]["gpu_us"] > by_load[12]["gpu_us"]
    # The event simulator's sojourn tail at 12 Gbps.
    headline = payload["headline"]
    p50, p95, p99 = (headline[f"gpu_p{q}_us"] for q in (50, 95, 99))
    assert 100 < p50 < 500
    assert p50 <= p95 <= p99 < 1000


@shape("table1")
def _table1(payload):
    for row in payload["series"]:
        assert row["d2h_mbps"] <= row["h2d_mbps"] * 1.25
    assert payload["bottleneck"] == "d2h_path"


@shape("table2")
def _table2(payload):
    headline = payload["headline"]
    assert headline["gpu_cores"] == GPU.total_cores
    assert headline["cpu_cores"] == SYSTEM.num_nodes * 4
    # Section 7: GPU compute is far cheaper than another CPU.
    by_item = rows(payload)
    assert by_item["GPU"]["unit_usd"] < by_item["CPU"]["unit_usd"]


@shape("table3")
def _table3(payload):
    assert payload["bottleneck"] == "memory subsystem"


@shape("degraded")
def _degraded(payload):
    for row in payload["series"]:
        # Within 10% of the CPU-only baseline, and never above it.
        assert row["ratio"] >= 0.9, row["case"]
        assert row["degraded_gbps"] <= row["cpu_only_gbps"] * 1.001
        # Degradation is real: at small frames the GPU path is faster.
        if row["frame_len"] == 64:
            assert row["clean_gbps"] > row["degraded_gbps"]
    assert payload["headline"]["min_ratio"] >= 0.9


@shape("divergence")
def _divergence(payload):
    by_mix = rows(payload)
    baseline = by_mix["single suite"]["sorted_us"]
    # Sorting recovers (almost) all of the mixed-suite penalty.
    assert by_mix["four suites"]["unsorted_us"] > 3.5 * baseline
    assert by_mix["four suites"]["sorted_us"] < 1.2 * baseline
    assert by_mix["two suites"]["unsorted_us"] > 1.8 * baseline
    assert payload["bottleneck"] == "warp_divergence"


@shape("numa")
def _numa(payload):
    by_config = rows(payload)
    # Blind stays below 25 Gbps and hurts the application pipeline too.
    assert by_config["blind"]["io_gbps"] < 25.5
    assert by_config["blind"]["app_gbps"] < by_config["aware"]["app_gbps"] * 0.65


@shape("ablations")
def _ablations(payload):
    usd = column(payload, "usd_per_ghz")
    assert usd == sorted(usd)
    # Per watt the GPU still wins the memory-intensive workload.
    headline = payload["headline"]
    assert headline["gpu_gbps_per_watt"] > 2 * headline["cpu_gbps_per_watt"]
    assert payload["bottleneck"] == "cpu_memory_bandwidth"


@shape("extensions")
def _extensions(payload):
    headline = payload["headline"]
    # An order of magnitude off the Linux skb path (Section 4).
    assert headline["skb_engine_ratio"] > 10
    # IPv4 + IPsec composite: several-fold from the GPU, bounded by
    # the heavier stage.
    assert headline["composite_speedup_64"] > 3
    assert headline["composite_gpu_gbps_64"] < 12.0
    # "PacketShader could replace RB4 ... with better performance."
    assert headline["ps_vs_rb4_ratio"] > 1.0
    for row in payload["series"]:
        assert row["direct_gbps"] >= row["classic_gbps"]
    by_nodes = rows(payload)
    assert by_nodes[8]["direct_gbps"] > by_nodes[1]["direct_gbps"]


@shape("scaling")
def _scaling(payload):
    headline = payload["headline"]
    by_workers = rows(payload)
    for app in ("ipv4", "ipv6"):
        # Near-linear through 4 workers, monotone throughout.
        assert headline[f"{app}_speedup_4w"] >= 3.0
        curve = column(payload, f"{app}_gbps")
        assert curve == sorted(curve)
        # Worker-bound at 1, something else by 8.
        assert by_workers[1][f"{app}_bottleneck"] == "workers"
        assert by_workers[8][f"{app}_bottleneck"] != "workers"
    # Sub-linear by 8: the I/O engine caps the curve.
    assert headline["ipv4_speedup_8w"] < 8.0
    assert payload["bottleneck"] == "io"


@shape("workloads")
def _workloads(payload):
    for row in payload["series"]:
        assert row["conservation_ok"], row["scenario"]
        assert row["goodput"] >= 0.9, row["scenario"]
        assert row["slo_headroom"] > 1.0, row["scenario"]
    # The floods actually shed.
    by_scenario = rows(payload)
    assert by_scenario["syn-flood"]["shed_share"] > 0.1
    assert by_scenario["ddos"]["shed_share"] > 0.1
    assert payload["headline"]["min_goodput"] >= 0.9


@pytest.mark.parametrize("figure", sorted(SHAPES))
def test_shape(payloads, figure):
    SHAPES[figure](payloads[figure])
