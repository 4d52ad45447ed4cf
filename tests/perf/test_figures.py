"""The paper's figures and tables, checked in tier-1.

One module-scoped fixture runs every registered producer once, in quick
mode, through :func:`repro.perf.runner.run_figure` — the pipeline
``python -m repro bench --quick`` runs, minus the writing (that command
is the only writer of ``BENCH_<figure>.json``).  Three checks read the
payloads:

* every figure is within its ``perf/reference.py`` bands and shapes;
* ``test_anchor``: each ref (headline scalar or series cell) is in its
  band; the id names figure, key and x, a failure quotes the note;
* ``SHAPES``: structure only — orderings, bottleneck verdicts,
  saturated cells; no paper number lives here.
"""

from __future__ import annotations

from typing import Callable, Dict

import pytest

from repro.calib.constants import GPU, SYSTEM
from repro.perf.reference import REFERENCE
from repro.perf.registry import figure_ids, get_spec
from repro.perf.runner import MANIFEST_NAME, REPO_ROOT, run_figure
from repro.perf.scoring import measured_value


@pytest.fixture(scope="module")
def payloads() -> Dict[str, Dict[str, object]]:
    return {
        figure: run_figure(get_spec(figure), quick=True)
        for figure in figure_ids()
    }


def rows(payload: Dict[str, object]) -> Dict[object, Dict[str, object]]:
    """A payload's series rows, keyed by their x value."""
    return {row[payload["x_key"]]: row for row in payload["series"]}


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


# -- the reference table -----------------------------------------------

@pytest.mark.parametrize("figure, ref", [
    pytest.param(figure, ref, id=f"{figure}-{ref.id}")
    for figure, figure_ref in sorted(REFERENCE.items()) for ref in figure_ref.refs
])
def test_anchor(payloads, figure, ref):
    """One ref of ``perf/reference.py``: its measured value is in band."""
    payload = payloads[figure]
    value = measured_value(
        ref, payload["series"], payload["headline"], payload["x_key"]
    )
    assert ref.holds(value), (
        f"{figure} {ref.id} = {value}, claim {ref.claim()}: {ref.note}"
    )


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
    # The sweep's own cells agree with the crossover headline.
    assert gpu[320] <= cpu1 * 1.05 and gpu[512] >= cpu1
    assert gpu[640] <= cpu2 * 1.05 and gpu[1024] >= cpu2


@shape("fig5")
def _fig5(payload):
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
        # TX > RX (the dual-IOH asymmetry) > forwarding, with node
        # crossing close behind.
        assert row["tx_gbps"] > row["rx_gbps"] > row["forward_gbps"]
        assert (
            row["forward_gbps"] * 0.97
            <= row["node_crossing_gbps"]
            <= row["forward_gbps"]
        )


@shape("fig11a")
def _fig11a(payload):
    by_size = rows(payload)
    # CPU-only catches up at large frames: both are I/O bound.
    assert by_size[1514]["cpu_gbps"] == pytest.approx(
        by_size[1514]["gpu_gbps"], rel=0.01
    )


@shape("fig11b")
def _fig11b(payload):
    # The GPU win shrinks as frames grow until I/O bounds both modes.
    speedups = [row["speedup"] for row in payload["series"]]
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
    # Worker-bound at 64 B, I/O-bound (IOH displacement) at large frames.
    by_size = rows(payload)
    assert by_size[64]["bottleneck"] == "workers"
    assert by_size[1514]["bottleneck"] == "io"


@shape("fig12")
def _fig12(payload):
    by_load = rows(payload)
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
    headline = payload["headline"]
    p50, p95, p99 = (headline[f"gpu_p{q}_us"] for q in (50, 95, 99))
    assert p50 <= p95 <= p99


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
        # Never above the CPU-only baseline ...
        assert row["degraded_gbps"] <= row["cpu_only_gbps"] * 1.001
        # ... and degradation is real: at small frames the GPU path is
        # faster.
        if row["frame_len"] == 64:
            assert row["clean_gbps"] > row["degraded_gbps"]


@shape("divergence")
def _divergence(payload):
    by_mix = rows(payload)
    baseline = by_mix["single suite"]["sorted_us"]
    assert by_mix["two suites"]["unsorted_us"] > 1.8 * baseline
    assert payload["bottleneck"] == "warp_divergence"


@shape("numa")
def _numa(payload):
    by_config = rows(payload)
    # NUMA-blind hurts the application pipeline too.
    assert by_config["blind"]["app_gbps"] < by_config["aware"]["app_gbps"] * 0.65


@shape("ablations")
def _ablations(payload):
    # Per watt the GPU still wins the memory-intensive workload.
    headline = payload["headline"]
    assert headline["gpu_gbps_per_watt"] > 2 * headline["cpu_gbps_per_watt"]
    assert payload["bottleneck"] == "cpu_memory_bandwidth"


@shape("extensions")
def _extensions(payload):
    for row in payload["series"]:
        assert row["direct_gbps"] >= row["classic_gbps"]
    by_nodes = rows(payload)
    assert by_nodes[8]["direct_gbps"] > by_nodes[1]["direct_gbps"]


@shape("scaling")
def _scaling(payload):
    by_workers = rows(payload)
    for app in ("ipv4", "ipv6"):
        # Worker-bound at 1, something else by 8.
        assert by_workers[1][f"{app}_bottleneck"] == "workers"
        assert by_workers[8][f"{app}_bottleneck"] != "workers"
    # The I/O engine caps the curve.
    assert payload["bottleneck"] == "io"


@shape("workloads")
def _workloads(payload):
    for row in payload["series"]:
        assert row["conservation_ok"], row["scenario"]


@pytest.mark.parametrize("figure", sorted(SHAPES))
def test_shape(payloads, figure):
    SHAPES[figure](payloads[figure])
