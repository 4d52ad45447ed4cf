"""Chaos suite: conservation and graceful degradation under every fault.

The two load-bearing assertions of the resilience work
(docs/RESILIENCE.md):

* **packet conservation** — ``received == forwarded + dropped +
  slow_path`` holds *exactly* in every scenario, and ingress accounting
  closes with shedding attributed
  (``injected == rx_dropped + rx_shed + received``);
* **graceful degradation** — with the breaker open the router still
  forwards, correctly, and its modelled capacity is within 10% of the
  Figure 11 CPU-only baseline (it degrades to the paper's CPU-only
  path, it does not collapse).
"""

import hashlib
import json

import pytest

from repro.apps.ipv4 import IPv4Forwarder
from repro.core.framework import PacketShader
from repro.core.solver import app_throughput_report, degraded_throughput_report
from repro.faults import (
    ALL_SITES,
    BreakerState,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    Sites,
)
from repro.faults.scenarios import SCENARIOS, run_scenario
from repro.gen.workloads import ipv4_workload
from repro.obs import Stages, get_registry, get_tracer, reset_registry, reset_tracer

SEEDS = (1, 2, 3)

#: sha256 of ``json.dumps(run_scenario(name, seed=1, packets=512).to_dict(),
#: sort_keys=True)``.  Any change to a scenario's traffic, wiring or
#: accounting moves its digest.
REPORT_DIGESTS = {
    "breaker":
        "0d411978383db8eb7d619b6d4c0aaebf9f8bbed529c78fb68c111ad33e490f6d",
    "chaos":
        "21b250a46cbea947c88c7fa90796700f792553ebce987ff4ab316f0344755b50",
    "ddos":
        "cc6dfd4db24854b6147cbcafa20d0f2690c93e3aef72b941c995fd4c9ccab43d",
    "dma-error":
        "a6db7868b424ea633e7d3567afb3075393c0aebf611bc153470c7f839c529b00",
    "gpu-failure":
        "0819f4ca81e5bd8bf557bae781f501fb324e303359a36bb6f163d3018a72af77",
    "gpu-timeout":
        "fb005481fb0faaecd2d48669525dfaaf80d2c0fdd01092384a22f53ec1960fa3",
    "heavy-tail":
        "f588572709006528dd30a9579dfc699938a649efcdcdd08c52becb609807b5e1",
    "malformed":
        "462c4f535b607d4d73a84a61f5940897fda1a8ec4dcf2b60879c3da32f5f4700",
    "queue-overflow":
        "dce1699da4611cbbf598d6201257fb2bd20f2a6d72323521523083f2e5f6e5e4",
    "rx-overflow":
        "c1973b31de2dae9d329f52f4fbaa3a45b18b6c498a15dcb575a5572e781bc10f",
    "syn-flood":
        "87fb2aabbdbe30589acc05786e4fee043c7af920a384627113bf85c737e0fbda",
}


@pytest.fixture(autouse=True)
def fresh_obs():
    reset_registry()
    reset_tracer()
    yield
    reset_registry()
    reset_tracer()


def fired_sites(scenarios, seed=1, packets=512):
    """Sites with a non-zero ``faults_fired`` count in any of the named
    scenarios' runs."""
    return {
        site
        for name in sorted(scenarios)
        for site, count in run_scenario(
            name, seed=seed, packets=packets
        ).faults_fired.items()
        if count
    }


def _router(plan=None, retry_policy=None):
    workload = ipv4_workload(num_routes=5_000, seed=81)
    router = PacketShader(
        IPv4Forwarder(workload.table),
        fault_injector=plan.injector() if plan else None,
        retry_policy=retry_policy,
    )
    return router, workload


class TestScenarioConservation:
    """Every canned scenario, every fixed seed: conservation is exact."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_conservation_exact(self, name, seed):
        report = run_scenario(name, seed=seed, packets=512)
        assert report.received == (
            report.forwarded + report.dropped + report.slow_path
        ), f"{name} seed {seed}: router accounting leaked packets"
        assert report.injected == (
            report.rx_dropped + report.rx_shed + report.received
        ), f"{name} seed {seed}: ingress accounting leaked packets"

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_deterministic_replay(self, name):
        first = run_scenario(name, seed=2, packets=256).to_dict()
        reset_registry()
        reset_tracer()
        second = run_scenario(name, seed=2, packets=256).to_dict()
        assert first == second

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_report_is_pinned(self, name):
        report = run_scenario(name, seed=1, packets=512).to_dict()
        digest = hashlib.sha256(
            json.dumps(report, sort_keys=True).encode()
        ).hexdigest()
        assert digest == REPORT_DIGESTS[name], report

    def test_faults_actually_fire(self):
        report = run_scenario("chaos", seed=1, packets=512)
        assert sum(report.faults_fired.values()) > 0

    def test_every_site_fires_in_some_scenario(self):
        # Each Sites member is wired into its layer *and* scheduled by a
        # scenario: the canned set fires all of them.
        assert fired_sites(SCENARIOS) == set(ALL_SITES)

    def test_registry_mirrors_router_stats(self):
        report = run_scenario("gpu-failure", seed=1, packets=512)
        registry = get_registry()
        assert registry.counter("router.received_packets").value == report.received
        assert registry.counter("router.forwarded_packets").value == report.forwarded
        assert registry.counter("router.dropped_packets").value == report.dropped
        assert registry.counter("router.gpu_retries").value == report.gpu_retries


class TestRetryLadder:
    """Rung 1: transient launch failures are absorbed by retries."""

    def test_one_transient_failure_costs_nothing(self):
        plan = FaultPlan(seed=1, rules=(
            FaultRule(site=Sites.GPU_LAUNCH, probability=1.0, max_fires=1),
        ))
        router, workload = _router(plan)
        clean_router, _ = _router()
        frames = workload.generator.ipv4_burst(256)
        router.process_frames([bytearray(f) for f in frames])
        clean_router.process_frames([bytearray(f) for f in frames])
        assert router.stats.gpu_retries == 1
        assert router.stats.gpu_failures == 0
        assert router.stats.degraded_chunks == 0
        assert router.stats.forwarded == clean_router.stats.forwarded
        assert not router.degraded_mode

    def test_backoff_charged_to_tracer(self):
        plan = FaultPlan(seed=1, rules=(
            FaultRule(site=Sites.GPU_LAUNCH, probability=1.0, max_fires=1),
        ))
        policy = RetryPolicy(backoff_base_ns=7_000.0)
        router, workload = _router(plan, retry_policy=policy)
        router.process_frames(workload.generator.ipv4_burst(64))
        gpu = get_tracer().stage(Stages.GPU)
        assert gpu is not None
        assert gpu.ns >= 7_000.0

    def test_dma_errors_ride_the_same_ladder(self):
        plan = FaultPlan(seed=1, rules=(
            FaultRule(site=Sites.PCIE_DMA, probability=1.0, max_fires=2),
        ))
        router, workload = _router(plan)
        router.process_frames(workload.generator.ipv4_burst(256))
        stats = router.stats
        assert stats.gpu_retries == 2
        assert stats.received == stats.forwarded + stats.dropped + stats.slow_path


class TestBreakerDegradation:
    """Rungs 2-3: persistent failure opens the breaker; results stay right."""

    def _hard_failure_plan(self, max_fires=0):
        return FaultPlan(seed=1, rules=(
            FaultRule(site=Sites.GPU_LAUNCH, probability=1.0, max_fires=max_fires),
        ))

    def test_breaker_opens_and_output_matches_clean_run(self):
        router, workload = _router(self._hard_failure_plan())
        clean_router, _ = _router()
        frames = workload.generator.ipv4_burst(512)
        egress = router.process_frames([bytearray(f) for f in frames])
        clean = clean_router.process_frames([bytearray(f) for f in frames])
        assert router.degraded_mode
        assert router.stats.gpu_failures > 0
        assert router.stats.degraded_chunks > 0
        # The CPU fallback computes the same verdicts the GPU would have.
        assert router.stats.forwarded == clean_router.stats.forwarded
        assert router.stats.dropped == clean_router.stats.dropped
        assert sorted(egress) == sorted(clean)
        for port in clean:
            assert [bytes(f) for f in egress[port]] == [
                bytes(f) for f in clean[port]
            ]

    def test_open_breaker_routes_fresh_chunks_to_cpu_path(self):
        router, workload = _router(self._hard_failure_plan())
        router.process_frames(workload.generator.ipv4_burst(512))
        assert router.degraded_mode
        launches_when_open = router.stats.gpu_launches
        before = router.stats.degraded_chunks
        router.process_frames(workload.generator.ipv4_burst(256))
        assert router.stats.degraded_chunks > before
        # Probes may try the device, but the bulk must bypass it.
        assert router.stats.gpu_launches == launches_when_open
        cpu = get_tracer().stage(Stages.CPU_PROCESS)
        assert cpu is not None and cpu.packets > 0

    def test_breaker_reenables_after_device_recovers(self):
        # Enough fires to open the breaker, then the device heals.
        router, workload = _router(self._hard_failure_plan(max_fires=12))
        for _ in range(8):
            router.process_frames(workload.generator.ipv4_burst(256))
        node0 = router.breakers[0]
        assert node0.opens >= 1
        assert node0.closes >= 1, "a successful probe should close the breaker"
        assert node0.state is BreakerState.CLOSED
        assert not router.degraded_mode
        # Healthy again: fresh traffic launches on the GPU.
        before = router.stats.gpu_launches
        router.process_frames(workload.generator.ipv4_burst(128))
        assert router.stats.gpu_launches > before

    def test_degraded_capacity_within_10pct_of_cpu_baseline(self):
        workload = ipv4_workload(num_routes=5_000, seed=81)
        app = IPv4Forwarder(workload.table)
        baseline = app_throughput_report(app, 64, use_gpu=False).gbps
        degraded = degraded_throughput_report(app, 64).gbps
        assert degraded >= 0.9 * baseline
        assert degraded <= 1.05 * baseline  # degraded is not magically faster

    def test_degraded_conservation(self):
        router, workload = _router(self._hard_failure_plan())
        for _ in range(3):
            router.process_frames(workload.generator.ipv4_burst(300))
        stats = router.stats
        assert stats.received == 900
        assert stats.received == stats.forwarded + stats.dropped + stats.slow_path


class TestBackpressure:
    """A wedged master queue sheds with explicit accounting, never spins."""

    def test_shed_packets_are_counted_once(self):
        plan = FaultPlan(seed=1, rules=(
            FaultRule(site=Sites.MASTER_QUEUE_OVERFLOW, probability=1.0),
        ))
        router, workload = _router(plan)
        frames = workload.generator.ipv4_burst(300)
        router.process_frames([bytearray(f) for f in frames])
        stats = router.stats
        assert stats.backpressure_drops > 0
        assert stats.backpressure_drops <= stats.dropped
        assert stats.received == stats.forwarded + stats.dropped + stats.slow_path
        registry = get_registry()
        assert (
            registry.counter("router.backpressure_drops").value
            == stats.backpressure_drops
        )

    def test_watchdog_surfaces_the_stall(self):
        plan = FaultPlan(seed=1, rules=(
            FaultRule(site=Sites.MASTER_QUEUE_OVERFLOW, probability=1.0),
        ))
        router, workload = _router(plan)
        router.process_frames(workload.generator.ipv4_burst(300))
        assert router.watchdog.stalls > 0
        assert get_registry().counter("faults.watchdog_stalls").value > 0

    def test_intermittent_overflow_loses_nothing(self):
        """Occasional refusals are absorbed by the drain-retry rounds."""
        plan = FaultPlan(seed=5, rules=(
            FaultRule(site=Sites.MASTER_QUEUE_OVERFLOW, probability=0.2),
        ))
        router, workload = _router(plan)
        clean_router, _ = _router()
        frames = workload.generator.ipv4_burst(400)
        router.process_frames([bytearray(f) for f in frames])
        clean_router.process_frames([bytearray(f) for f in frames])
        assert router.stats.backpressure_drops == 0
        assert router.stats.forwarded == clean_router.stats.forwarded


class TestTimeoutStragglers:
    def test_timeout_charges_device_time_and_recovers(self):
        plan = FaultPlan(seed=1, rules=(
            FaultRule(site=Sites.GPU_TIMEOUT, probability=1.0, max_fires=1),
        ))
        router, workload = _router(plan)
        router.process_frames(workload.generator.ipv4_burst(256))
        stats = router.stats
        assert stats.gpu_retries == 1
        assert stats.received == stats.forwarded + stats.dropped + stats.slow_path
        device = router.nodes[0].gpu
        assert device.launch_errors == 1
        # The straggler's wasted watchdog budget is real busy time.
        assert device.busy_ns > 0
