"""The event-driven latency simulator, cross-validated with the analytic
model of repro.core.solver."""

import pytest

from repro.apps.ipv6 import IPv6Forwarder
from repro.core.solver import app_latency_ns
from repro.gen.workloads import ipv6_workload
from repro.sim.latency import LatencySimulator, LatencyStats
from repro.sim.metrics import gbps_to_pps


@pytest.fixture(scope="module")
def app():
    return IPv6Forwarder(ipv6_workload(num_routes=300, seed=91).table)


def simulate(app, gbps, use_gpu=True, batching=True, seed=1):
    simulator = LatencySimulator(app, 64, use_gpu=use_gpu, batching=batching,
                                 seed=seed)
    return simulator.run(gbps_to_pps(gbps, 64), duration_ns=8e6, warmup_ns=2e6)


class TestStats:
    def test_empty_stats_are_nan(self):
        import math

        stats = LatencyStats()
        assert math.isnan(stats.mean_ns)
        assert math.isnan(stats.percentile_ns(0.5))

    def test_percentiles_ordered(self, app):
        stats = simulate(app, 8)
        assert stats.percentile_ns(0.5) <= stats.percentile_ns(0.99)
        assert stats.count > 1000


class TestCrossValidation:
    """The simulation is the ground truth for the analytic shortcuts;
    they must agree within a factor of ~2 across the load range and
    share every qualitative feature."""

    @pytest.mark.parametrize("gbps", [2, 8, 12, 20, 28])
    def test_gpu_mode_within_2x_of_analytic(self, app, gbps):
        measured = simulate(app, gbps).mean_ns
        analytic = app_latency_ns(
            app, 64, gbps_to_pps(gbps, 64), use_gpu=True, round_trip=False
        )
        assert analytic / 2.2 <= measured <= analytic * 2.2

    def test_cpu_mode_same_order(self, app):
        measured = simulate(app, 2, use_gpu=False).mean_ns
        analytic = app_latency_ns(
            app, 64, gbps_to_pps(2, 64), use_gpu=False, round_trip=False
        )
        assert analytic / 3 <= measured <= analytic * 3

    def test_gpu_latency_exceeds_cpu_latency(self, app):
        gpu = simulate(app, 2, use_gpu=True).mean_ns
        cpu = simulate(app, 2, use_gpu=False).mean_ns
        assert gpu > 2 * cpu

    def test_latency_rises_toward_saturation(self, app):
        mid = simulate(app, 8).mean_ns
        high = simulate(app, 28).mean_ns
        assert high > mid

    def test_moderation_hump_at_low_load(self, app):
        low = simulate(app, 0.5, use_gpu=False).mean_ns
        mid = simulate(app, 4, use_gpu=False).mean_ns
        assert low > mid


class TestMechanics:
    def test_adaptive_batching_under_load(self, app):
        """Higher load must produce larger GPU launches (the Section 5.3
        adaptive balance), observable as sub-linear growth in launch
        count."""
        low_sim = LatencySimulator(app, 64, use_gpu=True)
        low_sim.run(gbps_to_pps(2, 64), duration_ns=6e6, warmup_ns=1e6)
        high_sim = LatencySimulator(app, 64, use_gpu=True)
        high_sim.run(gbps_to_pps(24, 64), duration_ns=6e6, warmup_ns=1e6)
        low_batch = low_sim.master.launched_packets / max(1, low_sim.master.launches)
        high_batch = high_sim.master.launched_packets / max(1, high_sim.master.launches)
        assert high_batch > 4 * low_batch

    def test_no_packet_lost(self, app):
        """Below saturation, everything offered eventually departs."""
        simulator = LatencySimulator(app, 64, use_gpu=True, seed=7)
        stats = simulator.run(gbps_to_pps(10, 64), duration_ns=5e6, warmup_ns=0)
        backlog = sum(len(w.queue) for w in simulator.workers)
        backlog += sum(len(c.packets) for c in simulator.master.input)
        offered = stats.count + backlog
        # The tail still in flight is bounded by a few batches.
        assert backlog < 0.15 * offered

    def test_unbatched_mode_has_unit_batches(self, app):
        simulator = LatencySimulator(app, 64, use_gpu=False, batching=False)
        assert simulator.chunk_cap == 1
        stats = simulator.run(gbps_to_pps(1, 64), duration_ns=3e6, warmup_ns=1e6)
        assert stats.count > 100

    def test_gpu_without_batching_rejected(self, app):
        with pytest.raises(ValueError):
            LatencySimulator(app, 64, use_gpu=True, batching=False)

    def test_zero_load_rejected(self, app):
        with pytest.raises(ValueError):
            LatencySimulator(app, 64).run(0)

    def test_deterministic_per_seed(self, app):
        first = simulate(app, 8, seed=3).mean_ns
        second = simulate(app, 8, seed=3).mean_ns
        assert first == second
