"""Conservation invariant: RouterStats and the obs registry agree.

Every packet entering the workflow leaves with exactly one verdict —
``received == forwarded + dropped + slow_path`` — and the observability
layer mirrors each RouterStats field at the same increment sites, so
the two views can never drift.  A mixed IPv4 burst (routed, unrouted,
TTL-expired, non-IP) exercises all three verdicts in one run.
"""

import pytest

from repro import IPv4Forwarder, PacketShader, RouterConfig
from repro.core.slowpath import SlowPathHandler
from repro.gen.workloads import ipv4_workload
from repro.net.packet import build_udp_ipv4
from repro.obs import Stages, get_registry, get_tracer, reset_registry, reset_tracer


def _mixed_burst(workload, n_routed=300, n_ttl_expired=30, n_non_ip=10):
    """Random-destination frames plus guaranteed slow-path traffic."""
    frames = workload.generator.ipv4_burst(n_routed)
    for i in range(n_ttl_expired):
        frames.append(build_udp_ipv4(
            src_ip=0x0A000001 + i, dst_ip=0xC0A80001 + i,
            src_port=2000 + i, dst_port=53, ttl=1,
        ))
    for _ in range(n_non_ip):
        arp = bytearray(64)
        arp[12:14] = (0x0806).to_bytes(2, "big")
        frames.append(arp)
    return frames


@pytest.fixture(params=[True, False], ids=["gpu", "cpu-only"])
def traced_run(request):
    """One mixed run on fresh obs state; yields (router, total frames)."""
    reset_registry()
    reset_tracer()
    workload = ipv4_workload(num_routes=5000, seed=81)
    router = PacketShader(
        IPv4Forwarder(workload.table),
        RouterConfig(use_gpu=request.param),
        slow_path=SlowPathHandler(),
    )
    frames = _mixed_burst(workload)
    router.process_frames([bytearray(f) for f in frames])
    yield router, len(frames)
    reset_registry()
    reset_tracer()


class TestConservation:
    def test_every_verdict_exercised(self, traced_run):
        router, _ = traced_run
        assert router.stats.forwarded > 0
        assert router.stats.dropped > 0
        assert router.stats.slow_path >= 40  # the crafted frames at least

    def test_stats_conserve_packets(self, traced_run):
        router, total = traced_run
        stats = router.stats
        assert stats.received == total
        assert stats.received == stats.forwarded + stats.dropped + stats.slow_path
        assert stats.accounted == stats.received

    def test_registry_mirrors_router_stats(self, traced_run):
        router, _ = traced_run
        stats = router.stats
        registry = get_registry()
        assert registry.value("router.received_packets") == stats.received
        assert registry.value("router.forwarded_packets") == stats.forwarded
        assert registry.value("router.dropped_packets") == stats.dropped
        assert registry.value("router.slow_path_packets") == stats.slow_path
        assert registry.value("router.chunks") == stats.chunks
        assert registry.value("router.gpu_launches") == stats.gpu_launches
        assert registry.value("router.kernel_calls") == stats.kernel_calls
        assert registry.value("router.gathered_chunks") == stats.gathered_chunks

    def test_registry_conserves_packets(self, traced_run):
        _, total = traced_run
        registry = get_registry()
        assert registry.value("router.received_packets") == total == (
            registry.value("router.forwarded_packets")
            + registry.value("router.dropped_packets")
            + registry.value("router.slow_path_packets")
        )

    def test_tracer_saw_every_packet(self, traced_run):
        router, total = traced_run
        summary = get_tracer().summary()
        if router.config.use_gpu:
            assert summary[Stages.PRE_SHADE].packets == total
            assert summary[Stages.POST_SHADE].packets == total
            assert summary[Stages.GATHER].packets == total
        else:
            assert summary[Stages.CPU_PROCESS].packets == total
        assert get_tracer().total_packets() == total

    def test_chunk_size_histogram_counts_chunks(self, traced_run):
        router, total = traced_run
        histogram = get_registry().get("router.chunk_size")
        assert histogram.count == router.stats.chunks
        assert histogram.sum == total


class TestDropAccountingAudit:
    """Every drop path increments ``dropped`` exactly once, and the
    attribution counters (backpressure) never exceed it."""

    @pytest.fixture(autouse=True)
    def fresh_obs(self):
        reset_registry()
        reset_tracer()
        yield
        reset_registry()
        reset_tracer()

    def _run(self, frames, plan=None, use_gpu=True):
        workload = ipv4_workload(num_routes=5000, seed=81)
        router = PacketShader(
            IPv4Forwarder(workload.table),
            RouterConfig(use_gpu=use_gpu),
            fault_injector=plan.injector() if plan else None,
        )
        router.process_frames([bytearray(f) for f in frames])
        return router

    def _routed_frames(self, n=120):
        workload = ipv4_workload(num_routes=5000, seed=81)
        return workload.generator.ipv4_burst(n)

    @pytest.mark.parametrize("use_gpu", [True, False], ids=["gpu", "cpu-only"])
    def test_bad_checksum_drops_exactly_once(self, use_gpu):
        """A checksum-corrupted frame is dropped once, not twice."""
        frames = [
            build_udp_ipv4(0x0A000001, 0x0A000002, 1000, 2000)
            for _ in range(50)
        ]
        for frame in frames:
            frame[24] ^= 0xFF  # flip the IPv4 header checksum low byte
        router = self._run(frames, use_gpu=use_gpu)
        stats = router.stats
        assert stats.received == 50
        # Checksum failures divert to the slow path in this app's
        # classification (Section 6.2.1) — either way each packet gets
        # exactly one verdict.
        assert stats.forwarded + stats.dropped + stats.slow_path == 50
        registry = get_registry()
        assert registry.value("router.dropped_packets") == stats.dropped
        assert registry.value("router.slow_path_packets") == stats.slow_path

    def test_truncated_frames_drop_exactly_once(self):
        from repro.faults import FaultPlan, FaultRule, Sites

        plan = FaultPlan(seed=3, rules=(
            FaultRule(site=Sites.NIC_TRUNCATE, probability=1.0),
        ))
        frames = self._routed_frames(80)
        corrupted = [plan.injector().corrupt_frame(f)[0] for f in frames]
        router = self._run(corrupted)
        stats = router.stats
        assert stats.received == 80
        assert stats.forwarded + stats.dropped + stats.slow_path == 80

    def test_forced_queue_overflow_counts_once(self):
        from repro.faults import FaultPlan, FaultRule, Sites

        plan = FaultPlan(seed=1, rules=(
            FaultRule(site=Sites.MASTER_QUEUE_OVERFLOW, probability=1.0),
        ))
        router = self._run(self._routed_frames(200), plan=plan)
        stats = router.stats
        assert stats.backpressure_drops > 0
        assert stats.received == 200
        assert stats.forwarded + stats.dropped + stats.slow_path == 200
        registry = get_registry()
        # Attribution never exceeds the total it attributes.
        assert stats.backpressure_drops <= stats.dropped
        assert (
            registry.value("router.backpressure_drops")
            == stats.backpressure_drops
        )
        assert registry.value("router.dropped_packets") == stats.dropped

    def test_mixed_faults_still_exactly_once(self):
        from repro.faults import FaultPlan, FaultRule, Sites

        plan = FaultPlan(seed=2, rules=(
            FaultRule(site=Sites.MASTER_QUEUE_OVERFLOW, probability=0.4),
            FaultRule(site=Sites.GPU_LAUNCH, probability=0.4),
        ))
        router = self._run(self._routed_frames(300), plan=plan)
        stats = router.stats
        assert stats.received == 300
        assert stats.forwarded + stats.dropped + stats.slow_path == 300
        registry = get_registry()
        assert registry.value("router.received_packets") == 300 == (
            registry.value("router.forwarded_packets")
            + registry.value("router.dropped_packets")
            + registry.value("router.slow_path_packets")
        )
