"""The performance solver: throughput reports and latency composition."""

import math

import pytest

from repro.core.solver import (
    app_latency_ns,
    app_throughput_report,
    gpu_batch_time_ns,
    _adaptive_gpu_batch,
)
from repro.core.config import RouterConfig
from repro.apps.ipsec import IPsecGateway
from repro.apps.ipv4 import IPv4Forwarder
from repro.apps.ipv6 import IPv6Forwarder
from repro.gen.workloads import ipsec_workload, ipv4_workload, ipv6_workload
from repro.perf.reference import REFERENCE
from repro.sim.metrics import gbps_to_pps


@pytest.fixture(scope="module")
def ipv4_app():
    return IPv4Forwarder(ipv4_workload(num_routes=1000, seed=31).table)


@pytest.fixture(scope="module")
def ipv6_app():
    return IPv6Forwarder(ipv6_workload(num_routes=1000, seed=31).table)


class TestThroughput:
    def test_gpu_beats_cpu_at_small_frames(self, ipv4_app, ipv6_app):
        for app in (ipv4_app, ipv6_app):
            gpu = app_throughput_report(app, 64, use_gpu=True)
            cpu = app_throughput_report(app, 64, use_gpu=False)
            assert gpu.gbps > cpu.gbps

    def test_both_modes_io_bound_at_large_frames(self, ipv4_app):
        gpu = app_throughput_report(ipv4_app, 1514, use_gpu=True)
        cpu = app_throughput_report(ipv4_app, 1514, use_gpu=False)
        assert gpu.bottleneck == "io"
        assert cpu.bottleneck == "io"
        # Both sit on the I/O engine's forwarding ceiling (Figure 6).
        assert REFERENCE["fig6"].ref("forward_gbps", 1514).holds(cpu.gbps)

    def test_no_batching_collapses_throughput(self, ipv4_app):
        batched = app_throughput_report(ipv4_app, 64, use_gpu=False)
        unbatched = app_throughput_report(ipv4_app, 64, use_gpu=False, batch_size=1)
        assert unbatched.gbps < batched.gbps / 3

    def test_numa_blind_config_cuts_capacity(self, ipv4_app):
        aware = app_throughput_report(ipv4_app, 64, use_gpu=True)
        blind = app_throughput_report(
            ipv4_app, 64, use_gpu=True, config=RouterConfig(numa_aware=False)
        )
        assert blind.gbps < aware.gbps
        assert REFERENCE["numa"].ref("io_gbps", "blind").holds(blind.gbps)


class TestGPUBatchTime:
    def test_monotone_in_batch(self, ipv6_app):
        times = [gpu_batch_time_ns(ipv6_app, 64, n) for n in (32, 256, 1024, 3072)]
        assert times == sorted(times)

    def test_rate_grows_with_batch(self, ipv6_app):
        r1 = 256 / gpu_batch_time_ns(ipv6_app, 64, 256)
        r2 = 3072 / gpu_batch_time_ns(ipv6_app, 64, 3072)
        assert r2 > 2 * r1

    def test_validation(self, ipv6_app):
        with pytest.raises(ValueError):
            gpu_batch_time_ns(ipv6_app, 64, 0)

    def test_gather_scatter_amortises_launches(self, ipv6_app):
        """Section 5.4: gathering chunks per launch raises the GPU-stage
        rate."""
        rates = []
        for gather in (True, False):
            config = RouterConfig(gather_scatter=gather)
            n = config.chunk_capacity * config.effective_gather_chunks()
            rates.append(n / gpu_batch_time_ns(ipv6_app, 64, n))
        assert rates[0] > rates[1] * 1.2

    def test_streams_help_ipsec_not_lookups(self, ipv6_app):
        """Section 5.4: concurrent copy and execution pays for the
        transfer-heavy IPsec kernel and loses for a lightweight lookup."""
        ipsec = IPsecGateway(ipsec_workload().sa)

        def time_ns(app, frame_len, streams):
            return gpu_batch_time_ns(app, frame_len, 3072, streams=streams)

        assert time_ns(ipsec, 1514, True) < time_ns(ipsec, 1514, False)
        assert time_ns(ipv6_app, 64, True) > time_ns(ipv6_app, 64, False)


class TestAdaptiveBatch:
    def test_batch_grows_with_load(self, ipv6_app):
        config = RouterConfig()
        low, _ = _adaptive_gpu_batch(ipv6_app, 64, 1e6, config)
        high, _ = _adaptive_gpu_batch(ipv6_app, 64, 15e6, config)
        assert high > 3 * low

    def test_saturated_returns_max(self, ipv6_app):
        config = RouterConfig()
        batch, _ = _adaptive_gpu_batch(ipv6_app, 64, 1e9, config)
        assert batch == config.chunk_capacity * config.effective_gather_chunks()

    def test_fixed_point_property(self, ipv6_app):
        """At the fixed point, offered x T(batch) ~ batch (Section 5.3's
        adaptive balance)."""
        config = RouterConfig()
        offered = 8e6
        batch, transit = _adaptive_gpu_batch(ipv6_app, 64, offered, config)
        assert offered * transit / 1e9 == pytest.approx(batch, rel=0.05)


class TestLatency:
    def test_gpu_latency_in_paper_range(self, ipv6_app):
        """Figure 12's round trip for IPv6 over 0.5-28 Gbps, held to the
        fig12 refs."""
        for ref in REFERENCE["fig12"].refs:
            if ref.key == "gpu_us":
                latency = app_latency_ns(
                    ipv6_app, 64, gbps_to_pps(ref.x, 64), use_gpu=True)
                assert ref.holds(latency / 1000), ref.x

    def test_gpu_latency_above_cpu_batch(self, ipv6_app):
        # Figure 12: GPU acceleration costs latency vs the CPU modes.
        pps = gbps_to_pps(4, 64)
        gpu = app_latency_ns(ipv6_app, 64, pps, use_gpu=True)
        cpu = app_latency_ns(ipv6_app, 64, pps, use_gpu=False)
        assert gpu > cpu

    def test_saturation_is_infinite(self, ipv6_app):
        # CPU-only IPv6 saturates around 8 Gbps (Figure 11b).
        assert app_latency_ns(
            ipv6_app, 64, gbps_to_pps(12, 64), use_gpu=False
        ) == math.inf

    def test_no_batch_saturates_first(self, ipv6_app):
        pps = gbps_to_pps(5, 64)
        assert app_latency_ns(
            ipv6_app, 64, pps, use_gpu=False, batching=False
        ) == math.inf
        assert app_latency_ns(ipv6_app, 64, pps, use_gpu=False) < math.inf

    def test_low_load_moderation_hump(self, ipv6_app):
        """Latency at very low load exceeds the mid-load latency
        (interrupt moderation, Section 6.4)."""
        low = app_latency_ns(ipv6_app, 64, gbps_to_pps(0.5, 64), use_gpu=False)
        mid = app_latency_ns(ipv6_app, 64, gbps_to_pps(5, 64), use_gpu=False)
        assert low > mid

    def test_ipv4_latency_below_ipv6(self, ipv4_app, ipv6_app):
        """Figure 12's text: 140-260 us for IPv4 vs 200-400 us for IPv6."""
        pps = gbps_to_pps(12, 64)
        assert app_latency_ns(ipv4_app, 64, pps, use_gpu=True) < app_latency_ns(
            ipv6_app, 64, pps, use_gpu=True
        )

    def test_opportunistic_offloading(self, ipv6_app):
        """Section 7: the lower-latency mode is the CPU at light load and
        the GPU past CPU saturation."""

        def cheaper(gbps):
            pps = gbps_to_pps(gbps, 64)
            cpu = app_latency_ns(ipv6_app, 64, pps, use_gpu=False)
            gpu = app_latency_ns(ipv6_app, 64, pps, use_gpu=True)
            return "cpu" if cpu <= gpu else "gpu"

        assert [cheaper(gbps) for gbps in (1, 4, 12, 20, 28)] == [
            "cpu", "cpu", "gpu", "gpu", "gpu"
        ]

    def test_one_way_cheaper_than_round_trip(self, ipv6_app):
        pps = gbps_to_pps(4, 64)
        rtt = app_latency_ns(ipv6_app, 64, pps, use_gpu=True, round_trip=True)
        one_way = app_latency_ns(ipv6_app, 64, pps, use_gpu=True, round_trip=False)
        assert one_way < rtt

    def test_gpu_without_batching_rejected(self, ipv6_app):
        with pytest.raises(ValueError):
            app_latency_ns(ipv6_app, 64, 1e6, use_gpu=True, batching=False)

    def test_negative_load_rejected(self, ipv6_app):
        with pytest.raises(ValueError):
            app_latency_ns(ipv6_app, 64, -1)
