"""Batch cost model vs the Figure 5 anchors."""

import pytest

from repro.io_engine.batching import (
    effective_batch_size,
    forwarding_cycles_per_packet,
    forwarding_pps_single_core,
    rx_cycles_per_packet,
    tx_cycles_per_packet,
)
from repro.perf.reference import REFERENCE
from repro.sim.metrics import pps_to_gbps

FIG5 = REFERENCE["fig5"]


class TestFigure5Anchors:
    """The published points are fig5's refs in ``repro.perf.reference``."""

    def test_batch_1_is_0_78_gbps(self):
        # Packet by packet on one core, 64B frames.
        gbps = pps_to_gbps(forwarding_pps_single_core(1), 64)
        assert FIG5.ref("gbps", 1).holds(gbps)

    def test_batch_64_is_10_5_gbps(self):
        gbps = pps_to_gbps(forwarding_pps_single_core(64), 64)
        assert FIG5.ref("gbps", 64).holds(gbps)

    def test_speedup_is_13_5(self):
        speedup = forwarding_pps_single_core(64) / forwarding_pps_single_core(1)
        assert FIG5.ref("speedup_64").holds(speedup)

    def test_throughput_monotone_in_batch(self):
        rates = [forwarding_pps_single_core(b) for b in (1, 2, 4, 8, 16, 32, 64, 128)]
        assert rates == sorted(rates)

    def test_gain_stalls_past_32(self):
        # Paper: "the performance gain stalls after 32 packets" — the
        # marginal gain from 64->128 is a fraction of the 1->2 gain.
        early_gain = forwarding_pps_single_core(2) / forwarding_pps_single_core(1)
        late_gain = forwarding_pps_single_core(128) / forwarding_pps_single_core(64)
        assert early_gain > 1.8
        assert late_gain < 1.15


class TestOptions:
    def test_no_prefetch_costs_more(self):
        with_prefetch = forwarding_cycles_per_packet(64)
        without = forwarding_cycles_per_packet(64, prefetch=False)
        assert without > with_prefetch + 100

    def test_unaligned_queues_scale_badly(self):
        """Section 4.4: per-packet cycles grow ~20% at 8 cores."""
        aligned = forwarding_cycles_per_packet(64, aligned_queues=True, num_cores=8)
        unaligned = forwarding_cycles_per_packet(64, aligned_queues=False, num_cores=8)
        assert unaligned / aligned == pytest.approx(1.20, rel=0.01)

    def test_unaligned_single_core_unaffected(self):
        aligned = forwarding_cycles_per_packet(64, num_cores=1)
        unaligned = forwarding_cycles_per_packet(64, aligned_queues=False, num_cores=1)
        assert aligned == unaligned

    def test_rx_tx_cheaper_than_forwarding(self):
        assert rx_cycles_per_packet(64) < forwarding_cycles_per_packet(64)
        assert tx_cycles_per_packet(64) < forwarding_cycles_per_packet(64)

    def test_batch_validation(self):
        for fn in (forwarding_cycles_per_packet, rx_cycles_per_packet,
                   tx_cycles_per_packet):
            with pytest.raises(ValueError):
                fn(0)


class TestEffectiveBatchSize:
    def test_zero_load_means_batch_of_one(self):
        assert effective_batch_size(0.0, 64) == 1.0

    def test_grows_with_load(self):
        low = effective_batch_size(0.5e6, 1024)
        high = effective_batch_size(5e6, 1024)
        assert high > low

    def test_overload_returns_cap(self):
        # A core offered more than it can ever drain always finds a full
        # ring.
        assert effective_batch_size(1e9, 256) == 256.0

    def test_elastic_batch_paper_observation(self):
        """Section 4.6: at the same load, 4 cores see ~4.6x the batch of
        8 cores (they measured 63.0 vs 13.6)."""
        total_offered = 58.4e6  # 41.1 Gbps of 64B frames
        batch_8 = effective_batch_size(total_offered / 8, 128)
        batch_4 = effective_batch_size(total_offered / 4, 128)
        assert batch_4 > 3 * batch_8

    def test_validation(self):
        with pytest.raises(ValueError):
            effective_batch_size(-1, 64)
        with pytest.raises(ValueError):
            effective_batch_size(1e6, 0)
