"""Unit tests for span tracing."""

import pytest

from repro.obs.trace import (
    PIPELINE_ORDER,
    Stages,
    Tracer,
    get_tracer,
    reset_tracer,
    set_tracer,
)


class TestRecord:
    def test_folds_into_summary(self):
        t = Tracer()
        t.record(Stages.RX, packets=10, cycles=100.0)
        t.record(Stages.RX, packets=5, cycles=50.0, ns=7.0)
        cost = t.stage(Stages.RX)
        assert cost.spans == 2
        assert cost.packets == 15
        assert cost.cycles == 150.0
        assert cost.ns == 7.0

    def test_events_keep_order_and_meta(self):
        t = Tracer()
        t.record(Stages.GPU, packets=3, ns=42.0, kernel="ipv4")
        (span,) = t.events()
        assert span.stage == Stages.GPU
        assert span.seq == 1
        assert span.meta == {"kernel": "ipv4"}
        assert span.to_dict()["ns"] == 42.0

    def test_event_retention_is_bounded(self):
        t = Tracer(max_events=4)
        for i in range(10):
            t.record(Stages.RX, packets=1)
        events = t.events()
        assert len(events) == 4
        assert [s.seq for s in events] == [7, 8, 9, 10]
        # The summary still covers everything the deque dropped.
        assert t.stage(Stages.RX).packets == 10

    def test_disabled_tracer_records_nothing(self):
        t = Tracer(enabled=False)
        t.record(Stages.RX, packets=1)
        assert t.summary() == {}
        assert t.events() == []

    def test_reset_clears_everything(self):
        t = Tracer()
        t.record(Stages.RX, packets=1)
        t.reset()
        assert t.summary() == {}
        assert t.events() == []
        assert t.total_packets() == 0


class TestStageCost:
    def test_time_ns_converts_cycles_at_clock(self):
        t = Tracer()
        t.record(Stages.RX, packets=4, cycles=200.0, ns=100.0)
        cost = t.stage(Stages.RX)
        assert cost.time_ns(2e9) == pytest.approx(100.0 + 200.0 / 2e9 * 1e9)
        assert cost.cycles_per_packet() == 50.0
        assert cost.ns_per_packet() == 25.0

    def test_zero_packets_safe(self):
        t = Tracer()
        t.record(Stages.GATHER, packets=0, cycles=10.0)
        cost = t.stage(Stages.GATHER)
        assert cost.cycles_per_packet() == 0.0
        assert cost.ns_per_packet() == 0.0


class TestReading:
    def test_ordered_stages_follow_pipeline_order(self):
        t = Tracer()
        t.record(Stages.TX, packets=1)
        t.record("custom_stage", packets=1)
        t.record(Stages.RX, packets=1)
        t.record(Stages.GPU, packets=1)
        names = [c.stage for c in t.ordered_stages()]
        assert names == [Stages.RX, Stages.GPU, Stages.TX, "custom_stage"]

    def test_total_packets_is_max_not_sum(self):
        t = Tracer()
        t.record(Stages.RX, packets=100)
        t.record(Stages.GPU, packets=100)
        assert t.total_packets() == 100

    def test_pipeline_order_covers_all_stage_constants(self):
        names = {
            v for k, v in vars(Stages).items()
            if not k.startswith("_") and isinstance(v, str)
        }
        assert names == set(PIPELINE_ORDER)


class TestGlobalTracer:
    def test_reset_swaps_and_restores(self):
        original = get_tracer()
        try:
            fresh = reset_tracer()
            assert get_tracer() is fresh
            assert fresh is not original
        finally:
            set_tracer(original)
