"""Wall-clock stage profiler: timers, exemplars, stats, lifecycle."""

import pytest

from repro.obs import names
from repro.obs.flightrec import Events, reset_flightrec
from repro.obs.profiler import (
    StageProfiler,
    get_profiler,
    reset_profiler,
    set_profiler,
)
from repro.obs.registry import WALL_NS_BUCKETS, get_registry, reset_registry
from repro.obs.trace import Stages


@pytest.fixture(autouse=True)
def fresh_obs():
    reset_registry()
    reset_flightrec()
    reset_profiler()
    yield
    reset_registry()
    reset_flightrec()
    reset_profiler()


def _wall_histogram(stage):
    return get_registry().histogram(
        names.PROF_STAGE_WALL_NS, buckets=WALL_NS_BUCKETS, stage=stage,
    )


class TestTrack:
    def test_tracked_region_lands_in_the_stage_histogram(self):
        profiler = StageProfiler()
        with profiler.track(Stages.PRE_SHADE):
            pass
        histogram = _wall_histogram(Stages.PRE_SHADE)
        assert histogram.count == 1
        assert histogram.sum > 0  # perf_counter_ns ticked

    def test_stages_do_not_share_histograms(self):
        profiler = StageProfiler()
        with profiler.track(Stages.PRE_SHADE):
            pass
        with profiler.track(Stages.POST_SHADE):
            pass
        assert _wall_histogram(Stages.PRE_SHADE).count == 1
        assert _wall_histogram(Stages.POST_SHADE).count == 1

    def test_disabled_profiler_hands_out_the_shared_null_timer(self):
        profiler = StageProfiler(enabled=False)
        timer = profiler.track(Stages.GPU)
        assert timer is profiler.track(Stages.PRE_SHADE)
        with timer:
            pass
        assert _wall_histogram(Stages.GPU).count == 0

    def test_timer_observes_even_when_the_region_raises(self):
        profiler = StageProfiler()
        with pytest.raises(RuntimeError):
            with profiler.track(Stages.GPU):
                raise RuntimeError("kernel fault")
        assert _wall_histogram(Stages.GPU).count == 1


class TestExemplars:
    def test_observation_carries_the_current_flightrec_seq(self):
        recorder = reset_flightrec()
        profiler = reset_profiler()
        recorder.note(Events.GPU_RETRY, "0", 1)
        recorder.note(Events.GPU_RETRY, "0", 2)
        with profiler.track(Stages.GPU):
            pass
        histogram = _wall_histogram(Stages.GPU)
        exemplars = list(histogram.exemplars.values())
        assert len(exemplars) == 1
        seq, value = exemplars[0]
        assert seq == 2  # the event in flight when the sample landed
        assert value > 0

    def test_observe_accepts_an_explicit_exemplar(self):
        profiler = StageProfiler()
        profiler.observe(Stages.TX, 12_345.0, exemplar=7)
        histogram = _wall_histogram(Stages.TX)
        assert histogram.count == 1
        assert (7, 12_345.0) in histogram.exemplars.values()

    def test_observe_defaults_to_the_recorder_seq(self):
        recorder = reset_flightrec()
        profiler = reset_profiler()
        recorder.note(Events.RX, "0:0", 8)
        profiler.observe(Stages.RX, 500.0)
        histogram = _wall_histogram(Stages.RX)
        assert (1, 500.0) in histogram.exemplars.values()

    def test_disabled_observe_is_a_no_op(self):
        profiler = StageProfiler(enabled=False)
        profiler.observe(Stages.RX, 500.0)
        assert _wall_histogram(Stages.RX).count == 0


class TestClockAndStats:
    def test_now_ns_is_monotone_integer(self):
        first = StageProfiler.now_ns()
        second = StageProfiler.now_ns()
        assert isinstance(first, int)
        assert second >= first

    def test_stage_stats_shape(self):
        profiler = StageProfiler()
        for _ in range(3):
            with profiler.track(Stages.PRE_SHADE):
                pass
        stats = profiler.stage_stats()
        assert set(stats) == {Stages.PRE_SHADE}
        row = stats[Stages.PRE_SHADE]
        assert row["count"] == 3
        assert row["sum_ns"] > 0
        assert row["mean_ns"] == pytest.approx(row["sum_ns"] / 3)
        assert row["p50_ns"] <= row["p99_ns"]

    def test_stage_stats_skips_unsampled_stages(self):
        profiler = StageProfiler()
        profiler.track(Stages.GPU)  # handle resolved, never entered
        assert profiler.stage_stats() == {}


class TestLifecycle:
    def test_set_returns_previous(self):
        original = get_profiler()
        replacement = StageProfiler()
        assert set_profiler(replacement) is original
        assert get_profiler() is replacement
        set_profiler(original)

    def test_reset_rebinds_to_the_current_registry(self):
        reset_registry()
        profiler = reset_profiler()
        assert profiler is get_profiler()
        with profiler.track(Stages.PRE_SHADE):
            pass
        # The observation landed in the *new* registry.
        assert _wall_histogram(Stages.PRE_SHADE).count == 1
