"""The wall-clock stage profiler: where *real* time goes, per stage.

The span tracer (:mod:`repro.obs.trace`) accounts **modelled** time —
cycles and nanoseconds from the calibration constants — which is the
right axis for reproducing the paper's tables but says nothing about
where this Python process actually spends its wall clock.  The profiler
is the second axis: context-manager timers around the same pipeline
stages (pre-shade / shade / post-shade, plus the io_engine and hw
boundaries) feeding per-stage wall-time histograms.

Two design rules keep the two clocks from contaminating each other:

* **This module is the only sanctioned wall-clock reader** below the
  CLI layer.  reprolint RL001 rejects wall-clock reads in the modelled
  layers (``sim``/``hw``/``io_engine``/``core``/``gen``) however the
  clock was imported; hot-path code that needs wall time calls
  :meth:`StageProfiler.now_ns` or wraps the region in
  :meth:`StageProfiler.track`, the one wall-clock span.  The
  determinism guarantee survives because wall time only ever lands in
  ``prof.*`` metrics, never in simulated state.
* **Observations carry exemplars.**  Each timer stores the flight
  recorder's current event seq with its histogram sample, so a p99
  outlier bucket in ``prof.stage_wall_ns`` names the event that was in
  flight when the slow sample landed ("the GPU retry path fired").

Overhead discipline mirrors the flight recorder: disabled, ``track()``
returns a shared no-op timer (one attribute check per stage); enabled,
a timer is two ``perf_counter_ns`` reads, one subtraction, and one
histogram observe.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.obs import names
from repro.obs.flightrec import FlightRecorder, get_flightrec
from repro.obs.registry import WALL_NS_BUCKETS, Histogram, get_registry


class _NullTimer:
    """The shared do-nothing timer a disabled profiler hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_TIMER = _NullTimer()


class _Timer:
    """One timed region: enter reads the clock, exit observes the delta."""

    __slots__ = ("_histogram", "_recorder", "_start")

    def __init__(self, histogram: Histogram,
                 recorder: FlightRecorder) -> None:
        self._histogram = histogram
        self._recorder = recorder
        self._start = 0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter_ns() - self._start
        self._histogram.observe(elapsed, exemplar=self._recorder.seq)


class StageProfiler:
    """Per-stage wall-time histograms over ``prof.stage_wall_ns``.

    Handles are resolved lazily per stage and cached, so instrumented
    constructors can grab timers for their stages once and the hot path
    never touches the registry dict.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._histograms: Dict[str, Histogram] = {}
        self._registry = get_registry()
        self._recorder = get_flightrec()

    # -- the sanctioned clock ------------------------------------------

    @staticmethod
    def now_ns() -> int:
        """The one wall-clock read RL001 points hot-path code at."""
        return time.perf_counter_ns()

    # -- timing ---------------------------------------------------------

    def _histogram_for(self, stage: str) -> Histogram:
        histogram = self._histograms.get(stage)
        if histogram is None:
            histogram = self._registry.histogram(
                names.PROF_STAGE_WALL_NS,
                buckets=WALL_NS_BUCKETS,
                help="wall-clock time per pipeline stage",
                stage=stage,
            )
            self._histograms[stage] = histogram
        return histogram

    def track(self, stage: str):
        """A context manager timing one region under ``stage``.

        ``with profiler.track(Stages.PRE_SHADE): ...`` — reentrant-safe
        because every call hands out a fresh timer; free when disabled.
        """
        if not self.enabled:
            return _NULL_TIMER
        return _Timer(self._histogram_for(stage), self._recorder)

    def observe(self, stage: str, elapsed_ns: float,
                exemplar: Optional[int] = None) -> None:
        """Record an externally measured duration (pairs with
        :meth:`now_ns` when a region can't be a ``with`` block)."""
        if not self.enabled:
            return
        if exemplar is None:
            exemplar = self._recorder.seq
        self._histogram_for(stage).observe(elapsed_ns, exemplar=exemplar)

    # -- reading --------------------------------------------------------

    def stage_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-stage {count, sum_ns, mean_ns, p50, p99} for dashboards."""
        stats: Dict[str, Dict[str, float]] = {}
        for stage, histogram in sorted(self._histograms.items()):
            if histogram.count == 0:
                continue
            stats[stage] = {
                "count": histogram.count,
                "sum_ns": histogram.sum,
                "mean_ns": histogram.mean,
                "p50_ns": histogram.percentile(50),
                "p99_ns": histogram.percentile(99),
            }
        return stats


#: The process-wide default profiler.
_default_profiler = StageProfiler()


def get_profiler() -> StageProfiler:
    """The current default profiler (what instrumented code times with)."""
    return _default_profiler


def set_profiler(profiler: StageProfiler) -> StageProfiler:
    """Install a profiler as the default; returns the previous one."""
    global _default_profiler
    previous = _default_profiler
    _default_profiler = profiler
    return previous


def reset_profiler() -> StageProfiler:
    """Replace the default profiler with a fresh enabled one (returned).

    Call after ``reset_registry``/``reset_flightrec`` so the new
    profiler binds to the new registry and recorder.
    """
    profiler = StageProfiler()
    set_profiler(profiler)
    return profiler
