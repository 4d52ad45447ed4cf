"""The benchmark registry: every figure/table reproduction, one pipeline.

A :class:`BenchSpec` names one paper figure or table (or one of the
reproduction's extension benches), how to produce its series, and how
the payload is labelled.  Producers are plain callables taking a
``quick`` flag — ``quick=True`` shrinks workload sizes and simulation
horizons for CI without changing any calibrated model, so headline
numbers agree between modes within the gate's tolerances.

``python -m repro bench`` (:mod:`repro.perf.runner`) runs every spec
through the schema'd emission pipeline and is the only writer of the
``BENCH_<figure>.json`` artifacts; ``tests/perf/test_figures.py`` runs
the same producers once more, without writing, to assert each figure's
tolerance, paper anchors and shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional


@dataclass
class BenchResult:
    """What a producer computes: series rows plus the derived verdicts.

    ``series`` rows are dicts keyed by column name; ``headline`` holds
    the scalar metrics the regression gate tracks; ``bottleneck`` is the
    analyzer's verdict for the figure (capacity-view where a pipeline
    report exists, data-derived otherwise).
    """

    series: List[Dict[str, object]]
    headline: Dict[str, float]
    bottleneck: str
    notes: str = ""


@dataclass(frozen=True)
class BenchSpec:
    """One registered benchmark: identity, labelling, and the producer."""

    figure: str
    title: str
    kind: str  # "figure" | "table" | "extension"
    x_key: str
    units: Mapping[str, str] = field(default_factory=dict)
    produce: Callable[[bool], BenchResult] = None  # type: ignore[assignment]


_SPECS: Dict[str, BenchSpec] = {}


def register(spec: BenchSpec) -> BenchSpec:
    if spec.figure in _SPECS:
        raise ValueError(f"benchmark {spec.figure!r} registered twice")
    if spec.produce is None:
        raise ValueError(f"benchmark {spec.figure!r} has no producer")
    _SPECS[spec.figure] = spec
    return spec


def bench(
    figure: str,
    title: str,
    kind: str = "figure",
    x_key: str = "",
    units: Optional[Mapping[str, str]] = None,
) -> Callable:
    """Decorator form: ``@bench("fig6", "…", x_key="frame_len")``."""

    def wrap(fn: Callable[[bool], BenchResult]) -> Callable[[bool], BenchResult]:
        register(
            BenchSpec(
                figure=figure,
                title=title,
                kind=kind,
                x_key=x_key,
                units=dict(units or {}),
                produce=fn,
            )
        )
        return fn

    return wrap


def _ensure_suites_loaded() -> None:
    # The suites module registers specs on import; imported lazily so
    # ``repro.perf.registry`` itself stays import-cycle free.
    from repro.perf import suites  # noqa: F401


def all_specs() -> List[BenchSpec]:
    """Every registered spec, in stable (figure id) order."""
    _ensure_suites_loaded()
    return [_SPECS[figure] for figure in sorted(_SPECS)]


def figure_ids() -> List[str]:
    _ensure_suites_loaded()
    return sorted(_SPECS)


def get_spec(figure: str) -> BenchSpec:
    _ensure_suites_loaded()
    try:
        return _SPECS[figure]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {figure!r} (choose from {', '.join(sorted(_SPECS))})"
        ) from None
