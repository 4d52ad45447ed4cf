"""Paper-fidelity divergence scoring.

Given one benchmark's measured :class:`~repro.perf.registry.BenchResult`
and its :class:`~repro.perf.reference.FigureRef`, compute how far the
reproduction sits from the published numbers:

* **per-ref distance** for every series cell and headline scalar — from
  a point claim's expected value, or outside a range/bound claim's band
  (:meth:`~repro.perf.reference.Ref.distance`) — and whether the value
  lies in the ref's band (:meth:`~repro.perf.reference.Ref.holds`);
* **shape checks** — monotonicity of measured series the paper draws as
  monotone curves (Figure 5's batching curve, Table 1's rate ramps);
* a scalar **fidelity** in [0, 1]: ``max(0, 1 - mean_rel_error)``,
  halved if any shape check fails, zeroed by missing points.

Fidelity is deliberately continuous: a figure falls out of its bands
only past them, but the scorecard trajectory shows drift long before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.perf.reference import (
    DEFAULT_REL_TOL,
    MISSING_POINT_ERROR,
    FigureRef,
    Ref,
    get_reference,
)
from repro.perf.registry import BenchResult

#: Penalty applied to the fidelity score when a shape check fails: the
#: curve's character is wrong even if individual points sit close.
SHAPE_PENALTY = 0.5


def _band(ref: Ref) -> List[Optional[float]]:
    return [None if end is None else round(end, 6) for end in ref.bounds]


@dataclass
class PointScore:
    """One ref compared against its measured value."""

    ref: Ref
    measured: Optional[float]
    rel_error: float
    within_tol: bool

    def to_dict(self) -> Dict[str, object]:
        entry: Dict[str, object] = {
            "expected": self.ref.expected,
            "measured": self.measured,
            "rel_error": round(self.rel_error, 6),
            "within_tol": self.within_tol,
        }
        if self.ref.explicit:
            entry["band"] = _band(self.ref)
        return entry


@dataclass
class SeriesScore:
    key: str
    points: List[PointScore] = field(default_factory=list)
    monotonic: Optional[str] = None
    monotonic_ok: bool = True

    @property
    def rel_tol(self) -> Optional[float]:
        """The cells' shared ``expected·(1 ± rel_tol)`` tolerance, if any."""
        if any(p.ref.explicit for p in self.points):
            return None
        tolerances = {p.ref.rel_tol for p in self.points} or {DEFAULT_REL_TOL}
        return tolerances.pop() if len(tolerances) == 1 else None

    @property
    def mean_rel_error(self) -> float:
        if not self.points:
            return 0.0
        return sum(p.rel_error for p in self.points) / len(self.points)

    @property
    def max_rel_error(self) -> float:
        return max((p.rel_error for p in self.points), default=0.0)

    def to_dict(self) -> Dict[str, object]:
        entry: Dict[str, object] = {
            "rel_tol": self.rel_tol,
            "mean_rel_error": round(self.mean_rel_error, 6),
            "max_rel_error": round(self.max_rel_error, 6),
            "points": len(self.points),
            "within_tol": all(p.within_tol for p in self.points),
            "monotonic": self.monotonic,
            "monotonic_ok": self.monotonic_ok,
        }
        if entry["rel_tol"] is None:
            entry["bands"] = [[p.ref.x, *_band(p.ref)] for p in self.points]
        return entry


@dataclass
class DivergenceScore:
    """The verdict scoring hands the runner for one figure."""

    figure: str
    source: str
    fidelity: float
    mean_rel_error: float
    max_rel_error: float
    points: int
    missing: int
    shape_ok: bool
    within_tol: bool
    series: Dict[str, SeriesScore] = field(default_factory=dict)
    anchors: Dict[str, PointScore] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "source": self.source,
            "fidelity": round(self.fidelity, 4),
            "mean_rel_error": round(self.mean_rel_error, 6),
            "max_rel_error": round(self.max_rel_error, 6),
            "points": self.points,
            "missing": self.missing,
            "shape_ok": self.shape_ok,
            "within_tol": self.within_tol,
            "series": {k: s.to_dict() for k, s in sorted(self.series.items())},
            "anchors": {k: p.to_dict() for k, p in sorted(self.anchors.items())},
        }


def _finite(value: object) -> Optional[float]:
    if isinstance(value, (int, float)) and not isinstance(value, bool) \
            and math.isfinite(value):
        return float(value)
    return None


def measured_value(
    ref: Ref,
    series: List[Dict[str, object]],
    headline: Dict[str, float],
    x_key: str,
) -> Optional[float]:
    """What ``ref`` compares: a headline scalar or one series cell
    (``None`` when absent, null, or not finite)."""
    if ref.x is None:
        return _finite(headline.get(ref.key))
    value = None
    for row in series:
        if row.get(x_key) == ref.x:
            value = _finite(row.get(ref.key))
    return value


def score_ref(ref: Ref, measured: Optional[float]) -> PointScore:
    """The one scoring path: a ref's distance and band verdict."""
    if measured is None:
        return PointScore(ref, None, MISSING_POINT_ERROR, False)
    return PointScore(ref, measured, ref.distance(measured), ref.holds(measured))


def _monotonic_ok(values: List[float], direction: str) -> bool:
    if direction == "increasing":
        return all(b >= a for a, b in zip(values, values[1:]))
    if direction == "decreasing":
        return all(b <= a for a, b in zip(values, values[1:]))
    raise ValueError(f"unknown monotonic direction {direction!r}")


def score_result(
    figure: str,
    result: BenchResult,
    x_key: str,
    reference: Optional[FigureRef] = None,
) -> DivergenceScore:
    """Score one measured result against the paper-reference table."""
    ref = reference if reference is not None else get_reference(figure)
    if ref is None:
        raise KeyError(f"no reference entry for benchmark {figure!r}")

    series_scores: Dict[str, SeriesScore] = {}
    anchor_scores: Dict[str, PointScore] = {}
    for key, direction in ref.monotonic:
        series_scores[key] = SeriesScore(key=key, monotonic=direction)
    for cell in ref.refs:
        point = score_ref(
            cell, measured_value(cell, result.series, result.headline, x_key)
        )
        if cell.x is None:
            anchor_scores[cell.key] = point
        else:
            series_scores.setdefault(cell.key, SeriesScore(key=cell.key))
            series_scores[cell.key].points.append(point)

    shape_ok = True
    for score in series_scores.values():
        if score.monotonic is not None:
            # Shape is judged on the measured curve in sweep order.
            ordered = [
                value for value in (_finite(row.get(score.key))
                                    for row in result.series)
                if value is not None
            ]
            score.monotonic_ok = _monotonic_ok(ordered, score.monotonic)
            shape_ok = shape_ok and score.monotonic_ok

    # Series cells first, then headline scalars: the table's order.
    scored = [p for s in series_scores.values() for p in s.points]
    scored += list(anchor_scores.values())
    errors = [p.rel_error for p in scored]
    mean_error = sum(errors) / len(errors) if errors else 0.0
    fidelity = max(0.0, 1.0 - mean_error)
    if not shape_ok:
        fidelity *= SHAPE_PENALTY
    return DivergenceScore(
        figure=figure,
        source=ref.source,
        fidelity=fidelity,
        mean_rel_error=mean_error,
        max_rel_error=max(errors, default=0.0),
        points=len(errors),
        missing=sum(p.measured is None for p in scored),
        shape_ok=shape_ok,
        within_tol=all(p.within_tol for p in scored) and shape_ok,
        series=series_scores,
        anchors=anchor_scores,
    )
