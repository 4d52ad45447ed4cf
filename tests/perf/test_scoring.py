"""Divergence scoring on synthetic series: perfect, scaled, shape-broken,
and the band forms of a claim."""

import pytest

from repro.perf.reference import FigureRef, Ref, get_reference
from repro.perf.registry import BenchResult
from repro.perf.scoring import MISSING_POINT_ERROR, SHAPE_PENALTY, score_result

REF = FigureRef(
    figure="synthetic",
    source="test",
    monotonic=(("y", "increasing"),),
    refs=(
        Ref("y", x=1, expected=10.0, rel_tol=0.05),
        Ref("y", x=2, expected=20.0, rel_tol=0.05),
        Ref("peak", expected=20.0, rel_tol=0.05),
    ),
)


def _result(series, peak=20.0):
    return BenchResult(series=series, headline={"peak": peak}, bottleneck="x")


class TestPerfectSeries:
    def test_full_fidelity(self):
        score = score_result(
            "synthetic",
            _result([{"x": 1, "y": 10.0}, {"x": 2, "y": 20.0}]),
            "x",
            reference=REF,
        )
        assert score.fidelity == 1.0
        assert score.within_tol
        assert score.shape_ok
        assert score.mean_rel_error == 0.0
        assert score.points == 3  # two series points + one anchor
        assert score.missing == 0

    def test_within_tolerance_drift_still_scores_below_one(self):
        score = score_result(
            "synthetic",
            _result([{"x": 1, "y": 10.2}, {"x": 2, "y": 20.4}], peak=20.4),
            "x",
            reference=REF,
        )
        assert score.within_tol  # 2% < the 5% tolerance
        assert 0.97 < score.fidelity < 1.0  # but the drift is visible


class TestScaledSeries:
    def test_uniform_scale_breaks_tolerance_not_shape(self):
        score = score_result(
            "synthetic",
            _result([{"x": 1, "y": 11.0}, {"x": 2, "y": 22.0}], peak=22.0),
            "x",
            reference=REF,
        )
        assert not score.within_tol
        assert score.shape_ok  # still increasing
        assert score.mean_rel_error == pytest.approx(0.10)
        assert score.fidelity == pytest.approx(0.90)


class TestShapeBroken:
    def test_monotonicity_violation_halves_fidelity(self):
        score = score_result(
            "synthetic",
            _result([{"x": 1, "y": 10.0}, {"x": 2, "y": 20.0},
                     {"x": 3, "y": 15.0}]),
            "x",
            reference=REF,
        )
        assert not score.shape_ok
        assert not score.within_tol
        # All reference points match exactly; only the shape is wrong.
        assert score.mean_rel_error == 0.0
        assert score.fidelity == pytest.approx(SHAPE_PENALTY)


class TestMissingPoints:
    def test_missing_x_charged_full_error(self):
        score = score_result(
            "synthetic", _result([{"x": 1, "y": 10.0}]), "x", reference=REF
        )
        assert score.missing == 1
        assert score.series["y"].max_rel_error == MISSING_POINT_ERROR
        assert not score.within_tol

    def test_null_value_counts_as_missing(self):
        score = score_result(
            "synthetic",
            _result([{"x": 1, "y": 10.0}, {"x": 2, "y": None}]),
            "x",
            reference=REF,
        )
        assert score.missing == 1

    def test_missing_anchor_counts_too(self):
        result = BenchResult(
            series=[{"x": 1, "y": 10.0}, {"x": 2, "y": 20.0}],
            headline={}, bottleneck="x",
        )
        score = score_result("synthetic", result, "x", reference=REF)
        assert score.missing == 1
        assert score.anchors["peak"].measured is None


class TestAbsFloor:
    def test_floor_bounds_small_denominators(self):
        ref = FigureRef(
            figure="shares", source="test",
            refs=(Ref("s", x="a", expected=0.04, rel_tol=0.5,
                      abs_floor=0.05),),
        )
        result = BenchResult(
            series=[{"x": "a", "s": 0.06}], headline={"z": 1.0},
            bottleneck="x",
        )
        score = score_result("shares", result, "x", reference=ref)
        # |0.06 - 0.04| / max(0.04, 0.05) = 0.4, not 0.5.
        assert score.series["s"].max_rel_error == pytest.approx(0.4)


class TestBands:
    def _score(self, ref, value):
        figure = FigureRef(figure="banded", source="test", refs=(ref,))
        result = BenchResult(series=[{"x": 1, "y": 0.0}],
                             headline={ref.key: value}, bottleneck="x")
        return score_result("banded", result, "x", reference=figure)

    def test_range_and_bound_score_distance_outside_the_band(self):
        ref = Ref("lat", band=(100.0, 300.0))
        inside = self._score(ref, 150.0)
        assert inside.within_tol and inside.fidelity == 1.0
        for value in (90.0, 330.0):
            outside = self._score(ref, value)
            assert not outside.within_tol
            assert outside.anchors["lat"].rel_error == pytest.approx(0.1)
        bound = Ref("crossover", band=(50.0, None))
        assert self._score(bound, 1e9).within_tol
        assert not self._score(bound, 49.0).within_tol

    def test_point_claims_keep_their_distance(self):
        banded = self._score(Ref("peak", expected=20.0, band=(15.0, 22.0)), 17.0)
        assert banded.within_tol
        assert banded.anchors["peak"].rel_error == pytest.approx(0.15)
        assert banded.to_dict()["anchors"]["peak"]["band"] == [15.0, 22.0]
        point = self._score(Ref("g", expected=50.0, rel_tol=0.02), 50.9)
        assert point.within_tol and "band" not in point.to_dict()["anchors"]["g"]
        assert Ref("s", expected=1.0, abs_tol=0.25).bounds == (0.75, 1.25)
        exact = Ref("ports", expected=3.0, rel_tol=0.0)
        assert exact.holds(3.0) and not exact.holds(3.0 + 1e-9)

    def test_a_ref_needs_a_value_or_a_band(self):
        with pytest.raises(ValueError):
            Ref("nothing")


class TestReferenceTable:
    def test_unknown_figure_raises(self):
        with pytest.raises(KeyError):
            score_result("nope", _result([{"x": 1, "y": 1.0}]), "x")

    def test_every_registered_bench_has_a_reference(self):
        from repro.perf.registry import figure_ids

        for figure in figure_ids():
            assert get_reference(figure) is not None, figure

    def test_to_dict_is_json_shaped(self):
        import json

        score = score_result(
            "synthetic",
            _result([{"x": 1, "y": 10.0}, {"x": 2, "y": 20.0}]),
            "x",
            reference=REF,
        )
        dumped = json.loads(json.dumps(score.to_dict()))
        assert dumped["fidelity"] == 1.0
        assert dumped["series"]["y"]["within_tol"] is True
        assert dumped["anchors"]["peak"]["measured"] == 20.0
