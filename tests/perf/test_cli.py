"""CLI surface of ``python -m repro bench``: exit codes and the gate path."""

import json

import pytest

from repro.perf import cli, gate, runner, schema


@pytest.fixture
def fake_suite(monkeypatch, tmp_path):
    """Stub the heavy suite run with a canned manifest and point the
    artifact root at a temp dir, so the exit-code paths stay fast."""

    manifest = {
        "schema_version": schema.SCHEMA_VERSION,
        "figures": {
            "figA": {
                "kind": "figure",
                "title": "t",
                "mode": "quick",
                "bottleneck": "io",
                "series_rows": 2,
                "headline": {"gbps": 10.0},
                "fidelity": 0.95,
                "mean_rel_error": 0.01,
                "within_tol": True,
                "shape_ok": True,
                "reference_points": 2,
                "source": "test",
            }
        },
        "summary": {
            "figures": 1, "scored": 1, "reference_points": 2,
            "mean_fidelity": 0.95, "min_fidelity": 0.95,
            "out_of_tolerance": [],
        },
    }

    def fake_run(figures=None, quick=False, write=True):
        return json.loads(json.dumps(manifest))

    monkeypatch.setattr(runner, "run", fake_run)
    monkeypatch.setattr(runner, "REPO_ROOT", tmp_path)
    return manifest


class TestUsage:
    def test_list_prints_registered_figures(self, capsys):
        assert cli.bench_main(["--list"]) == 0
        out = capsys.readouterr().out.split()
        assert "fig6" in out and "table3" in out
        assert len(out) >= 10

    def test_unknown_figure_exits_2(self, capsys):
        assert cli.bench_main(["--figure", "fig99"]) == 2
        assert "fig99" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, argvs", [
        ("--wallclock", (["--wallclock"], ["--wallclock", "--no-write"])),
        ("--workers", (["--workers", "2"],)),
    ], ids=["wallclock", "workers"])
    def test_wall_clock_flags_are_usage_errors(self, capsys, flag, argvs):
        """Wall-clock speed is measured by ``bench/`` alone: the
        scorecard CLI refuses its former flags and does not offer them."""
        for argv, code in [*((argv, 2) for argv in argvs), (["--help"], 0)]:
            with pytest.raises(SystemExit) as exc:
                cli.bench_main(argv)
            assert exc.value.code == code, argv
        assert flag not in capsys.readouterr().out

    def test_filtered_check_exits_2(self, capsys):
        assert cli.bench_main(["--figure", "fig5", "--check"]) == 2
        assert "full suite" in capsys.readouterr().err


class TestRunPaths:
    def test_scorecard_table_output(self, fake_suite, capsys):
        assert cli.bench_main([]) == 0
        out = capsys.readouterr().out
        assert "figA" in out
        assert "fidelity" in out

    def test_json_output_parses(self, fake_suite, capsys):
        assert cli.bench_main(["--json"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["figures"]["figA"]["fidelity"] == 0.95


class TestGatePaths:
    def test_check_without_baseline_exits_2(self, fake_suite, capsys):
        assert cli.bench_main(["--check"]) == 2
        assert "--update-baseline" in capsys.readouterr().err

    def test_update_then_check_passes(self, fake_suite, capsys):
        assert cli.bench_main(["--update-baseline"]) == 0
        assert (runner.REPO_ROOT / runner.BASELINE_NAME).exists()
        assert cli.bench_main(["--check"]) == 0
        assert "bench gate: ok" in capsys.readouterr().out

    def test_perturbed_series_beyond_tolerance_exits_1(
        self, fake_suite, capsys
    ):
        assert cli.bench_main(["--update-baseline"]) == 0
        # Perturb the measured headline 20% beyond the 5% tolerance.
        fake_suite["figures"]["figA"]["headline"]["gbps"] = 8.0
        assert cli.bench_main(["--check"]) == 1
        err = capsys.readouterr().err
        assert "regression" in err
        assert "gbps" in err

    def test_fidelity_drift_exits_1(self, fake_suite):
        assert cli.bench_main(["--update-baseline"]) == 0
        fake_suite["figures"]["figA"]["fidelity"] = 0.80
        assert cli.bench_main(["--check"]) == 1


class TestRealGateAgainstCommittedBaseline:
    def test_single_cheap_figure_matches_baseline(self, tmp_path):
        """The committed baseline agrees with a fresh quick run of a
        cheap figure — the gate's comparison applied for real."""
        baseline = gate.load_baseline(runner.REPO_ROOT / runner.BASELINE_NAME)
        assert baseline is not None
        manifest = runner.run(figures=["fig5"], quick=True, write=False)
        entry = manifest["figures"]["fig5"]
        pinned = baseline["figures"]["fig5"]
        for metric, value in pinned["headline"].items():
            assert entry["headline"][metric] == pytest.approx(
                value, rel=baseline["rel_tol"]
            )
        assert entry["fidelity"] >= pinned["fidelity"] - gate.FIDELITY_DRIFT
