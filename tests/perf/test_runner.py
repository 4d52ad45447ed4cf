"""Runner pipeline: registry enumeration, artifacts, manifest aggregation."""

import json

import pytest

from repro.obs import MetricsRegistry, get_registry, names, set_registry
from repro.perf import runner, schema
from repro.perf.registry import all_specs, get_spec


class TestRegistry:
    def test_registry_covers_every_figure_and_table(self):
        figures = [spec.figure for spec in all_specs()]
        assert len(figures) >= 10
        for expected in ("fig2", "fig5", "fig6", "fig11a", "fig11b",
                         "fig11c", "fig11d", "fig12", "table1", "table2",
                         "table3"):
            assert expected in figures

    def test_specs_are_well_formed(self):
        for spec in all_specs():
            assert spec.kind in ("figure", "table", "extension")
            assert spec.x_key
            assert callable(spec.produce)

    def test_unknown_figure_names_choices(self):
        with pytest.raises(KeyError, match="fig6"):
            get_spec("fig99")

    def test_duplicate_registration_rejected(self):
        from repro.perf.registry import BenchSpec, register

        spec = get_spec("fig5")
        with pytest.raises(ValueError, match="twice"):
            register(BenchSpec(figure="fig5", title="dup", kind="figure",
                               x_key="batch", produce=spec.produce))


class TestRunFigure:
    def test_payload_is_schema_valid_and_scored(self):
        payload = runner.run_figure(get_spec("fig5"), quick=True)
        schema.validate_figure_payload(payload)
        assert payload["mode"] == "quick"
        assert payload["divergence"]["fidelity"] > 0.9
        assert payload["bottleneck"] == "per_packet_overheads"

    def test_bench_metrics_recorded(self):
        previous = set_registry(MetricsRegistry())
        try:
            runner.run_figure(get_spec("fig5"), quick=True)
            registry = get_registry()
            assert registry.value(names.BENCH_FIGURES) == 1.0
            assert registry.value(names.BENCH_SERIES_POINTS) >= 8.0
            assert registry.value(
                names.BENCH_FIDELITY, figure="fig5"
            ) > 0.9
        finally:
            set_registry(previous)

    def test_rounding_keeps_values_close(self):
        spec = get_spec("fig5")
        raw = spec.produce(True)
        payload = runner.run_figure(spec, quick=True)
        for exact, rounded in zip(raw.series, payload["series"]):
            assert rounded["gbps"] == pytest.approx(exact["gbps"], abs=1e-6)
        for key, value in raw.headline.items():
            assert payload["headline"][key] == pytest.approx(value, abs=1e-6)


class TestArtifacts:
    def test_write_figure_round_trips(self, tmp_path):
        payload = runner.run_figure(get_spec("table2"), quick=True)
        path = runner.write_figure(payload, tmp_path)
        assert path.name == "BENCH_table2.json"
        assert schema.load(path.read_text()) == payload

    def test_filtered_run_skips_manifest_and_history(self, tmp_path):
        previous = set_registry(MetricsRegistry())
        try:
            manifest = runner.run(
                figures=["table2"], quick=True, root=tmp_path
            )
        finally:
            set_registry(previous)
        assert (tmp_path / "BENCH_table2.json").exists()
        assert not (tmp_path / runner.MANIFEST_NAME).exists()
        assert not (tmp_path / runner.HISTORY_NAME).exists()
        assert list(manifest["figures"]) == ["table2"]

    def test_history_appends(self, tmp_path):
        manifest = runner.build_manifest(
            [runner.run_figure(get_spec("table2"), quick=True)]
        )
        runner.append_history(manifest, 1.25, tmp_path)
        runner.append_history(manifest, 2.5, tmp_path)
        lines = (tmp_path / runner.HISTORY_NAME).read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["elapsed_s"] == 1.25
        assert first["fidelity"]["table2"] > 0.9


class TestManifest:
    def test_aggregation(self):
        payloads = [
            runner.run_figure(get_spec("fig5"), quick=True),
            runner.run_figure(get_spec("table2"), quick=True),
        ]
        manifest = runner.build_manifest(payloads)
        assert manifest["schema_version"] == schema.SCHEMA_VERSION
        assert list(manifest["figures"]) == ["fig5", "table2"]
        summary = manifest["summary"]
        assert summary["figures"] == 2
        assert summary["scored"] == 2
        assert summary["out_of_tolerance"] == []
        assert 0.9 < summary["min_fidelity"] <= summary["mean_fidelity"] <= 1.0
        for entry in manifest["figures"].values():
            assert entry["bottleneck"]
            assert entry["headline"]

    def test_committed_manifest_matches_schema_and_registry(self):
        from repro.perf.registry import figure_ids

        path = runner.REPO_ROOT / runner.MANIFEST_NAME
        manifest = json.loads(path.read_text())
        assert manifest["schema_version"] == schema.SCHEMA_VERSION
        assert sorted(manifest["figures"]) == figure_ids()
        assert manifest["summary"]["scored"] == len(manifest["figures"])
        for figure, entry in manifest["figures"].items():
            assert entry["fidelity"] is not None, figure
            assert entry["within_tol"], figure
            assert entry["bottleneck"], figure

    def test_gitignore_whitelists_exactly_the_registered_figures(self):
        """registry == manifest == the ``!BENCH_<id>.json`` negations, so
        a newly registered figure cannot be written but git-ignored."""
        import re

        from repro.perf.registry import figure_ids

        manifest = json.loads(
            (runner.REPO_ROOT / runner.MANIFEST_NAME).read_text()
        )
        negated = re.findall(
            r"^!BENCH_(\w+)\.json$",
            (runner.REPO_ROOT / ".gitignore").read_text(),
            flags=re.MULTILINE,
        )
        negated.remove("manifest")
        assert sorted(negated) == figure_ids() == sorted(manifest["figures"])

    def test_committed_per_figure_artifacts_validate(self):
        from repro.perf.registry import figure_ids

        for figure in figure_ids():
            path = runner.REPO_ROOT / f"BENCH_{figure}.json"
            assert path.exists(), f"{path.name} must be committed"
            payload = schema.load(path.read_text())
            assert payload["figure"] == figure
            assert payload["mode"] == "quick"
