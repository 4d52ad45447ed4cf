"""Wall-clock harness: result shape, history trajectory, CLI wiring.

Timings are machine-dependent, so these tests pin structure — every
microbenchmark reports both formulations and a speedup, the history
line is schema-stamped JSONL, and ``--wallclock`` routes around the
simulated-artifact pipeline — without asserting absolute numbers.
"""

import json

from repro.perf import wallclock
from repro.perf.cli import bench_main
from repro.perf.schema import SCHEMA_VERSION


def shrink(monkeypatch):
    """Tiny workloads: the harness shape is identical, the runtime isn't."""
    monkeypatch.setattr(wallclock, "CHUNK_SIZES", (8,))
    monkeypatch.setattr(wallclock, "CHUNKS_PER_RUN", 2)
    monkeypatch.setattr(wallclock, "ESP_LANES", (5,))


class TestMicrobenchmarks:
    def test_ipv4_classify_reports_both_formulations(self, monkeypatch):
        shrink(monkeypatch)
        result = wallclock.bench_ipv4_classify(8)
        assert result["bench"] == "ipv4_classify"
        assert result["chunk_size"] == 8
        assert result["packets"] == 16
        assert result["scalar_us_per_packet"] > 0
        assert result["vector_us_per_packet"] > 0
        assert result["speedup"] > 0

    def test_run_wallclock_covers_every_bench(self, monkeypatch):
        shrink(monkeypatch)
        results = wallclock.run_wallclock()
        assert [entry["bench"] for entry in results] == [
            "ipv4_classify",
            "checksum16",
            "egress_distribution",
            "esp_encapsulate",
        ]
        assert all(entry["speedup"] > 0 for entry in results)

    def test_esp_row_compares_equal_outputs(self, monkeypatch):
        shrink(monkeypatch)
        row = wallclock.run_wallclock()[-1]
        assert row["bench"] == "esp_encapsulate"
        assert row["chunk_size"] == row["packets"] == 5
        assert row["scalar_us_per_packet"] > 0
        assert row["vector_us_per_packet"] > 0
        # Both sides restart the SA's sequence, so a repetition of either
        # must have produced the same outer packets as the other.
        assert row["outputs_equal"] is True

    def test_format_wallclock_renders_a_row_per_bench(self, monkeypatch):
        shrink(monkeypatch)
        results = wallclock.run_wallclock()
        table = wallclock.format_wallclock(results)
        assert "speedup" in table
        for entry in results:
            assert entry["bench"] in table


class TestHistoryTrajectory:
    RESULTS = [{"bench": "ipv4_classify", "chunk_size": 64, "speedup": 5.0}]

    def test_appends_schema_stamped_jsonl(self, tmp_path):
        path = wallclock.append_wallclock_history(self.RESULTS, root=tmp_path)
        assert path == tmp_path / "bench-history.jsonl"
        line = json.loads(path.read_text().splitlines()[0])
        assert line["schema_version"] == SCHEMA_VERSION
        assert line["kind"] == "wallclock"
        assert line["results"] == self.RESULTS

    def test_appends_not_overwrites(self, tmp_path):
        wallclock.append_wallclock_history(self.RESULTS, root=tmp_path)
        wallclock.append_wallclock_history(self.RESULTS, root=tmp_path)
        lines = (tmp_path / "bench-history.jsonl").read_text().splitlines()
        assert len(lines) == 2


class TestCLI:
    def test_wallclock_no_write_skips_history(self, monkeypatch, capsys):
        shrink(monkeypatch)
        appended = []
        monkeypatch.setattr(
            wallclock, "append_wallclock_history",
            lambda results, **kwargs: appended.append(results),
        )
        assert bench_main(["--wallclock", "--no-write"]) == 0
        out = capsys.readouterr().out
        assert "ipv4_classify" in out
        assert appended == []

    def test_wallclock_appends_history_by_default(
        self, monkeypatch, capsys, tmp_path
    ):
        shrink(monkeypatch)
        real_append = wallclock.append_wallclock_history
        monkeypatch.setattr(
            wallclock, "append_wallclock_history",
            lambda results: real_append(results, root=tmp_path),
        )
        assert bench_main(["--wallclock"]) == 0
        assert (tmp_path / "bench-history.jsonl").exists()
        out = capsys.readouterr().out
        assert "history appended" in out
