"""Driver behaviour: suppressions, baseline round-trip, parsing, CLI."""

import json
from pathlib import Path

from repro.analysis.baseline import Baseline
from repro.analysis.cli import lint_main
from repro.analysis.driver import lint_paths
from repro.analysis.findings import Finding, format_json, format_table

from tests.analysis.conftest import rule_ids

BAD_RNG = """
import random

def pick(xs):
    return random.choice(xs)
"""


class TestSuppressions:
    def test_inline_ignore_specific_rule(self, lint):
        result = lint({"gen/t.py": """
            import random

            def pick(xs):
                return random.choice(xs)  # reprolint: ignore[RL001]
            """}, rules=["RL001"])
        assert rule_ids(result) == []
        assert result.suppressed == 1

    def test_inline_ignore_wrong_rule_does_not_suppress(self, lint):
        result = lint({"gen/t.py": """
            import random

            def pick(xs):
                return random.choice(xs)  # reprolint: ignore[RL999]
            """}, rules=["RL001"])
        assert rule_ids(result) == ["RL001"]

    def test_bare_ignore_suppresses_all_rules(self, lint):
        result = lint({"gen/t.py": """
            import random

            def pick(xs):
                return random.choice(xs)  # reprolint: ignore
            """}, rules=["RL001"])
        assert rule_ids(result) == []

    def test_skip_file_pragma(self, lint):
        result = lint({"gen/t.py": "# reprolint: skip-file" + BAD_RNG},
                      rules=["RL001"])
        assert rule_ids(result) == []
        assert result.files_checked == 1


class TestBaseline:
    def test_round_trip(self, tmp_path, lint):
        result = lint({"gen/t.py": BAD_RNG}, rules=["RL001"])
        assert result.failed

        baseline_path = tmp_path / "baseline.json"
        Baseline.from_findings(result.findings).save(baseline_path)
        reloaded = Baseline.load(baseline_path)
        assert len(reloaded) == 1

        again = lint({"gen/t.py": BAD_RNG}, rules=["RL001"],
                     baseline=reloaded)
        assert [f.baselined for f in again.findings] == [True]
        assert not again.failed

    def test_new_finding_beyond_baseline_count_fails(self, lint, tmp_path):
        result = lint({"gen/t.py": BAD_RNG}, rules=["RL001"])
        baseline = Baseline.from_findings(result.findings)

        more = lint({"gen/t.py": BAD_RNG + """

def pick2(xs):
    return random.choice(xs)
"""}, rules=["RL001"])
        marked = baseline.apply(more.findings)
        assert sum(1 for f in marked if f.baselined) == 1
        assert sum(1 for f in marked if not f.baselined) == 1

    def test_missing_baseline_file_is_empty(self, tmp_path):
        assert len(Baseline.load(tmp_path / "absent.json")) == 0

    def test_fingerprint_survives_line_drift(self, lint):
        before = lint({"gen/t.py": BAD_RNG}, rules=["RL001"])
        baseline = Baseline.from_findings(before.findings)
        shifted = lint({"gen/t.py": "\n\n\n" + BAD_RNG}, rules=["RL001"])
        marked = baseline.apply(shifted.findings)
        assert all(f.baselined for f in marked)


class TestParsing:
    def test_syntax_error_becomes_finding(self, lint):
        result = lint({"core/broken.py": "def oops(:\n    pass\n"})
        assert rule_ids(result) == ["RL000"]
        assert result.failed

    def test_files_checked_counts_tree(self, lint):
        result = lint({"a.py": "X = 1\n", "pkg/b.py": "Y = 2\n"})
        assert result.files_checked == 2


class TestFormats:
    def test_table_and_json_agree(self):
        findings = [
            Finding(rule="RL001", path="src/x.py", line=3, message="boom"),
        ]
        table = format_table(findings)
        assert "src/x.py:3" in table and "RL001" in table
        payload = json.loads(format_json(findings, files_checked=7))
        assert payload["summary"] == {"total": 1, "new": 1, "baselined": 0}
        assert payload["files_checked"] == 7
        assert payload["findings"][0]["rule"] == "RL001"

    def test_empty_table(self):
        assert "no findings" in format_table([])


class TestCLI:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("X = 1\n")
        assert lint_main([str(tmp_path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_findings_exit_one_and_json_format(self, tmp_path, capsys):
        (tmp_path / "gen").mkdir()
        (tmp_path / "gen" / "t.py").write_text(BAD_RNG)
        code = lint_main([str(tmp_path), "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["new"] == 1

    def test_rule_selection_and_unknown_rule(self, tmp_path, capsys):
        (tmp_path / "gen").mkdir()
        (tmp_path / "gen" / "t.py").write_text(BAD_RNG)
        assert lint_main([str(tmp_path), "--rules", "RL002"]) == 0
        assert lint_main([str(tmp_path), "--rules", "RL999"]) == 2

    def test_write_then_apply_baseline(self, tmp_path, capsys):
        (tmp_path / "gen").mkdir()
        (tmp_path / "gen" / "t.py").write_text(BAD_RNG)
        baseline = tmp_path / "base.json"
        assert lint_main([str(tmp_path), "--write-baseline",
                          str(baseline)]) == 0
        assert lint_main([str(tmp_path), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "baselined" in out

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert len(lines) == 11
        for rule_id in ("RL001", "RL002", "RL003", "RL005", "RL011"):
            assert rule_id in out
        assert "RL004" not in out and "superseded" not in out


class TestRealTree:
    def test_src_lints_clean(self):
        """The acceptance gate: the reproduction's own tree has no
        unbaselined findings (the shipped baseline is empty)."""
        repo_root = Path(__file__).resolve().parents[2]
        result = lint_paths([repo_root / "src"])
        assert [f.message for f in result.new_findings] == []
