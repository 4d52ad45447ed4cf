"""One run mode: every run analyses and reports the whole tree as it is
now — no result cache, no changed-only reporting, no baseline ledger —
plus the SARIF export and the linter's independence from the obs
registry."""

import collections
import json
import os
import subprocess
from pathlib import Path

import pytest

from repro.analysis.cli import lint_main
from repro.analysis.driver import lint_paths, parse_module
from repro.analysis.findings import Finding
from repro.analysis.rules import get_rule
from repro.obs import names
from repro.obs.registry import get_registry, reset_registry
from tests.analysis.conftest import write_tree

CLOCK_BUG = """
import time

def stamp():
    return time.time()
"""

CLEAN = "def ok():\n    return 1\n"

WAIVED = CLOCK_BUG.replace(
    "return time.time()",
    "return time.time()  # reprolint: ignore[RL001] fixture clock",
)

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def tree(tmp_path):
    """Write files, chdir into the tree for the test body."""

    def _enter(files):
        write_tree(tmp_path, files)
        os.chdir(tmp_path)
        return tmp_path

    cwd = os.getcwd()
    yield _enter
    os.chdir(cwd)


def _src_waivers():
    """Rule id per inline waiver line in ``src/`` (the analysis package
    only quotes the pragma in its docs, so it is left out)."""
    waivers = collections.Counter()
    for path in sorted(SRC.rglob("*.py")):
        if "analysis" in path.parts:
            continue
        module, _ = parse_module(path)
        for rules in module.suppressions.values():
            waivers.update(rules)
    return waivers


class TestResultCache:
    """There is no result cache: each run analyses the files as they are."""

    def test_second_run_is_a_hit_with_same_findings(self, tree):
        tree({"core/clock.py": CLOCK_BUG, "core/waived.py": WAIVED})
        rules = [get_rule("RL001")]
        first = lint_paths(["."], rules=rules)
        second = lint_paths(["."], rules=rules)
        assert [f.fingerprint for f in first.findings] == [
            ("RL001", "core/clock.py",
             "wall-clock read time.time() on a modelled path"),
        ]
        assert second.findings == first.findings
        assert second.suppressed == first.suppressed == 1

    def test_edit_invalidates(self, tree):
        root = tree({"core/clock.py": CLOCK_BUG})
        rules = [get_rule("RL001")]
        assert lint_paths(["."], rules=rules).failed
        (root / "core/clock.py").write_text(CLEAN)
        assert lint_paths(["."], rules=rules).findings == []

    def test_new_file_invalidates(self, tree):
        root = tree({"core/a.py": CLEAN})
        rules = [get_rule("RL001")]
        assert lint_paths(["."], rules=rules).findings == []
        (root / "core/b.py").write_text(CLOCK_BUG)
        result = lint_paths(["."], rules=rules)
        assert [f.path for f in result.findings] == ["core/b.py"]

    def test_different_rule_set_misses(self, tree):
        tree({"core/clock.py": CLOCK_BUG})
        assert lint_paths(["."], rules=[get_rule("RL002")]).findings == []
        assert len(lint_paths(["."], rules=[get_rule("RL001")]).findings) == 1

    def test_baseline_applies_after_replay(self, tree):
        # A waiver written between two runs takes effect on the next one.
        root = tree({"core/clock.py": CLOCK_BUG})
        rules = [get_rule("RL001")]
        assert lint_paths(["."], rules=rules).failed
        (root / "core/clock.py").write_text(WAIVED)
        result = lint_paths(["."], rules=rules)
        assert not result.failed
        assert result.suppressed == 1

    def test_corrupt_cache_degrades_to_live_run(self, tree):
        # A leftover cache file is not read, and a run writes nothing.
        root = tree({"core/clock.py": CLOCK_BUG})
        (root / ".reprolint-cache.json").write_text("{not json")
        before = sorted(p.name for p in root.rglob("*"))
        assert lint_main([".", "--rules", "RL001"]) == 1
        assert sorted(p.name for p in root.rglob("*")) == before


class TestSarif:
    def test_sarif_log_shape(self, tree, capsys):
        tree({"core/clock.py": CLOCK_BUG})
        code = lint_main([".", "--format", "sarif"])
        log = json.loads(capsys.readouterr().out)
        assert code == 1
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "reprolint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert "RL001" in rule_ids and "RL011" in rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "RL001"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "core/clock.py"
        assert "reprolintFingerprint/v1" in result["partialFingerprints"]

    def test_baselined_findings_become_suppressions(self, tree, capsys):
        # An inline waiver keeps its finding out of the log entirely.
        tree({"core/clock.py": WAIVED})
        assert lint_main([".", "--format", "sarif"]) == 0
        log = json.loads(capsys.readouterr().out)
        assert log["runs"][0]["results"] == []

    def test_fingerprint_stable_across_line_drift(self):
        from repro.analysis.sarif import _fingerprint_hash

        a = Finding(rule="RL001", path="core/x.py", line=3, message="m")
        b = Finding(rule="RL001", path="core/x.py", line=99, message="m")
        assert _fingerprint_hash(a) == _fingerprint_hash(b)


class TestChangedOnly:
    """There is no changed-only mode: the report spans the whole tree,
    because a cross-file finding lands where its cause is defined, not
    in the file whose edit exposed it."""

    def _git(self, *argv):
        subprocess.run(
            ["git", *argv], check=True, capture_output=True,
            env={**os.environ,
                 "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
                 "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t"},
        )

    def test_reports_only_diffed_files(self, tree):
        root = tree({
            "core/state.py": "TABLE = {}\n",
            "core/worker.py": CLEAN,
        })
        assert lint_paths(["."], rules=[get_rule("RL008")]).findings == []
        # Only worker.py changes; the finding is reported in state.py.
        (root / "core/worker.py").write_text(
            "from core.state import TABLE\n\n"
            "def learn(key):\n    TABLE[key] = True\n"
        )
        result = lint_paths(["."], rules=[get_rule("RL008")])
        assert [f.path for f in result.findings] == ["core/state.py"]

    def test_untracked_files_count_as_changed(self, tree, capsys):
        root = tree({"core/a.py": CLEAN})
        self._git("init", "-q")
        self._git("add", "-A")
        self._git("commit", "-qm", "seed")
        (root / "core/fresh.py").write_text(CLOCK_BUG)
        code = lint_main([".", "--rules", "RL001", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [f["path"] for f in payload["findings"]] == ["core/fresh.py"]

    def test_outside_git_is_a_usage_error(self, tree):
        # The linter never consults git: outside a checkout it runs.
        tree({"core/clock.py": CLOCK_BUG})
        assert lint_main([".", "--rules", "RL001"]) == 1


class TestBaselineHygiene:
    """Inline waivers are the whole ledger; these keep it honest."""

    def test_prune_drops_paid_down_entries(self, tree):
        # Once the finding is fixed, its waiver no longer counts.
        root = tree({"core/clock.py": WAIVED})
        assert lint_paths(["."], rules=[get_rule("RL001")]).suppressed == 1
        (root / "core/clock.py").write_text(
            CLEAN.replace("return 1", "return 1  # reprolint: ignore[RL001]")
        )
        result = lint_paths(["."], rules=[get_rule("RL001")])
        assert result.findings == [] and result.suppressed == 0

    def test_prune_keeps_live_debt(self, tree):
        tree({"core/clock.py": WAIVED})
        assert lint_main([".", "--rules", "RL001"]) == 0
        assert lint_paths(["."], rules=[get_rule("RL001")]).suppressed == 1

    def test_check_fails_on_stale_ledger(self):
        # Every waiver in src/ still waives a live finding: none is stale.
        result = lint_paths([SRC])
        assert result.suppressed == sum(_src_waivers().values())

    def test_check_passes_on_tight_ledger(self):
        # The tree's waivers, by rule; a new one is a visible diff here.
        assert _src_waivers() == {"RL006": 6, "RL008": 1}


class TestSelfMetrics:
    def test_lint_records_its_own_metrics(self, tree):
        # The linter publishes nothing: no lint.* series, no registry use.
        tree({"core/a.py": CLEAN})
        reset_registry()
        try:
            lint_paths(["."], rules=[get_rule("RL001")])
            assert list(get_registry().collect()) == []
            assert not any(
                name.startswith("lint.") for name in names.METRIC_NAMES
            )
        finally:
            reset_registry()
