"""Hot-path wall-clock reads go through the profiler.

The fixtures RL007 was written against, now run through RL001, which
took over its alias-aware clock detection when RL007 was deleted:
every shape RL007 flagged must still be flagged, every shape it
accepted still accepted.
"""

from pathlib import Path

from repro.analysis.driver import lint_paths
from repro.analysis.rules import get_rule

from tests.analysis.conftest import messages, rule_ids


class TestWallclockDetection:
    def test_dotted_time_call_triggers(self, lint):
        result = lint({"core/framework.py": """
            import time

            def stamp(self):
                return time.time()
            """}, rules=["RL001"])
        assert rule_ids(result) == ["RL001"]
        assert "wall-clock read time.time()" in messages(result)

    def test_bare_imported_perf_counter_triggers(self, lint):
        result = lint({"io_engine/engine.py": """
            from time import perf_counter

            def stamp(self):
                return perf_counter()
            """}, rules=["RL001"])
        assert rule_ids(result) == ["RL001"]
        assert "time.perf_counter" in messages(result)

    def test_renamed_import_triggers(self, lint):
        result = lint({"core/queues.py": """
            from time import perf_counter_ns as clock

            def stamp(self):
                return clock()
            """}, rules=["RL001"])
        assert rule_ids(result) == ["RL001"]

    def test_module_alias_triggers(self, lint):
        result = lint({"io_engine/driver.py": """
            import time as t

            def stamp(self):
                return t.monotonic()
            """}, rules=["RL001"])
        assert rule_ids(result) == ["RL001"]

    def test_datetime_forms_trigger(self, lint):
        result = lint({"core/solver.py": """
            import datetime
            from datetime import datetime as dt

            def stamps(self):
                return datetime.datetime.now(), dt.utcnow()
            """}, rules=["RL001"])
        assert rule_ids(result) == ["RL001", "RL001"]


class TestExemptions:
    def test_profiler_api_is_clean(self, lint):
        # The sanctioned path: the profiler reads the clock, not the
        # hot-path module.
        result = lint({"core/framework.py": """
            from repro.obs import Stages, get_profiler

            def shade(self, chunk):
                with get_profiler().track(Stages.PRE_SHADE):
                    self.app.pre_shade(chunk)
                return get_profiler().now_ns()
            """}, rules=["RL001"])
        assert rule_ids(result) == []

    def test_obs_layer_is_exempt(self, lint):
        # The profiler itself (and everything in obs/) is the one layer
        # allowed to read the wall clock directly.
        result = lint({"obs/profiler.py": """
            import time

            def now_ns():
                return time.perf_counter_ns()
            """}, rules=["RL001"])
        assert rule_ids(result) == []

    def test_cold_layers_are_exempt(self, lint):
        result = lint({"perf/wallclock.py": """
            from time import perf_counter_ns

            def sample():
                return perf_counter_ns()
            """}, rules=["RL001"])
        assert rule_ids(result) == []

    def test_unrelated_bare_names_are_clean(self, lint):
        # A local function that happens to be called ``time`` is not a
        # clock read; only names bound by a time/datetime import count.
        result = lint({"core/chunk.py": """
            def time(chunk):
                return len(chunk)

            def cost(chunk):
                return time(chunk)
            """}, rules=["RL001"])
        assert rule_ids(result) == []

    def test_inline_suppression_is_clean(self, lint):
        result = lint({"io_engine/engine.py": """
            from time import monotonic

            def stamp(self):
                return monotonic()  # reprolint: ignore[RL001]
            """}, rules=["RL001"])
        assert rule_ids(result) == []

    def test_repo_tree_is_currently_clean(self):
        # core/ and io_engine/ route every wall-clock read through the
        # profiler; new direct reads must do the same.
        repo_root = Path(__file__).resolve().parents[2]
        result = lint_paths([repo_root / "src"], rules=[get_rule("RL001")])
        assert [f.message for f in result.findings] == []
