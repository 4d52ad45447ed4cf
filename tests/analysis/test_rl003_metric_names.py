"""Registry/trace names against the canonical catalogs.

The fixtures RL003 was written against, now run through the checks
that replaced it when it was deleted: the catalog scans in
``test_names_catalog.py`` (no literal names at call sites, no orphaned
catalog entries) and the run-time guard that a typo'd ``names.X``
raises.
"""

import pytest

from repro.obs import names
from tests.analysis.conftest import write_tree
from tests.analysis.test_names_catalog import literal_name_calls, orphan_constants

#: A minimal catalog for the fixture trees.
CATALOG = {
    "ROUTER_RECEIVED": "router.received_packets",
    "ROUTER_DROPPED": "router.dropped_packets",
}
NAMES_SOURCE = "".join(f'{k} = "{v}"\n' for k, v in CATALOG.items())


def scan(tmp_path, files):
    """``(literal-name call sites, orphaned constants)`` of a tree
    holding the fixture catalog plus ``files``."""
    write_tree(tmp_path, {"obs/names.py": NAMES_SOURCE, **files})
    return (
        literal_name_calls(tmp_path),
        orphan_constants(CATALOG, tmp_path, tmp_path / "obs/names.py"),
    )


class TestRegistryNames:
    def test_known_string_and_constant_are_clean(self, tmp_path):
        assert scan(tmp_path, {"core/router.py": """
            from repro.obs import names

            def setup(registry):
                registry.counter(names.ROUTER_RECEIVED)
                registry.counter(names.ROUTER_DROPPED, help="drops")
            """}) == ([], [])

    def test_typo_string_triggers(self, tmp_path):
        literals, _ = scan(tmp_path, {"core/router.py": """
            def setup(registry):
                registry.counter("router.recieved_packets")
            """})
        assert literals == ["core/router.py:3"]

    def test_unknown_catalog_constant_triggers(self):
        with pytest.raises(AttributeError):
            names.ROUTER_DOES_NOT_EXIST

    def test_registry_read_with_typo_triggers(self, tmp_path):
        literals, _ = scan(tmp_path, {"core/report.py": """
            def snapshot(registry):
                return registry.total("router.dorpped_packets")
            """})
        assert literals == ["core/report.py:3"]

    def test_without_catalog_module_rule_is_silent(self, tmp_path):
        # Forwarding a name held in a variable (read_slab, merge_into)
        # is not a literal: the name came from the catalog upstream.
        literals, _ = scan(tmp_path, {"obs/merge.py": """
            def copy(target, metric):
                target.counter(metric.name, **dict(metric.labels))
            """})
        assert literals == []


class TestTraceStages:
    def test_unknown_stage_string_triggers(self, tmp_path):
        literals, _ = scan(tmp_path, {"core/router.py": """
            def run(tracer):
                tracer.record("rxx", packets=1)
            """})
        assert literals == ["core/router.py:3"]

    def test_known_stage_string_is_clean(self, tmp_path):
        literals, _ = scan(tmp_path, {"core/router.py": """
            from repro.obs import Stages

            def run(tracer):
                tracer.record(Stages.RX, packets=1)
            """})
        assert literals == []


class TestOrphans:
    def test_orphaned_catalog_entry_warns(self, tmp_path):
        _, orphans = scan(tmp_path, {"core/router.py": """
            from repro.obs import names

            def setup(registry):
                registry.counter(names.ROUTER_RECEIVED)
            """})
        assert orphans == ["ROUTER_DROPPED"]

    def test_string_use_counts_as_reference(self, tmp_path):
        # A use of the value outside a registry call (a label table)
        # still references the entry.
        _, orphans = scan(tmp_path, {"core/router.py": """
            from repro.obs import names

            LABELS = {"router.dropped_packets": "drops"}

            def setup(registry):
                registry.counter(names.ROUTER_RECEIVED)
            """})
        assert orphans == []
