"""RL012: shared-memory segments go through the managed primitive."""

from pathlib import Path

from tests.analysis.conftest import messages, rule_ids

from repro.analysis.driver import lint_paths
from repro.analysis.rules import get_rule


class TestDetection:
    def test_module_alias_construction_flagged(self, lint):
        result = lint({
            "core/cache.py": """
                from multiprocessing import shared_memory

                def grab(name):
                    seg = shared_memory.SharedMemory(name=name)
                    seg.close()
                    return seg
            """,
        }, rules=["RL012"])
        assert rule_ids(result) == ["RL012"]
        assert "attaches" in messages(result)

    def test_bare_class_import_flagged(self, lint):
        result = lint({
            "io_engine/staging.py": """
                from multiprocessing.shared_memory import SharedMemory

                def stage(nbytes):
                    seg = SharedMemory(create=True, size=nbytes)
                    seg.close()
                    seg.unlink()
                    return seg.name
            """,
        }, rules=["RL012"])
        assert rule_ids(result) == ["RL012"]
        assert "creates" in messages(result)

    def test_fully_dotted_and_renamed_imports_flagged(self, lint):
        result = lint({
            "obs/extra.py": """
                import multiprocessing.shared_memory
                from multiprocessing import shared_memory as shmem

                def a(name):
                    s = multiprocessing.shared_memory.SharedMemory(name=name)
                    s.close()

                def b(name):
                    s = shmem.SharedMemory(name=name)
                    s.close()
            """,
        }, rules=["RL012"])
        assert rule_ids(result) == ["RL012", "RL012"]

    def test_missing_close_flagged_even_when_call_suppressed(self, lint):
        # Suppressing the bare call doesn't waive the lifecycle pair:
        # the leak finding anchors to the import line, out of reach of
        # an inline ignore on the construction.
        result = lint({
            "core/leak.py": """
                from multiprocessing import shared_memory

                def leak(name):
                    return shared_memory.SharedMemory(name=name)  # reprolint: ignore[RL012]
            """,
        }, rules=["RL012"])
        assert rule_ids(result) == ["RL012"]
        assert "never calls close()" in messages(result)

    def test_create_without_unlink_flagged(self, lint):
        result = lint({
            "core/half.py": """
                from multiprocessing import shared_memory

                def make(nbytes):
                    seg = shared_memory.SharedMemory(create=True, size=nbytes)
                    seg.close()
                    return seg.name
            """,
        }, rules=["RL012"])
        assert rule_ids(result) == ["RL012", "RL012"]
        assert "never calls unlink()" in messages(result)

    def test_attach_only_module_needs_no_unlink(self, lint):
        # Attach-side handles must close() but only the creator unlinks.
        result = lint({
            "core/reader.py": """
                from multiprocessing import shared_memory

                def read(name):
                    seg = shared_memory.SharedMemory(name=name)
                    data = bytes(seg.buf)
                    seg.close()
                    return data
            """,
        }, rules=["RL012"])
        assert rule_ids(result) == ["RL012"]
        assert "unlink" not in messages(result)


_PRIMITIVE = """
    from multiprocessing import shared_memory

    class Segment:
        @classmethod
        def create(cls, name, nbytes):
            return cls(shared_memory.SharedMemory(
                name=name, create=True, size=nbytes
            ))

        @classmethod
        def attach(cls, name):
            return cls(shared_memory.SharedMemory(name=name))
"""


class TestExemptions:
    def test_segment_primitive_is_exempt(self, lint):
        result = lint({"repro/shm.py": _PRIMITIVE}, rules=["RL012"])
        assert result.findings == []

    def test_obs_shm_module_is_exempt(self, lint):
        # Exempt from findings, no longer from the rule: the slab
        # module is clean because it builds on the primitive, and a
        # bare call of its own is flagged like anyone's.
        on_primitive = {
            "repro/shm.py": _PRIMITIVE,
            "repro/obs/shm.py": """
                from repro.shm import Segment

                def create(name, nbytes):
                    return Segment.create(name, nbytes)
            """,
        }
        assert lint(on_primitive, rules=["RL012"]).findings == []
        result = lint({
            "repro/obs/shm.py": """
                from multiprocessing import shared_memory

                def create(name, nbytes):
                    seg = shared_memory.SharedMemory(
                        name=name, create=True, size=nbytes
                    )
                    seg.close()
                    seg.unlink()
            """,
        }, rules=["RL012"])
        assert rule_ids(result) == ["RL012"]

    def test_shard_pool_module_is_exempt(self, lint):
        on_primitive = {
            "repro/shm.py": _PRIMITIVE,
            "repro/shard/pool.py": """
                from repro.shm import Segment

                def attach(name):
                    return Segment.attach(name)
            """,
        }
        assert lint(on_primitive, rules=["RL012"]).findings == []
        result = lint({
            "repro/shard/pool.py": """
                from multiprocessing import shared_memory

                def attach(name):
                    seg = shared_memory.SharedMemory(name=name)
                    seg.close()
            """,
        }, rules=["RL012"])
        assert rule_ids(result) == ["RL012"]

    def test_unrelated_shared_memory_names_ignored(self, lint):
        # A local class that happens to be called SharedMemory is not
        # the stdlib one; without the import there is no finding.
        result = lint({
            "core/fake.py": """
                class SharedMemory:
                    pass

                def make():
                    return SharedMemory()
            """,
        }, rules=["RL012"])
        assert result.findings == []

    def test_import_without_construction_is_clean(self, lint):
        result = lint({
            "core/types.py": """
                from multiprocessing import shared_memory

                def describe(seg: "shared_memory.SharedMemory") -> str:
                    return seg.name
            """,
        }, rules=["RL012"])
        assert result.findings == []


class TestSuppression:
    def test_inline_ignore_silences_the_bare_call(self, lint):
        result = lint({
            "core/ok.py": """
                from multiprocessing import shared_memory

                def grab(name):
                    seg = shared_memory.SharedMemory(name=name)  # reprolint: ignore[RL012]
                    seg.close()
                    return seg
            """,
        }, rules=["RL012"])
        assert result.findings == []


class TestRepoTree:
    def test_repo_tree_is_currently_clean(self):
        """The funnel holds: only repro/shm.py touches SharedMemory
        directly anywhere under src/."""
        repo_root = Path(__file__).resolve().parents[2]
        result = lint_paths([repo_root / "src"], rules=[get_rule("RL012")])
        assert result.findings == []
