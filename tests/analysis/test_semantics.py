"""The semantic engine itself: symbols, graphs, dataflow.

These tests exercise the layers rules build on, against synthetic
packages — if resolution or taint breaks here, every RL008, RL009 and
RL011 verdict upstream is suspect.
"""

import ast

import pytest

from repro.analysis.semantics import build_dataflow, module_name
from repro.analysis.semantics.dataflow import (
    GLOBAL,
    LOCAL,
    PARAM,
    SELF,
    contains_foreign_buffer,
)


def _fn(source, name=None):
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and (
            name is None or node.name == name
        ):
            return node
    raise AssertionError("no function found")


class TestModuleNaming:
    def test_strips_src_prefix_and_extension(self):
        assert module_name("src/repro/core/chunk.py") == "repro.core.chunk"

    def test_init_names_the_package(self):
        assert module_name("src/repro/core/__init__.py") == "repro.core"

    def test_plain_layout(self):
        assert module_name("core/pipeline.py") == "core.pipeline"


class TestSymbolTable:
    def test_definitions_and_imports_recorded(self, project):
        sem = project({
            "pkg/__init__.py": "from pkg.impl import Thing\n",
            "pkg/impl.py": """
                LIMIT = 4

                class Thing:
                    def run(self):
                        return LIMIT

                def helper():
                    return Thing()
            """,
        }).semantics
        impl = sem.symbols.modules["pkg.impl"]
        assert "helper" in impl.functions
        assert "Thing" in impl.classes
        assert "run" in impl.classes["Thing"].methods
        assert impl.globals["LIMIT"].lineno == 2

    def test_resolution_follows_reexport_chain(self, project):
        sem = project({
            "pkg/__init__.py": "from pkg.impl import Thing\n",
            "pkg/impl.py": "class Thing:\n    pass\n",
            "user.py": """
                from pkg import Thing

                def make():
                    return Thing()
            """,
        }).semantics
        user = sem.symbols.modules["user"]
        qualified = sem.symbols.resolve(user, "Thing")
        assert qualified == "pkg.impl.Thing"
        assert sem.symbols.lookup_class(qualified).name == "Thing"

    def test_relative_import_resolves_within_package(self, project):
        sem = project({
            "pkg/__init__.py": "",
            "pkg/impl.py": "class Thing:\n    pass\n",
            "pkg/user.py": """
                from .impl import Thing

                def make():
                    return Thing()
            """,
        }).semantics
        user = sem.symbols.modules["pkg.user"]
        assert sem.symbols.resolve(user, "Thing") == "pkg.impl.Thing"


class TestGraphs:
    def test_import_reachability_is_transitive(self, project):
        sem = project({
            "core/pipeline.py": "from net.frames import pack\n",
            "net/frames.py": "from obs.registry import counter\n",
            "obs/registry.py": "def counter():\n    pass\n",
            "apps/tool.py": "X = 1\n",
        }).semantics
        reachable = sem.modules_reachable_from_parts({"core"})
        assert "core.pipeline" in reachable
        assert "net.frames" in reachable
        assert "obs.registry" in reachable  # two hops from core
        assert "apps.tool" not in reachable

    def test_call_graph_resolves_methods_and_ctors(self, project):
        sem = project({
            "pkg/impl.py": """
                class Thing:
                    def __init__(self):
                        self.x = 0

                    def run(self):
                        self.step()

                    def step(self):
                        pass

                def make():
                    return Thing()
            """,
        }).semantics
        assert "pkg.impl.Thing.step" in sem.calls.callees_of(
            "pkg.impl.Thing.run"
        )
        assert "pkg.impl.Thing.__init__" in sem.calls.callees_of(
            "pkg.impl.make"
        )
        assert "pkg.impl.Thing.run" in sem.calls.callers_of(
            "pkg.impl.Thing.step"
        )

    def test_cross_module_call_edge(self, project):
        sem = project({
            "pkg/a.py": """
                from pkg.b import helper

                def top():
                    helper()
            """,
            "pkg/b.py": "def helper():\n    pass\n",
        }).semantics
        assert sem.calls.callees_of("pkg.a.top") == frozenset(
            {"pkg.b.helper"}
        )

    def test_unresolvable_call_contributes_no_edge(self, project):
        sem = project({
            "pkg/a.py": """
                import json

                def top(cb):
                    json.dumps({})
                    cb()
            """,
        }).semantics
        assert sem.calls.callees_of("pkg.a.top") == frozenset()


class TestDataflow:
    def test_def_use_chains(self):
        df = build_dataflow(_fn("""
def f(x):
    y = x + 1
    z = y * 2
    return z
"""), set())
        assert df.def_lines["y"] == [3]
        assert df.def_lines["z"] == [4]
        assert 4 in df.use_lines["y"]
        assert 5 in df.use_lines["z"]

    @pytest.mark.parametrize("source,name,root", [
        ("def f(chunk):\n    v = chunk.frames[0]\n", "v", PARAM),
        ("def f(chunk):\n    v = memoryview(chunk.payload)\n", "v", PARAM),
        ("def f(chunk):\n    b = chunk.batch()\n", "b", PARAM),
        ("def f(self):\n    v = self.frames[0]\n", "v", SELF),
        ("def f():\n    s = bytearray(64)\n    v = memoryview(s)\n", "v",
         LOCAL),
    ])
    def test_buffer_taint_roots(self, source, name, root):
        df = build_dataflow(_fn(source), set())
        assert df.buffer_roots.get(name) == root

    def test_taint_propagates_through_rebinding(self):
        df = build_dataflow(_fn("""
def f(chunk):
    v = chunk.frames[0]
    w = v[4:8]
    x = w.cast('B')
"""), set())
        assert df.buffer_roots["w"] == PARAM
        assert df.buffer_roots["x"] == PARAM

    def test_global_backed_view_rooted_global(self):
        df = build_dataflow(
            _fn("def f():\n    v = memoryview(SCRATCH)\n"), {"SCRATCH"}
        )
        assert df.buffer_roots["v"] == GLOBAL

    def test_escape_to_self_attribute(self):
        df = build_dataflow(_fn("""
def f(self, chunk):
    self.stash = chunk.frames[0]
"""), set())
        assert [e.kind for e in df.escapes] == ["attr"]
        assert df.escapes[0].target == "self.stash"

    def test_escape_into_container(self):
        df = build_dataflow(_fn("""
def f(self, chunk):
    self.pending.append(chunk.frames[0])
"""), set())
        assert [e.kind for e in df.escapes] == ["container"]

    def test_owned_slice_does_not_escape(self):
        # The Chunk.__init__ pattern: slicing storage you just created.
        df = build_dataflow(_fn("""
def f(self, frames):
    store = bytearray().join(frames)
    view = memoryview(store)
    self.frames = [view[0:8]]
"""), set())
        assert df.escapes == []

    @pytest.mark.parametrize("stash", [
        "bytes(chunk.frames[0])",
        "chunk.frames[0].tobytes()",
        "[bytearray(f) for f in chunk.frames]",
        "list(map(bytearray, chunk.frames))",
    ])
    def test_copies_sanitize_the_escape(self, stash):
        df = build_dataflow(
            _fn(f"def f(self, chunk):\n    self.keep = {stash}\n"), set()
        )
        assert df.escapes == []

    def test_contains_foreign_buffer_names_the_view(self):
        fn = _fn("def f(self, chunk):\n    x = (1, chunk.frames[0])\n")
        df = build_dataflow(fn, set())
        value = fn.body[0].value
        assert contains_foreign_buffer(df, value, set()) == "chunk.frames[0]"
