"""Consistency between the name catalogs, the source tree and a live run.

Metric names are the :mod:`repro.obs.names` constants and trace stages
the :class:`repro.obs.trace.Stages` constants.  A typo'd ``names.X``
raises and the shared-memory registry refuses off-catalog names, so
what is left to check is checked here: no call site passes a name as a
string literal, no catalog entry is orphaned, and everything a traced
run actually registers or records is a catalog name.
"""

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import repro
from repro.apps.ipv4 import IPv4Forwarder
from repro.core.framework import PacketShader
from repro.gen.workloads import ipv4_workload
from repro.obs import Stages, get_registry, names, reset_registry, reset_tracer

NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

SRC = Path(repro.__file__).resolve().parent
NAMES_PY = SRC / "obs" / "names.py"

#: Calls whose first argument names a metric (registry) or a stage
#: (tracer).
NAME_METHODS = frozenset({
    "counter", "gauge", "histogram", "value", "total", "record",
})


def _trees(
    root: Path, skip: Optional[Path] = None
) -> Iterator[Tuple[Path, ast.AST]]:
    for path in sorted(root.rglob("*.py")):
        if path != skip:
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def catalog_constants(module) -> Dict[str, str]:
    """``NAME -> value`` for a catalog module's string constants."""
    return {
        const: value for const, value in vars(module).items()
        if const.isupper() and isinstance(value, str)
    }


def orphan_constants(
    catalog: Dict[str, str], root: Path, catalog_path: Path
) -> List[str]:
    """Catalog constants nothing under ``root`` (outside the catalog
    module) refers to, by name or by value."""
    used = set()
    for _, tree in _trees(root, skip=catalog_path):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return sorted(
        const for const, value in catalog.items()
        if const not in used and value not in used
    )


def literal_name_calls(root: Path) -> List[str]:
    """``path:line`` of every registry/tracer call whose name argument
    is a string literal instead of a catalog constant."""
    hits = []
    for path, tree in _trees(root):
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in NAME_METHODS
            ):
                continue
            args = node.args[:1] + [
                kw.value for kw in node.keywords if kw.arg in ("name", "stage")
            ]
            if any(
                isinstance(arg, ast.JoinedStr)
                or (isinstance(arg, ast.Constant) and isinstance(arg.value, str))
                for arg in args
            ):
                hits.append(f"{path.relative_to(root)}:{node.lineno}")
    return hits


def test_catalog_values_follow_convention():
    assert names.METRIC_NAMES, "catalog must not be empty"
    for value in names.METRIC_NAMES:
        assert NAME_RE.match(value), value


def test_catalog_constants_mirror_values():
    for const, value in vars(names).items():
        if const.isupper() and isinstance(value, str):
            assert const == value.replace(".", "_").upper()


def test_live_registry_only_registers_catalog_names():
    reset_registry()
    tracer = reset_tracer()
    try:
        workload = ipv4_workload(num_routes=256)
        router = PacketShader(IPv4Forwarder(workload.table))
        frames = [workload.generator.random_ipv4_frame() for _ in range(64)]
        router.process_frames(frames)
        registered = {metric.name for metric in get_registry().collect()}
        assert registered, "the traced run must register metrics"
        assert registered <= names.METRIC_NAMES, (
            registered - names.METRIC_NAMES
        )
        # Every stage the run records is a Stages value.
        recorded = set(tracer.summary())
        assert recorded, "the traced run must record stages"
        assert recorded <= set(catalog_constants(Stages).values())
    finally:
        reset_registry()
        reset_tracer()


def test_every_catalog_constant_has_a_user():
    assert orphan_constants(catalog_constants(names), SRC, NAMES_PY) == []


def test_no_call_site_passes_a_literal_name():
    assert literal_name_calls(SRC) == []

