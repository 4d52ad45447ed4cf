"""RL012: shared-memory segments go through the managed primitive.

``multiprocessing.shared_memory.SharedMemory`` is the one POSIX-level
resource in the tree that outlives the process that forgot about it: a
segment without a paired ``close()``/``unlink()`` leaks ``/dev/shm``
space until reboot, and the interpreter's resource tracker emits noisy
(and racy) cleanup warnings at exit.  The repo therefore funnels every
segment through one managed primitive — :class:`repro.shm.Segment` —
which pairs the lifecycle calls, untracks attach-side handles, keeps
``unlink()`` owner-only and survives double-close; ``MetricSlab`` and
``ShmChunkPool`` are its users, linted like everyone else.

RL012 enforces the funnel.  Outside that module it flags:

* any bare ``SharedMemory(...)`` construction or attach, however the
  class was imported (module alias, ``from ... import SharedMemory``,
  fully dotted); and
* a module that constructs segments but never calls ``close()``
  (every handle must be closed), or creates segments
  (``create=True``) but never calls ``unlink()`` — the missing half
  of the pair is a leak even when the bare call itself was
  deliberately suppressed.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set, Tuple

from repro.analysis.astutil import dotted_name
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, register

#: Trailing path components of the sanctioned segment primitive.
SHM_MANAGED_TAILS = (("repro", "shm"),)

_HINT = (
    "go through the managed primitive — Segment (repro.shm), or its users "
    "MetricSlab (repro.obs.shm) for metric slabs and ShmChunkPool "
    "(repro.shard.pool) for chunk payloads; it pairs close()/unlink() and "
    "handles resource-tracker bookkeeping (docs/SHARDING.md)"
)


def _is_true_constant(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and bool(node.value)


class _ShmBindings:
    """Names a module has bound to the SharedMemory class or its module."""

    def __init__(self, tree: ast.AST) -> None:
        #: Local names bound to the SharedMemory class itself.
        self.classes: Set[str] = set()
        #: Local names bound to the multiprocessing.shared_memory module.
        self.modules: Set[str] = set()
        #: Line of the first shared-memory import (lifecycle anchor).
        self.import_line = 0
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name != "multiprocessing.shared_memory":
                        continue
                    # Unaliased, the binding is the full dotted path.
                    self.modules.add(alias.asname or alias.name)
                    self._note_import(node.lineno)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if (
                        node.module == "multiprocessing"
                        and alias.name == "shared_memory"
                    ):
                        self.modules.add(local)
                        self._note_import(node.lineno)
                    elif (
                        node.module == "multiprocessing.shared_memory"
                        and alias.name == "SharedMemory"
                    ):
                        self.classes.add(local)
                        self._note_import(node.lineno)

    def _note_import(self, lineno: int) -> None:
        if not self.import_line or lineno < self.import_line:
            self.import_line = lineno

    def is_construction(self, name: str) -> bool:
        """Whether a dotted call name constructs a SharedMemory handle."""
        if name in self.classes:
            return True
        head, sep, tail = name.rpartition(".")
        return bool(sep) and tail == "SharedMemory" and head in self.modules


def _segment_calls(
    module, bindings: _ShmBindings
) -> List[Tuple[ast.Call, bool]]:
    """``(call, creates)`` for every SharedMemory construction."""
    calls: List[Tuple[ast.Call, bool]] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None or not bindings.is_construction(name):
            continue
        creates = any(
            kw.arg == "create" and _is_true_constant(kw.value)
            for kw in node.keywords
        )
        calls.append((node, creates))
    return calls


def _lifecycle_methods(tree: ast.AST) -> Set[str]:
    """Method names the module ever invokes on some object."""
    seen: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            seen.add(node.func.attr)
    return seen


@register
class ShmLifecycleRule(Rule):
    rule_id = "RL012"
    title = "shared-memory segments bypass the managed pool helpers"

    def check(self, project) -> Iterable[Finding]:
        for module in project.modules:
            if module.parts[-2:] in SHM_MANAGED_TAILS:
                continue
            bindings = _ShmBindings(module.tree)
            if not bindings.classes and not bindings.modules:
                continue
            calls = _segment_calls(module, bindings)
            for node, creates in calls:
                verb = "creates" if creates else "attaches"
                yield module.finding(
                    self.rule_id, node.lineno,
                    f"bare SharedMemory(...) call {verb} a segment "
                    "outside the managed primitive",
                    hint=_HINT,
                )
            if not calls:
                continue
            # Lifecycle findings anchor to the import, not the call:
            # an inline ignore on the construction line waives the bare
            # call, never the leak.
            invoked = _lifecycle_methods(module.tree)
            anchor = bindings.import_line or calls[0][0].lineno
            if "close" not in invoked:
                yield module.finding(
                    self.rule_id, anchor,
                    "module holds SharedMemory handles but never calls "
                    "close() — the mapping leaks past process exit",
                    hint=_HINT,
                )
            if any(creates for _, creates in calls) and (
                "unlink" not in invoked
            ):
                yield module.finding(
                    self.rule_id, anchor,
                    "module creates SharedMemory segments but never calls "
                    "unlink() — /dev/shm space leaks until reboot",
                    hint=_HINT,
                )
