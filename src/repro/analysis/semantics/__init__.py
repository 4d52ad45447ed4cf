"""The reprolint semantic engine: symbols, graphs, dataflow.

Rules used to re-walk raw ASTs per file; the process-safety family
(RL008, RL009, RL011) needs cross-file answers — what a name resolves
to, which modules a fork would drag in, who calls whom, where a buffer
view escapes.  :class:`ProjectSemantics` is the shared build phase the
driver attaches to :class:`repro.analysis.driver.Project` as
``project.semantics``: built lazily once per lint run, memoized
per-function dataflow, queried by every rule.

Layers (bottom up, docs/STATIC_ANALYSIS.md "Engine architecture"):

* :mod:`repro.analysis.semantics.symbols` — per-module definitions and
  import bindings, qualified-name resolution across re-exports;
* :mod:`repro.analysis.semantics.graph` — module import graph
  (fork-reachability) and the resolved function call graph;
* :mod:`repro.analysis.semantics.dataflow` — per-function def-use
  chains, buffer-view taint with ownership roots, escape records.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Set, Tuple

from repro.analysis.astutil import FunctionNode
from repro.analysis.semantics.dataflow import (
    Escape,
    FunctionDataflow,
    build_dataflow,
)
from repro.analysis.semantics.graph import CallGraph, ImportGraph, iter_functions
from repro.analysis.semantics.symbols import (
    ClassInfo,
    GlobalDef,
    ModuleSymbols,
    SymbolTable,
    module_name,
)

__all__ = [
    "CallGraph",
    "ClassInfo",
    "Escape",
    "FunctionDataflow",
    "GlobalDef",
    "ImportGraph",
    "ModuleSymbols",
    "ProjectSemantics",
    "SymbolTable",
    "build_dataflow",
    "iter_functions",
    "module_name",
]


class ProjectSemantics:
    """The shared cross-file context rules query instead of raw ASTs."""

    def __init__(self, project) -> None:
        self.symbols = SymbolTable.build(project)
        self.imports = ImportGraph.build(self.symbols)
        self.calls = CallGraph.build(self.symbols)
        self._dataflow: Dict[int, FunctionDataflow] = {}

    def module(self, source) -> Optional[ModuleSymbols]:
        """The symbol entry for a driver SourceModule."""
        return self.symbols.by_relpath.get(source.relpath)

    def dataflow(
        self, symbols: ModuleSymbols, fn: FunctionNode
    ) -> FunctionDataflow:
        """Memoized dataflow pass for one function."""
        cached = self._dataflow.get(id(fn))
        if cached is None:
            cached = build_dataflow(fn, set(symbols.globals))
            self._dataflow[id(fn)] = cached
        return cached

    def functions(
        self,
    ) -> Iterator[Tuple[ModuleSymbols, str, Optional[ClassInfo], FunctionNode]]:
        """Every project function: (module, qualified, class, node)."""
        for symbols in self.symbols.modules.values():
            for qualified, info, fn in iter_functions(symbols):
                yield symbols, qualified, info, fn

    def modules_reachable_from_parts(self, parts: Set[str]) -> Set[str]:
        """Modules whose path contains one of ``parts``, plus everything
        they transitively import (the post-fork visibility set)."""
        roots = [
            symbols.name
            for symbols in self.symbols.modules.values()
            if any(part in parts for part in symbols.source.parts)
        ]
        return self.imports.reachable_from(roots)
