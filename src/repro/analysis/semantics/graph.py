"""Import and call graphs over the linted project.

Middle layer of the semantic engine: the :class:`ImportGraph` answers
*which modules can see this state* (RL008's fork-reachability), the
:class:`CallGraph` answers *who calls whom* one resolved edge at a time
(RL011's interprocedural accounting search).  Both are built once per
lint run from the symbol table and shared by every rule.

Call edges are resolved conservatively: a call is recorded only when
the callee name resolves to a function or method the project defines —
``self.m(...)`` against the enclosing class, bare and imported names
through the symbol table, ``ClassName(...)`` to ``__init__``.  Calls
through values whose type is unknown simply contribute no edge, so
rules that consult the graph degrade to their intraprocedural answer
rather than guessing.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Set, Tuple

from repro.analysis.astutil import FunctionNode, dotted_name
from repro.analysis.semantics.symbols import ClassInfo, ModuleSymbols, SymbolTable


class ImportGraph:
    """Module-level import edges, project modules only."""

    def __init__(self, edges: Dict[str, FrozenSet[str]]) -> None:
        self.edges = edges

    @classmethod
    def build(cls, table: SymbolTable) -> "ImportGraph":
        edges: Dict[str, FrozenSet[str]] = {}
        for name, symbols in table.modules.items():
            targets: Set[str] = set()
            for qualified in symbols.imports.values():
                module, _ = table.split_qualified(qualified)
                if module is not None and module.name != name:
                    targets.add(module.name)
            edges[name] = frozenset(targets)
        return cls(edges)

    def reachable_from(self, roots: Iterable[str]) -> Set[str]:
        """Roots plus every module they transitively import."""
        seen: Set[str] = set()
        stack = [root for root in roots if root in self.edges]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(self.edges.get(name, ()))
        return seen


def iter_functions(
    symbols: ModuleSymbols,
) -> Iterator[Tuple[str, Optional[ClassInfo], FunctionNode]]:
    """``(qualified name, owning class or None, node)`` for every
    top-level function and method of a module."""
    for name, fn in symbols.functions.items():
        yield f"{symbols.name}.{name}", None, fn
    for info in symbols.classes.values():
        for name, fn in info.methods.items():
            yield f"{info.qualname}.{name}", info, fn


class CallGraph:
    """Resolved call edges between project functions and methods."""

    def __init__(self, table: SymbolTable) -> None:
        self.table = table
        self.functions: Dict[str, FunctionNode] = {}
        self.callees: Dict[str, FrozenSet[str]] = {}
        self.callers: Dict[str, FrozenSet[str]] = {}

    @classmethod
    def build(cls, table: SymbolTable) -> "CallGraph":
        graph = cls(table)
        for symbols in table.modules.values():
            for qualified, _, fn in iter_functions(symbols):
                graph.functions[qualified] = fn

        callers: Dict[str, Set[str]] = {}
        for symbols in table.modules.values():
            for qualified, info, fn in iter_functions(symbols):
                targets: Set[str] = set()
                for node in ast.walk(fn):
                    if not isinstance(node, ast.Call):
                        continue
                    callee = graph.resolve_call(symbols, info, node.func)
                    if callee is not None:
                        targets.add(callee)
                        callers.setdefault(callee, set()).add(qualified)
                graph.callees[qualified] = frozenset(targets)
        graph.callers = {
            name: frozenset(sources) for name, sources in callers.items()
        }
        return graph

    def resolve_call(
        self,
        symbols: ModuleSymbols,
        cls_info: Optional[ClassInfo],
        func: ast.expr,
    ) -> Optional[str]:
        """Qualified name of the project function a call expression
        targets, or ``None`` when it cannot be resolved."""
        name = dotted_name(func)
        if name is None:
            return None
        if cls_info is not None and name.startswith(("self.", "cls.")):
            method = name.split(".", 1)[1]
            if "." not in method and method in cls_info.methods:
                return f"{cls_info.qualname}.{method}"
            return None
        qualified = self.table.resolve(symbols, name)
        if qualified is None:
            return None
        if qualified in self.functions:
            return qualified
        # ``ClassName(...)`` constructs: edge to ``__init__`` if defined.
        info = self.table.lookup_class(qualified)
        if info is not None and "__init__" in info.methods:
            return f"{qualified}.__init__"
        return None

    def function(self, qualified: str) -> Optional[FunctionNode]:
        return self.functions.get(qualified)

    def callees_of(self, qualified: Optional[str]) -> FrozenSet[str]:
        if qualified is None:
            return frozenset()
        return self.callees.get(qualified, frozenset())

    def callers_of(self, qualified: Optional[str]) -> FrozenSet[str]:
        if qualified is None:
            return frozenset()
        return self.callers.get(qualified, frozenset())
