"""The project-wide symbol table: what every module defines and imports.

This is the bottom layer of the semantic engine (docs/STATIC_ANALYSIS.md,
"Engine architecture").  One pass over each parsed module records its
top-level functions, classes (with their methods and class-body
attributes), module-level assignments, and import bindings — everything
a rule needs to answer "what does the name written *here* refer to,
project-wide?" without importing the code under analysis.

Symbols are addressed by *qualified name*: the module's dotted name
(``src/repro/core/chunk.py`` -> ``repro.core.chunk``) joined with the
local path (``repro.core.chunk.Chunk.batch``).  Resolution follows
import chains across modules, including re-exports through package
``__init__`` files, so ``from repro.core import Chunk`` resolves to the
class's defining module.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.astutil import FunctionNode


def module_name(relpath: str) -> str:
    """Dotted module name for a lint-relative path.

    Leading ``src``/``lib`` layout directories are stripped, so the
    name matches what import statements in the tree actually say.
    """
    parts = relpath.split("/")
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    while parts and parts[0] in ("src", "lib"):
        parts = parts[1:]
    return ".".join(parts) or relpath


@dataclass
class GlobalDef:
    """One module-level binding (``NAME = <expr>``)."""

    name: str
    lineno: int
    value: Optional[ast.expr]


@dataclass
class ClassInfo:
    """One class definition with its methods and class-body attributes."""

    qualname: str
    module: "ModuleSymbols"
    node: ast.ClassDef
    methods: Dict[str, FunctionNode] = field(default_factory=dict)
    #: Class-body assignments: name -> (stmt, value expr).
    class_attrs: Dict[str, Tuple[ast.stmt, Optional[ast.expr]]] = field(
        default_factory=dict
    )

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class ModuleSymbols:
    """Everything one module defines, plus its import bindings."""

    name: str
    source: object  # the driver's SourceModule
    functions: Dict[str, FunctionNode] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    globals: Dict[str, GlobalDef] = field(default_factory=dict)
    #: Local name -> qualified target ("repro.net.frames" for a module,
    #: "repro.net.frames.FrameBatch" for an imported symbol).
    imports: Dict[str, str] = field(default_factory=dict)

    @property
    def package(self) -> str:
        """The package this module lives in (itself, for ``__init__``)."""
        if self.source.path.name == "__init__.py":
            return self.name
        return self.name.rpartition(".")[0]


def _record_module_body(symbols: ModuleSymbols, tree: ast.Module) -> None:
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            symbols.functions[stmt.name] = stmt
        elif isinstance(stmt, ast.ClassDef):
            info = ClassInfo(
                qualname=f"{symbols.name}.{stmt.name}",
                module=symbols,
                node=stmt,
            )
            for member in stmt.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info.methods[member.name] = member
                elif isinstance(member, ast.Assign):
                    for target in member.targets:
                        if isinstance(target, ast.Name):
                            info.class_attrs[target.id] = (member, member.value)
                elif isinstance(member, ast.AnnAssign) and isinstance(
                    member.target, ast.Name
                ):
                    info.class_attrs[member.target.id] = (member, member.value)
            symbols.classes[stmt.name] = info
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    symbols.globals[target.id] = GlobalDef(
                        target.id, stmt.lineno, stmt.value
                    )
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            symbols.globals[stmt.target.id] = GlobalDef(
                stmt.target.id, stmt.lineno, stmt.value
            )


def _record_imports(symbols: ModuleSymbols, tree: ast.Module) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    symbols.imports[alias.asname] = alias.name
                else:
                    # ``import a.b`` binds the top package name ``a``.
                    head = alias.name.split(".")[0]
                    symbols.imports[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                package_parts = symbols.package.split(".")
                if node.level > 1:
                    package_parts = package_parts[: -(node.level - 1)]
                base = ".".join(
                    p for p in package_parts + [node.module or ""] if p
                )
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                symbols.imports[local] = (
                    f"{base}.{alias.name}" if base else alias.name
                )


class SymbolTable:
    """Qualified-name lookup over every linted module."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleSymbols] = {}
        self.by_relpath: Dict[str, ModuleSymbols] = {}

    @classmethod
    def build(cls, project) -> "SymbolTable":
        table = cls()
        for source in project.modules:
            symbols = ModuleSymbols(
                name=module_name(source.relpath), source=source
            )
            _record_module_body(symbols, source.tree)
            _record_imports(symbols, source.tree)
            table.modules[symbols.name] = symbols
            table.by_relpath[source.relpath] = symbols
        return table

    # -- resolution -----------------------------------------------------

    def split_qualified(
        self, qualified: str
    ) -> Tuple[Optional[ModuleSymbols], List[str]]:
        """``(defining module, local parts)`` for a qualified name.

        The module is the longest dotted prefix the table knows;
        ``repro.core.chunk.Chunk.batch`` -> (chunk module, ["Chunk",
        "batch"]).
        """
        parts = qualified.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                return self.modules[prefix], parts[cut:]
        return None, parts

    def resolve(
        self, symbols: ModuleSymbols, dotted: str, _seen: Optional[Set[str]] = None
    ) -> Optional[str]:
        """Fully qualified name for a dotted name written in ``symbols``.

        Follows import chains (including ``__init__`` re-exports) until
        the defining module is reached; returns ``None`` for names the
        project does not define (stdlib, third-party, builtins).
        """
        head, _, rest = dotted.partition(".")
        if head in symbols.functions or head in symbols.classes or (
            head in symbols.globals
        ):
            return f"{symbols.name}.{dotted}"
        target = symbols.imports.get(head)
        if target is None:
            return None
        qualified = f"{target}.{rest}" if rest else target
        return self._chase(qualified, _seen or set())

    def _chase(self, qualified: str, seen: Set[str]) -> Optional[str]:
        """Normalize a qualified name through re-export chains."""
        if qualified in seen:
            return qualified
        seen.add(qualified)
        module, local = self.split_qualified(qualified)
        if module is None or not local:
            return qualified if module is not None else None
        head = local[0]
        if head in module.functions or head in module.classes or (
            head in module.globals
        ):
            return qualified
        target = module.imports.get(head)
        if target is None:
            return None
        rest = ".".join(local[1:])
        return self._chase(f"{target}.{rest}" if rest else target, seen)

    def lookup_class(self, qualified: Optional[str]) -> Optional[ClassInfo]:
        if qualified is None:
            return None
        module, local = self.split_qualified(qualified)
        if module is None or len(local) != 1:
            return None
        return module.classes.get(local[0])
