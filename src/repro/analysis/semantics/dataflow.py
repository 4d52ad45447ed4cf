"""Intraprocedural dataflow: def-use chains, buffer taint, escapes.

Top layer of the semantic engine.  For one function at a time this
module answers the questions the process-safety rules ask:

* **def-use** — where is each local name bound, where is it read;
* **buffer taint** — which names are bound to views into packet-buffer
  storage (``memoryview(...)``, ``chunk.frames``/slices of them,
  ``chunk.batch()``, ``np.frombuffer(...)``), and who *owns* the
  backing storage: a function **param** (foreign — the caller's chunk),
  ``self`` (the object's own store), or a **local** allocation;
* **escapes** — a param-rooted buffer view stored somewhere that
  outlives the call: an attribute, a container reached through
  ``self``/a param/a module global, or a global rebind.  Exactly the
  aliasing that dangles across ``replace_frame()`` or a future
  shared-memory remap (RL009).

The ownership-root distinction is what keeps the analysis compositional
(RacerD's lesson): a constructor slicing a ``memoryview`` of the
``bytearray`` it just joined is the *owner* and stays silent; an app
stashing ``chunk.frames[0]`` on ``self`` is aliasing storage it does
not own and is flagged.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.analysis.astutil import FunctionNode, dotted_name, function_body_walk

#: Attributes that expose a chunk's backing frame storage.
BUFFER_ATTRS = frozenset({"frames"})
#: Zero-copy view factories over an existing buffer.
VIEW_FACTORY_CALLS = frozenset({"memoryview"})
VIEW_FACTORY_DOTTED = frozenset({"np.frombuffer", "numpy.frombuffer"})
#: Methods returning a view over the receiver's storage.
VIEW_METHODS = frozenset({"batch"})
#: Methods propagating an existing view's storage.
VIEW_PASSTHROUGH_METHODS = frozenset({"cast", "toreadonly"})
#: In-place container mutators (escape sinks and RL008 write sites).
CONTAINER_MUTATORS = frozenset({
    "append", "appendleft", "add", "insert", "extend", "extendleft",
    "update", "setdefault", "push",
})
#: Calls that copy their argument into owned storage — a view passed
#: through one of these no longer aliases the original buffer, so the
#: escape walk must not descend into them (``bytes(frame)`` is the
#: sanctioned "copy before you keep" idiom).
COPY_CALLS = frozenset({"bytes", "bytearray"})
COPY_DOTTED = frozenset({"np.array", "numpy.array", "np.copy", "numpy.copy"})
COPY_METHODS = frozenset({"tobytes", "copy", "to_bytes"})

PARAM = "param"
SELF = "self"
LOCAL = "local"
GLOBAL = "global"


@dataclass
class Escape:
    """One buffer view stored beyond the current call's lifetime."""

    kind: str       # "attr" | "container" | "global"
    target: str     # the sink, as written ("self._stash")
    lineno: int
    detail: str     # what escaped ("chunk.frames[...] slice")


@dataclass
class FunctionDataflow:
    """Dataflow facts for one function body."""

    fn: FunctionNode
    params: Set[str] = field(default_factory=set)
    #: name -> value expressions bound to it (def sites).
    assigns: Dict[str, List[ast.expr]] = field(default_factory=dict)
    #: name -> linenos of each binding.
    def_lines: Dict[str, List[int]] = field(default_factory=dict)
    #: name -> linenos of each read.
    use_lines: Dict[str, List[int]] = field(default_factory=dict)
    #: name -> iterable expressions it was loop-bound from.
    loop_bindings: Dict[str, List[ast.expr]] = field(default_factory=dict)
    #: local container name -> values stored into it (``d[k] = v``,
    #: ``d.append(v)``) — content taint for locally-built containers.
    container_stores: Dict[str, List[ast.expr]] = field(default_factory=dict)
    #: names declared ``global`` in this function.
    global_decls: Set[str] = field(default_factory=set)
    #: buffer-tainted name -> ownership root.
    buffer_roots: Dict[str, str] = field(default_factory=dict)
    escapes: List[Escape] = field(default_factory=list)


def build_dataflow(
    fn: FunctionNode, module_globals: Set[str]
) -> FunctionDataflow:
    """Run the dataflow pass over one function."""
    df = FunctionDataflow(fn=fn)
    args = fn.args
    for arg in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    ):
        df.params.add(arg.arg)
    for arg in (args.vararg, args.kwarg):
        if arg is not None:
            df.params.add(arg.arg)

    statements = list(function_body_walk(fn))
    for node in statements:
        _record_bindings(df, node)
    _taint_fixpoint(df, module_globals)
    for node in statements:
        _record_escapes(df, node, module_globals)
    return df


def _bind(df: FunctionDataflow, name: str, value: Optional[ast.expr],
          lineno: int) -> None:
    df.assigns.setdefault(name, [])
    if value is not None:
        df.assigns[name].append(value)
    df.def_lines.setdefault(name, []).append(lineno)


def _target_names(target: ast.expr) -> List[ast.Name]:
    if isinstance(target, ast.Name):
        return [target]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[ast.Name] = []
        for elt in target.elts:
            names.extend(_target_names(elt))
        return names
    return []


def _record_bindings(df: FunctionDataflow, node: ast.AST) -> None:
    if isinstance(node, ast.Assign):
        for target in node.targets:
            for name in _target_names(target):
                _bind(df, name.id, node.value, node.lineno)
            if isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                df.container_stores.setdefault(
                    target.value.id, []
                ).append(node.value)
    elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
        call = node.value
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in CONTAINER_MUTATORS
            and isinstance(call.func.value, ast.Name)
        ):
            df.container_stores.setdefault(
                call.func.value.id, []
            ).extend(call.args)
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        _bind(df, node.target.id, node.value, node.lineno)
    elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
        _bind(df, node.target.id, node.value, node.lineno)
    elif isinstance(node, (ast.For, ast.AsyncFor)):
        for name in _target_names(node.target):
            _bind(df, name.id, None, node.lineno)
            df.loop_bindings.setdefault(name.id, []).append(node.iter)
    elif isinstance(node, (ast.With, ast.AsyncWith)):
        for item in node.items:
            if item.optional_vars is not None:
                for name in _target_names(item.optional_vars):
                    _bind(df, name.id, item.context_expr, node.lineno)
    elif isinstance(node, ast.Global):
        df.global_decls.update(node.names)
    elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        df.use_lines.setdefault(node.id, []).append(node.lineno)


def base_root(
    df: FunctionDataflow, expr: ast.AST, module_globals: Set[str]
) -> str:
    """Ownership root of the storage an expression reaches."""
    if isinstance(expr, ast.Name):
        if expr.id in ("self", "cls"):
            return SELF
        if expr.id in df.buffer_roots:
            return df.buffer_roots[expr.id]
        if expr.id in df.params:
            return PARAM
        if expr.id in df.global_decls or (
            expr.id in module_globals and expr.id not in df.assigns
        ):
            return GLOBAL
        return LOCAL
    if isinstance(expr, (ast.Attribute, ast.Subscript, ast.Starred)):
        return base_root(df, expr.value, module_globals)
    if isinstance(expr, ast.Call):
        if isinstance(expr.func, ast.Attribute):
            return base_root(df, expr.func.value, module_globals)
        return LOCAL
    return LOCAL


def buffer_root(
    df: FunctionDataflow, expr: ast.AST, module_globals: Set[str]
) -> Optional[str]:
    """Ownership root when the expression is a buffer view, else None."""
    if isinstance(expr, ast.Name):
        return df.buffer_roots.get(expr.id)
    if isinstance(expr, ast.Subscript):
        return buffer_root(df, expr.value, module_globals)
    if isinstance(expr, ast.Attribute):
        if expr.attr in BUFFER_ATTRS:
            return base_root(df, expr.value, module_globals)
        return None
    if isinstance(expr, ast.Call):
        name = dotted_name(expr.func)
        if name in VIEW_FACTORY_CALLS or name in VIEW_FACTORY_DOTTED:
            if expr.args:
                return base_root(df, expr.args[0], module_globals)
            return None
        if isinstance(expr.func, ast.Attribute):
            if expr.func.attr in VIEW_METHODS:
                return base_root(df, expr.func.value, module_globals)
            if expr.func.attr in VIEW_PASSTHROUGH_METHODS:
                return buffer_root(df, expr.func.value, module_globals)
    return None


def _is_copy(expr: ast.AST) -> bool:
    """The expression copies its input into owned storage.

    Covers the direct call (``bytes(f)``), the per-element idioms
    (``[bytearray(f) for f in frames]``, ``map(bytearray, frames)``),
    and copying methods (``view.tobytes()``).
    """
    if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        return _is_copy(expr.elt)
    if not isinstance(expr, ast.Call):
        return False
    name = dotted_name(expr.func)
    if name is not None and (name in COPY_CALLS or name in COPY_DOTTED):
        return True
    if name == "map" and expr.args:
        first = expr.args[0]
        return isinstance(first, ast.Name) and first.id in COPY_CALLS
    return (
        isinstance(expr.func, ast.Attribute)
        and expr.func.attr in COPY_METHODS
    )


def contains_foreign_buffer(
    df: FunctionDataflow, expr: ast.AST, module_globals: Set[str]
) -> Optional[str]:
    """A human-readable description of a param-rooted buffer view inside
    the expression, or None when it holds none.  Subtrees under a
    copying call (``bytes(view)``, ``view.tobytes()``...) are skipped:
    what they yield is owned, not borrowed."""
    stack = [expr]
    while stack:
        sub = stack.pop()
        if _is_copy(sub):
            continue
        if buffer_root(df, sub, module_globals) == PARAM:
            try:
                return ast.unparse(sub)
            except Exception:  # pragma: no cover - unparse is total on 3.9+
                return "<buffer view>"
        stack.extend(ast.iter_child_nodes(sub))
    return None


def _taint_fixpoint(df: FunctionDataflow, module_globals: Set[str]) -> None:
    def taint(name: str, root: Optional[str]) -> bool:
        if root is None or df.buffer_roots.get(name) == root:
            return False
        # A param-rooted binding never downgrades to local.
        if df.buffer_roots.get(name) == PARAM:
            return False
        df.buffer_roots[name] = root
        return True

    for _ in range(8):
        changed = False
        for name, values in df.assigns.items():
            for value in values:
                changed |= taint(
                    name, buffer_root(df, value, module_globals)
                )
        # Iterating a buffer container yields buffer views
        # (``for frame in chunk.frames``).
        for name, iters in df.loop_bindings.items():
            for iterable in iters:
                changed |= taint(
                    name, buffer_root(df, iterable, module_globals)
                )
        # A locally-built container holding foreign views is itself
        # foreign freight (``originals[i] = chunk.frames[i]``).
        for name, values in df.container_stores.items():
            for value in values:
                if _is_copy(value):
                    continue
                changed |= taint(
                    name, buffer_root(df, value, module_globals)
                )
        if not changed:
            return


def _sink_root(
    df: FunctionDataflow, expr: ast.AST, module_globals: Set[str]
) -> str:
    """Ownership of an escape *sink* — like :func:`base_root` but
    without the content-taint lookup: a local container that merely
    holds borrowed views is still locally owned (storing more into it
    is not an escape; binding it to ``self`` is, and the attr/global
    checks catch that moment)."""
    while isinstance(expr, (ast.Attribute, ast.Subscript, ast.Starred)):
        expr = expr.value
    if isinstance(expr, ast.Call):
        if isinstance(expr.func, ast.Attribute):
            return _sink_root(df, expr.func.value, module_globals)
        return LOCAL
    if isinstance(expr, ast.Name):
        if expr.id in ("self", "cls"):
            return SELF
        if expr.id in df.params:
            return PARAM
        if expr.id in df.global_decls or (
            expr.id in module_globals and expr.id not in df.assigns
        ):
            return GLOBAL
    return LOCAL


def _record_escapes(
    df: FunctionDataflow, node: ast.AST, module_globals: Set[str]
) -> None:
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        value = node.value
        if value is None:
            return
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        detail = contains_foreign_buffer(df, value, module_globals)
        if detail is None:
            return
        for target in targets:
            if isinstance(target, ast.Attribute):
                owner = _sink_root(df, target.value, module_globals)
                if owner in (SELF, PARAM, GLOBAL):
                    df.escapes.append(Escape(
                        "attr", _text(target), node.lineno, detail
                    ))
            elif isinstance(target, ast.Subscript):
                owner = _sink_root(df, target.value, module_globals)
                if owner in (SELF, PARAM, GLOBAL):
                    df.escapes.append(Escape(
                        "container", _text(target), node.lineno, detail
                    ))
            elif isinstance(target, ast.Name) and (
                target.id in df.global_decls
                or (target.id in module_globals
                    and target.id not in df.params)
            ):
                if target.id in module_globals or target.id in df.global_decls:
                    df.escapes.append(Escape(
                        "global", target.id, node.lineno, detail
                    ))
    elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
        call = node.value
        if not isinstance(call.func, ast.Attribute):
            return
        if call.func.attr not in CONTAINER_MUTATORS:
            return
        receiver = call.func.value
        owner = _sink_root(df, receiver, module_globals)
        if owner not in (SELF, PARAM, GLOBAL):
            return
        for arg in call.args:
            detail = contains_foreign_buffer(df, arg, module_globals)
            if detail is not None:
                df.escapes.append(Escape(
                    "container", _text(receiver), node.lineno, detail
                ))
                return


def _text(expr: ast.AST) -> str:
    try:
        return ast.unparse(expr)
    except Exception:  # pragma: no cover
        return "<expr>"
