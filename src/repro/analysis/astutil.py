"""Small AST helpers shared by the reprolint rules."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def last_ident(node: ast.AST) -> Optional[str]:
    """The terminal identifier of an expression (``x.y[0].z`` -> ``z``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def chain_text(node: ast.AST) -> str:
    """Every identifier appearing in an expression, space-joined.

    A fuzzy haystack for token checks (``self._m_drops[queue].inc`` ->
    ``"self _m_drops queue inc"``), robust to subscripts and calls that
    break a strict dotted-chain walk.
    """
    idents: List[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            idents.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            idents.append(sub.attr)
    return " ".join(idents)


def walk_functions(tree: ast.AST) -> Iterator[FunctionNode]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def function_body_walk(fn: FunctionNode) -> Iterator[ast.AST]:
    """Walk a function's own body without descending into nested defs."""
    stack: List[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))
