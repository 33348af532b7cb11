"""Small AST helpers shared by the rules."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

__all__ = [
    "dotted_name",
    "body_imports",
    "walk_with_function",
    "prefix_hit",
]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return ".".join(parts)
    return None


def _absolute_import(module: str, node: ast.ImportFrom) -> str:
    """Resolve an ``ast.ImportFrom`` to an absolute dotted module."""
    if node.level == 0:
        return node.module or ""
    package = module.rsplit(".", node.level)[0] if "." in module else ""
    if node.module:
        return f"{package}.{node.module}" if package else node.module
    return package


def body_imports(tree: ast.Module, module: str) -> Iterator[Tuple[int, str]]:
    """(lineno, absolute dotted target) per *module-body* import.

    Only the top level of the module counts — imports nested inside
    functions, methods or ``if TYPE_CHECKING:`` blocks do not execute
    at import time and are deliberate cycle-breakers/typing aids.
    ``from pkg import sub`` also yields ``pkg.sub`` per alias, since
    the alias may name a submodule.
    """
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = _absolute_import(module, node)
            yield node.lineno, base
            for alias in node.names:
                if base:
                    yield node.lineno, f"{base}.{alias.name}"


def walk_with_function(
    tree: ast.Module,
) -> Iterator[Tuple[ast.AST, Optional[ast.AST]]]:
    """Yield ``(node, enclosing_function)`` pairs for the whole tree.

    ``enclosing_function`` is the innermost FunctionDef/AsyncFunctionDef
    containing the node (None at module/class level).
    """
    def visit(node: ast.AST, func: Optional[ast.AST]) -> Iterator:
        for child in ast.iter_child_nodes(node):
            yield child, func
            inner = (
                child
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                else func
            )
            yield from visit(child, inner)

    yield from visit(tree, None)


def prefix_hit(target: str, prefixes: Tuple[str, ...]) -> bool:
    """True when ``target`` equals or lives under any dotted prefix."""
    return any(target == p or target.startswith(p + ".") for p in prefixes)
