"""Rule ``float-compare`` — no ``==``/``!=`` between float expressions.

The analytical layer (``repro.queueing``) and the fluid engine
(``repro.sim.fluid``) are where the DES-vs-analytical agreement of the
paper is computed; an exact equality between quantities that went
through division, ``math`` transcendentals, or non-representable
literals is a latent cross-platform break (the same expression can
differ in the last ulp between libm builds and numpy versions).

Flagged: an ``==`` / ``!=`` whose either side is visibly float-valued
— a non-zero float literal, an expression containing true division, or
a ``math.sqrt``/``exp``/``log``-style call.

Deliberately exempt (the sound sentinel idioms this codebase uses):

* comparisons against exact zero (``rho == 0.0``) — zero is exactly
  representable, and these guard division-by-zero for values that are
  *constructed*, not computed, to be zero;
* integrality checks ``int(n) != n`` — exact by construction;
* any comparison with no visibly-float side (``n == 0`` on an int).

The remediation is :func:`math.isclose` (or an explicit tolerance),
hence the hint.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from ..astutil import dotted_name
from ..findings import Finding
from .base import Rule

__all__ = ["FloatCompareRule", "applies_to"]

#: module (prefix) scope of the rule.
_SCOPES = ("repro.queueing", "repro.sim.fluid")

_HINT = (
    "use math.isclose(a, b, rel_tol=..., abs_tol=...) or an explicit "
    "tolerance; exact comparison is only sound against a constructed "
    "sentinel like 0.0"
)

#: math-module calls whose results are never exact.
_MATH_FLOAT_CALLS = frozenset(
    {"sqrt", "exp", "expm1", "log", "log1p", "log2", "log10", "pow", "hypot", "fsum"}
)


def applies_to(module: str) -> bool:
    return module == "repro.sim.fluid" or (
        module == "repro.queueing" or module.startswith("repro.queueing.")
    )


def _is_exact_zero(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
        and float(node.value) == 0.0
    )


def _is_int_call(node: ast.AST) -> bool:
    """``int(x)`` / ``math.floor(x)`` — the integrality-check idiom."""
    if not isinstance(node, ast.Call):
        return False
    name = dotted_name(node.func)
    return name in ("int", "round", "math.floor", "math.ceil", "math.trunc")


def _is_floaty(node: ast.AST) -> bool:
    """Is this expression visibly float-valued (inexact)?"""
    if isinstance(node, ast.Constant):
        return (
            isinstance(node.value, float)
            and node.value != 0.0
        )
    if isinstance(node, ast.UnaryOp):
        return _is_floaty(node.operand)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True
        return _is_floaty(node.left) or _is_floaty(node.right)
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is None:
            return False
        parts = name.split(".")
        if len(parts) == 2 and parts[0] == "math" and parts[1] in _MATH_FLOAT_CALLS:
            return True
        return name == "float"
    return False


class FloatCompareRule(Rule):
    name = "float-compare"
    description = (
        "no ==/!= between float expressions in repro.queueing / "
        "repro.sim.fluid; use math.isclose"
    )

    def check_module(self, ctx) -> Iterator[Finding]:
        if not applies_to(ctx.module):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                pair: Tuple[ast.AST, ast.AST] = (left, right)
                left = right  # advance for chained comparisons
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                a, b = pair
                if _is_exact_zero(a) or _is_exact_zero(b):
                    continue  # zero-sentinel idiom
                if _is_int_call(a) or _is_int_call(b):
                    continue  # integrality check: int(n) != n
                if _is_floaty(a) or _is_floaty(b):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield Finding(
                        path=ctx.rel,
                        line=node.lineno,
                        col=node.col_offset,
                        rule=self.name,
                        message=(
                            f"float {symbol} comparison in {ctx.module}; "
                            "exact float equality is unstable across "
                            "platforms"
                        ),
                        hint=_HINT,
                    )
