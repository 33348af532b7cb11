"""Rule ``pool-safety`` — nothing unpicklable crosses the process pool.

``run_replications(workers=N)`` and the campaign executor ship work
items through a :class:`concurrent.futures.ProcessPoolExecutor`.  A
lambda, a nested function, or a config object carrying a function-
valued default silently demotes the run to the sequential fallback (or
dies in the worker), so the parallel speedup evaporates without a test
failing.  This rule flags the statically visible shapes:

* a ``lambda`` or *nested* function passed as the callable of
  ``pool.submit(...)`` / ``pool.map(...)`` in any ``repro.*`` module
  that touches ``ProcessPoolExecutor``;
* the same shapes passed as the *policy factory* of
  ``run_replications`` / ``ExecutionBackend.run_seeds`` (second
  positional argument) or
  ``run_pool`` (third) calls inside the library — scripts and tests
  may rely on the logged sequential fallback, the library itself must
  not;
* a dataclass field whose **default value** is a lambda
  (``x: Callable = lambda: ...`` or ``field(default=lambda: ...)``):
  every instance then carries an unpicklable attribute into the work
  item.  ``field(default_factory=list)`` is fine — the factory runs at
  init time and only its (picklable) result is stored.

The sanctioned spelling for factories that must cross the boundary is
:class:`repro.experiments.PolicySpec` or any module-level
callable.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from ..astutil import dotted_name, walk_with_function
from ..findings import Finding
from .base import Rule

__all__ = ["PoolSafetyRule"]

_HINT = (
    "use a module-level callable or "
    "repro.experiments.PolicySpec; only picklable objects "
    "cross the ProcessPoolExecutor boundary"
)

#: callable-position argument index per pool-crossing call name.
_POOL_CALLS = {"submit": 0, "map": 0}
_RUNNER_CALLS = {
    "run_replications": 1,
    "run_seeds": 1,
    "run_pool": 2,
}


def _nested_function_names(tree: ast.Module) -> Set[str]:
    """Names of functions defined inside another function."""
    nested: Set[str] = set()
    for node, func in walk_with_function(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and func is not None:
            nested.add(node.name)
    return nested


def _lambda_bound_names(tree: ast.Module) -> Set[str]:
    """Names assigned a lambda anywhere in the module."""
    out: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out.add(target.id)
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.value, ast.Lambda)
            and isinstance(node.target, ast.Name)
        ):
            out.add(node.target.id)
    return out


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = dotted_name(target)
        if name is not None and name.split(".")[-1] == "dataclass":
            return True
    return False


def _references_pool(tree: ast.Module) -> bool:
    """Does the module mention ProcessPoolExecutor (import or use)?"""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "ProcessPoolExecutor":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "ProcessPoolExecutor":
            return True
        if isinstance(node, ast.ImportFrom):
            if any(a.name == "ProcessPoolExecutor" for a in node.names):
                return True
    return False


class PoolSafetyRule(Rule):
    name = "pool-safety"
    description = (
        "no lambdas, nested functions, or function-valued dataclass "
        "defaults may cross the ProcessPoolExecutor boundary"
    )

    def check_module(self, ctx) -> Iterator[Finding]:
        module = ctx.module
        if not (module == "repro" or module.startswith("repro.")):
            return
        if module.startswith("repro.lint"):
            return
        yield from self._check_dataclass_defaults(ctx)

        pool_module = _references_pool(ctx.tree)
        nested = _nested_function_names(ctx.tree)
        lambda_names = _lambda_bound_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee: Optional[str] = None
            if isinstance(node.func, ast.Attribute):
                callee = node.func.attr
            elif isinstance(node.func, ast.Name):
                callee = node.func.id
            if callee in _POOL_CALLS and isinstance(node.func, ast.Attribute):
                # only attribute form (pool.submit / pool.map) — the
                # builtin map() is not a pool call.
                if pool_module:
                    yield from self._check_callable_arg(
                        ctx, node, _POOL_CALLS[callee], callee, nested, lambda_names
                    )
            elif callee in _RUNNER_CALLS:
                yield from self._check_callable_arg(
                    ctx, node, _RUNNER_CALLS[callee], callee, nested, lambda_names
                )

    # ------------------------------------------------------------------
    def _check_callable_arg(
        self,
        ctx,
        call: ast.Call,
        index: int,
        callee: str,
        nested: Set[str],
        lambda_names: Set[str],
    ) -> Iterator[Finding]:
        if len(call.args) <= index:
            return
        arg = call.args[index]
        what: Optional[str] = None
        if isinstance(arg, ast.Lambda):
            what = "a lambda"
        elif isinstance(arg, ast.Name) and arg.id in nested:
            what = f"nested function {arg.id!r}"
        elif isinstance(arg, ast.Name) and arg.id in lambda_names:
            what = f"lambda-valued name {arg.id!r}"
        if what is not None:
            yield Finding(
                path=ctx.rel,
                line=call.lineno,
                col=call.col_offset,
                rule=self.name,
                message=(
                    f"{what} passed to {callee}() cannot cross the "
                    "process-pool boundary (unpicklable)"
                ),
                hint=_HINT,
            )

    def _check_dataclass_defaults(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef) or not _is_dataclass_decorated(node):
                continue
            for stmt in node.body:
                value: Optional[ast.AST] = None
                if isinstance(stmt, ast.AnnAssign):
                    value = stmt.value
                elif isinstance(stmt, ast.Assign):
                    value = stmt.value
                if value is None:
                    continue
                bad: Optional[ast.AST] = None
                if isinstance(value, ast.Lambda):
                    bad = value
                elif isinstance(value, ast.Call):
                    name = dotted_name(value.func)
                    if name is not None and name.split(".")[-1] == "field":
                        for kw in value.keywords:
                            if kw.arg == "default" and isinstance(
                                kw.value, ast.Lambda
                            ):
                                bad = kw.value
                if bad is not None:
                    yield Finding(
                        path=ctx.rel,
                        line=stmt.lineno,
                        col=stmt.col_offset,
                        rule=self.name,
                        message=(
                            f"dataclass {node.name} has a lambda-valued "
                            "default field — instances become unpicklable "
                            "work items"
                        ),
                        hint=_HINT,
                    )
