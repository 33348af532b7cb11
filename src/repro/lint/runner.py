"""Lint runner — discovery, parsing, rule dispatch, suppression.

:func:`run_lint` is the programmatic entry point (the CLI's ``repro
lint`` sits on it):

1. expand the given paths into ``.py`` files (directories recurse);
2. resolve each file's *dotted module name* by walking up through
   ``__init__.py`` packages (``src/repro/sim/rng.py`` →
   ``repro.sim.rng``, a test file outside any package → its bare stem;
   rules key their applicability on that name, which is why linting
   ``tests/`` is safe);
3. parse each file into a :class:`ModuleContext` and run every rule's
   ``check_module`` on it — every rule is per-module;
4. a file that does not parse is *not* an internal error: it becomes a
   per-file ``parse-error`` finding (exit 1), so one broken file never
   masks the findings in every other file;
5. drop findings silenced by inline ``# reprolint: disable=`` comments.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import LintError
from .findings import Finding
from .rules import Rule, build_rules
from .suppress import is_suppressed, line_suppressions

__all__ = [
    "ModuleContext",
    "LintResult",
    "run_lint",
    "module_name_for",
    "PARSE_ERROR_RULE",
]

#: Pseudo-rule id carried by findings for files that fail to parse.
PARSE_ERROR_RULE = "parse-error"

_PARSE_HINT = "fix the syntax error; the file was skipped by every rule"


@dataclass
class ModuleContext:
    """Everything a rule may want to know about one scanned file."""

    path: Path
    #: Display path — relative to the lint root, POSIX slashes.
    rel: str
    #: Dotted module name (``repro.sim.rng``) or the bare stem for
    #: files outside any package.
    module: str
    tree: ast.Module
    lines: List[str]


@dataclass
class LintResult:
    """Outcome of one :func:`run_lint` call."""

    findings: List[Finding]
    files: int
    suppressed: int
    rules: List[str]


def module_name_for(path: Path) -> str:
    """Dotted module name of ``path`` by walking up the package chain."""
    path = path.resolve()
    parts = [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    parts.reverse()
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def discover_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    seen = set()
    out: List[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            candidates: Iterable[Path] = sorted(p.rglob("*.py"))
        elif p.is_file():
            if p.suffix != ".py":
                raise LintError(f"not a Python file: {p}")
            candidates = [p]
        else:
            raise LintError(f"path not found: {p}")
        for c in candidates:
            r = c.resolve()
            if r not in seen:
                seen.add(r)
                out.append(c)
    return out


def _relative(path: Path, root: Path) -> str:
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        return path.as_posix()
    return rel.as_posix()


def _analyze(
    path: Path, rel: str, data: bytes, rule_objs: List[Rule]
) -> Tuple[List[Finding], Dict[int, FrozenSet[str]]]:
    """Parse one file and run every rule on it.

    Returns ``(findings, suppressions)``; a file that does not parse
    yields one ``parse-error`` finding and no suppressions.
    """
    try:
        source = data.decode("utf-8")
        tree = ast.parse(source, filename=str(path))
    except (SyntaxError, UnicodeDecodeError) as exc:
        line = getattr(exc, "lineno", None) or 1
        col = getattr(exc, "offset", None) or 0
        message = getattr(exc, "msg", None) or str(exc)
        finding = Finding(
            path=rel,
            line=int(line),
            col=int(col),
            rule=PARSE_ERROR_RULE,
            message=f"file does not parse: {message}",
            hint=_PARSE_HINT,
        )
        return [finding], {}
    ctx = ModuleContext(
        path=path,
        rel=rel,
        module=module_name_for(path),
        tree=tree,
        lines=source.splitlines(),
    )
    findings: List[Finding] = []
    for rule in rule_objs:
        try:
            findings.extend(rule.check_module(ctx))
        except LintError:
            raise
        except Exception as exc:  # noqa: BLE001 - rule bug => internal error
            raise LintError(
                f"rule {rule.name!r} crashed on {ctx.rel}: {exc!r}"
            ) from exc
    return findings, line_suppressions(ctx.lines)


def run_lint(
    paths: Sequence[Union[str, Path]],
    rules: Optional[Sequence[str]] = None,
    root: Optional[Union[str, Path]] = None,
) -> LintResult:
    """Lint ``paths`` with the named rules (default: all of ``RULES``).

    Raises :class:`~repro.errors.LintError` for usage/internal problems
    (missing paths, unknown or no rules, unreadable files) — the condition
    the CLI maps to exit code 2, distinct from "findings exist" (1).
    Unparsable source is *not* in that class: it surfaces as a
    ``parse-error`` finding on the offending file.
    """
    root_path = Path(root) if root is not None else Path(os.getcwd())
    rule_objs: List[Rule] = build_rules(rules)
    files = discover_files(paths)

    kept: List[Finding] = []
    suppressed = 0
    for path in files:
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise LintError(f"cannot read {path}: {exc}") from None
        findings, table = _analyze(path, _relative(path, root_path), data, rule_objs)
        for finding in findings:
            if table and is_suppressed(finding.rule, finding.line, table):
                suppressed += 1
            else:
                kept.append(finding)
    return LintResult(
        findings=sorted(kept),
        files=len(files),
        suppressed=suppressed,
        rules=[r.name for r in rule_objs],
    )
