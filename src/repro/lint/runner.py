"""Lint driver — discovery, parsing, caching, rule dispatch, suppression.

:func:`run_lint` is the programmatic entry point (the CLI's ``repro
lint`` sits on it):

1. expand the given paths into ``.py`` files (directories recurse);
2. resolve each file's *dotted module name* by walking up through
   ``__init__.py`` packages (``src/repro/sim/rng.py`` →
   ``repro.sim.rng``, a test file outside any package → its bare stem;
   rules key their applicability on that name, which is why linting
   ``tests/`` is safe);
3. consult the incremental cache (:mod:`repro.lint.cache`, keyed by
   content sha256 and module name — opt-in via ``cache_path``): a hit
   replays the file's per-rule findings, suppressions and
   whole-program facts without re-parsing; a miss parses the file into
   a :class:`ModuleContext`, runs every rule's ``check_module`` and
   extracts :func:`~repro.lint.program.extract_facts`;
4. a file that does not parse is *not* an internal error: it becomes a
   per-file ``parse-error`` finding (exit 1), so one broken file never
   masks the findings in every other file;
5. give each rule a :meth:`~repro.lint.rules.base.Rule.finalize` pass
   over the whole :class:`Project` — cross-module checks consume the
   facts table (cached files included), never the ASTs, which only
   exist for freshly-parsed files;
6. drop findings silenced by inline ``# reprolint: disable=`` comments.
"""

from __future__ import annotations

import ast
import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Union

from ..errors import LintError
from .findings import Finding
from .program import ProgramIndex, extract_facts
from .rules import Rule, build_rules
from .suppress import ALL_RULES, is_suppressed, line_suppressions

__all__ = [
    "ModuleContext",
    "Project",
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

    @property
    def suppressions(self) -> Dict[int, FrozenSet[str]]:
        cached = getattr(self, "_suppressions", None)
        if cached is None:
            cached = line_suppressions(self.lines)
            object.__setattr__(self, "_suppressions", cached)
        return cached


@dataclass
class Project:
    """All scanned modules, for whole-program rule passes.

    Whole-program rules work from ``facts``, which covers every scanned
    file, cache hits included; no AST outlives its file's analysis.
    """

    #: rel path → :func:`~repro.lint.program.extract_facts` record
    #: (``None`` for files that failed to parse).
    facts: Dict[str, Optional[dict]] = field(default_factory=dict)

    @property
    def index(self) -> ProgramIndex:
        """Lazily-built symbol table / call graph over :attr:`facts`."""
        cached = getattr(self, "_index", None)
        if cached is None:
            cached = ProgramIndex(
                {rel: f for rel, f in self.facts.items() if f is not None}
            )
            object.__setattr__(self, "_index", cached)
        return cached


@dataclass
class LintResult:
    """Outcome of one :func:`run_lint` call."""

    findings: List[Finding]
    files: int
    suppressed: int
    rules: List[str]
    #: Files analyzed fresh this run (parse + check_module + facts).
    parsed: int = 0
    #: Files replayed from the incremental cache.
    cached: int = 0


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


def _encode_suppressions(table: Dict[int, FrozenSet[str]]) -> Dict[str, List[str]]:
    return {str(line): sorted(rules) for line, rules in table.items()}


def _decode_suppressions(data: Dict[str, List[str]]) -> Dict[int, FrozenSet[str]]:
    out: Dict[int, FrozenSet[str]] = {}
    for line, rules in data.items():
        names = frozenset(rules)
        out[int(line)] = ALL_RULES if "all" in names else names
    return out


def _analyze(
    path: Path, rel: str, module: str, data: bytes, rule_objs: List[Rule]
) -> dict:
    """Fresh per-file analysis: parse, per-module rules, facts.

    Returns the cacheable record.
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
        return {
            "module": module,
            "parse_error": finding.to_dict(),
            "findings": {},
            "suppressions": {},
            "facts": None,
        }
    ctx = ModuleContext(
        path=path,
        rel=rel,
        module=module,
        tree=tree,
        lines=source.splitlines(),
    )
    findings: Dict[str, List[dict]] = {}
    for rule in rule_objs:
        try:
            found = [f.to_dict() for f in rule.check_module(ctx)]
        except LintError:
            raise
        except Exception as exc:  # noqa: BLE001 - rule bug => internal error
            raise LintError(
                f"rule {rule.name!r} crashed on {ctx.rel}: {exc!r}"
            ) from exc
        if found:
            findings[rule.name] = found
    return {
        "module": ctx.module,
        "parse_error": None,
        "findings": findings,
        "suppressions": _encode_suppressions(ctx.suppressions),
        "facts": extract_facts(ctx),
    }


def run_lint(
    paths: Sequence[Union[str, Path]],
    rules: Optional[Sequence[str]] = None,
    root: Optional[Union[str, Path]] = None,
    cache_path: Optional[Union[str, Path]] = None,
) -> LintResult:
    """Lint ``paths`` with the named rules (default: all of ``RULES``).

    ``cache_path`` enables the incremental cache (see
    :mod:`repro.lint.cache`); ``None`` — the default, and what fixture
    tests want — analyzes everything fresh and writes nothing.

    Raises :class:`~repro.errors.LintError` for usage/internal problems
    (missing paths, unknown or no rules, unreadable files) — the condition
    the CLI maps to exit code 2, distinct from "findings exist" (1).
    Unparsable source is *not* in that class: it surfaces as a
    ``parse-error`` finding on the offending file.
    """
    from .cache import LintCache, cache_signature

    root_path = Path(root) if root is not None else Path(os.getcwd())
    rule_objs: List[Rule] = build_rules(rules)
    active = [r.name for r in rule_objs]
    files = discover_files(paths)
    cache = (
        LintCache(Path(cache_path), cache_signature(active))
        if cache_path is not None
        else None
    )

    project = Project()
    records: List[dict] = []
    parsed = cached = 0
    for path in files:
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise LintError(f"cannot read {path}: {exc}") from None
        rel = _relative(path, root_path)
        module = module_name_for(path)
        sha = hashlib.sha256(data).hexdigest()
        record = cache.get(rel, sha, module) if cache is not None else None
        if record is None:
            parsed += 1
            record = _analyze(path, rel, module, data, rule_objs)
            if cache is not None:
                cache.put(rel, sha, record)
        else:
            cached += 1
        record = dict(record)
        record["rel"] = rel
        records.append(record)
        project.facts[rel] = record.get("facts")

    raw: List[Finding] = []
    for record in records:
        if record.get("parse_error") is not None:
            raw.append(Finding.from_dict(record["parse_error"]))
        for rule_name in active:
            for data_dict in record.get("findings", {}).get(rule_name, []):
                raw.append(Finding.from_dict(data_dict))
    for rule in rule_objs:
        try:
            raw.extend(rule.finalize(project))
        except LintError:
            raise
        except Exception as exc:  # noqa: BLE001
            raise LintError(f"rule {rule.name!r} crashed in finalize: {exc!r}") from exc

    suppressions_by_rel = {
        record["rel"]: _decode_suppressions(record.get("suppressions", {}))
        for record in records
    }
    kept: List[Finding] = []
    suppressed = 0
    for finding in sorted(raw):
        table = suppressions_by_rel.get(finding.path)
        if table and is_suppressed(finding.rule, finding.line, table):
            suppressed += 1
            continue
        kept.append(finding)
    if cache is not None:
        cache.save()
    return LintResult(
        findings=kept,
        files=len(files),
        suppressed=suppressed,
        rules=active,
        parsed=parsed,
        cached=cached,
    )
