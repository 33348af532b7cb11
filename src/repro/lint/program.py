"""Whole-program facts — serializable module summaries for cross checks.

The per-module rules walk a live AST; the *whole-program* rules
(``rng-streams``, ``lease-protocol``, ``trace-schema``) instead
consume :func:`extract_facts` output — a JSON-safe summary of
everything a finalize pass may want to know about one module:
definitions, class member tables, call sites (with statically-resolved
first arguments), module-level string constants, RNG stream draws and
lease claim sites.

Facts, not ASTs, are the engine's currency for one load-bearing
reason: the incremental cache (:mod:`repro.lint.cache`) replays them
for unchanged files without re-parsing, so a warm ``repro lint`` run
hands every finalize rule the *complete* project picture while having
parsed only the files that changed.  Any analysis a cross-module rule
needs must therefore live here, in the extraction, and bump
:data:`FACTS_VERSION` when its shape changes (the cache keys on it).

:class:`ProgramIndex` is the query layer over a project's facts — the
symbol table (definitions by bare name) and a call graph with
*reference edges* (``Thread(target=self._run)`` counts as an edge to
``_run``, which is how heartbeat reachability sees through the thread
boundary).  Extraction types local variables with a tiny
intraprocedural dataflow pass — constructor assignments, parameter
annotations and naming conventions — so ``streams.get("x")`` and
``RandomStreams(0).get("x")`` both resolve to an RNG stream draw.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple, Union

from .astutil import dotted_name, literal_strings

__all__ = ["FACTS_VERSION", "extract_facts", "ProgramIndex"]

#: Bump whenever the shape of :func:`extract_facts` output changes —
#: the incremental cache signature includes it, so stale facts are
#: never replayed into a newer engine.
FACTS_VERSION = 2

#: The one dataflow type tag: an RNG stream factory.
_T_STREAMS = "streams"

#: Constructor name → type tag (dataflow seeds).
_CTOR_TYPES = {"RandomStreams": _T_STREAMS}

#: Terminal-identifier naming conventions (params, attribute chains).
_NAME_HINTS = {"streams": _T_STREAMS, "_streams": _T_STREAMS}

#: Lease-protocol vocabulary (shared with the ``lease-protocol`` rule).
CLAIM_NAMES = frozenset({"claim", "claim_all"})
RELEASE_NAMES = frozenset({"release", "release_all"})

#: Modules whose string-literal line table is kept (registry lookups).
_STRING_LINE_MODULES = ("repro.obs.schema", "repro.obs.metrics", "repro.sim.rng")


def _call_base(call: ast.Call) -> Optional[str]:
    """Bare name of the called function/method (``get``, ``claim_all``)."""
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def _fstring_prefix(node: ast.JoinedStr) -> str:
    """Leading literal text of an f-string (``f"service.{t}"`` → ``"service."``)."""
    if node.values and isinstance(node.values[0], ast.Constant):
        value = node.values[0].value
        if isinstance(value, str):
            return value
    return ""


def _encode_arg0(node: Optional[ast.AST], params: FrozenSet[str]) -> Optional[dict]:
    """JSON-safe summary of a call's first positional argument."""
    if node is None:
        return None
    lits = literal_strings(node)
    if lits is not None:
        return {"lit": lits}
    if isinstance(node, ast.Name):
        if node.id in params:
            return {"param": True}
        return {"name": node.id}
    if isinstance(node, ast.JoinedStr):
        return {"fstr": _fstring_prefix(node)}
    return {"dyn": True}


class _Scope:
    """One function (or module) level of the dataflow environment."""

    def __init__(self, parent: Optional["_Scope"] = None) -> None:
        self.parent = parent
        self.types: Dict[str, str] = {}

    def lookup(self, name: str) -> Optional[str]:
        scope: Optional[_Scope] = self
        while scope is not None:
            tag = scope.types.get(name)
            if tag is not None:
                return tag
            scope = scope.parent
        return None


class _Extractor(ast.NodeVisitor):
    """Single-pass facts extraction over one module AST."""

    def __init__(self, module: str, rel: str) -> None:
        self.module = module
        self.rel = rel
        self.class_stack: List[str] = []
        self.func_stack: List[str] = []
        self.scope = _Scope()
        #: class name → member name → first line
        self.classes: Dict[str, dict] = {}
        self.defs: Dict[str, int] = {}
        self.constants: Dict[str, str] = {}
        self.calls: List[dict] = []
        self.rng: Dict[str, list] = {"get": [], "spawn": [], "default_rng": []}
        self.claims: List[dict] = []
        self.registry: Optional[dict] = None
        self.string_lines: Dict[str, int] = {}
        self._params: FrozenSet[str] = frozenset()
        self._want_strings = self.module in _STRING_LINE_MODULES
        #: claim-site guard analysis needs parent/sibling structure.
        self._parents: Dict[int, ast.AST] = {}

    # -- scope helpers -------------------------------------------------
    def _qualname(self) -> str:
        return ".".join(self.class_stack + self.func_stack)

    def _current_class(self) -> Optional[str]:
        return self.class_stack[-1] if self.class_stack else None

    def _infer(self, node: Optional[ast.AST]) -> Optional[str]:
        """Dataflow type tag of an expression, or None when unknown."""
        if node is None:
            return None
        chain = dotted_name(node)
        if chain is not None:
            direct = self.scope.lookup(chain)
            if direct is not None:
                return direct
            last = chain.rsplit(".", 1)[-1]
            return _NAME_HINTS.get(last)
        if isinstance(node, ast.Call):
            base = _call_base(node)
            if base in _CTOR_TYPES:
                return _CTOR_TYPES[base]
            if base == "spawn" and isinstance(node.func, ast.Attribute):
                # RandomStreams.spawn returns another stream factory.
                if self._infer(node.func.value) == _T_STREAMS:
                    return _T_STREAMS
        return None

    def _annotation_type(self, annotation: Optional[ast.AST]) -> Optional[str]:
        if annotation is None:
            return None
        text = dotted_name(annotation)
        if text is None and isinstance(annotation, ast.Constant):
            text = annotation.value if isinstance(annotation.value, str) else None
        if text is None:
            return None
        return _CTOR_TYPES.get(text.rsplit(".", 1)[-1])

    # -- structure -----------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        entry = self.classes.setdefault(
            node.name, {"line": node.lineno, "members": {}}
        )
        members: Dict[str, int] = entry["members"]
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members.setdefault(stmt.name, stmt.lineno)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        members.setdefault(target.id, stmt.lineno)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                members.setdefault(stmt.target.id, stmt.lineno)
        self.defs.setdefault(".".join(self.class_stack + [node.name]), node.lineno)
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()

    def _visit_function(self, node) -> None:
        qual = ".".join(self.class_stack + self.func_stack + [node.name])
        self.defs.setdefault(qual, node.lineno)
        args = node.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        outer_params = self._params
        self._params = frozenset(names)
        self.func_stack.append(node.name)
        self.scope = _Scope(self.scope)
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            tag = self._annotation_type(arg.annotation) or _NAME_HINTS.get(arg.arg)
            if tag is not None and arg.arg != "self":
                self.scope.types[arg.arg] = tag
        self.generic_visit(node)
        self.scope = self.scope.parent
        self.func_stack.pop()
        self._params = outer_params

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- assignments (dataflow seeds, constants, self-members) ---------
    def visit_Assign(self, node: ast.Assign) -> None:
        tag = self._infer(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if tag is not None:
                    self.scope.types[target.id] = tag
                if (
                    not self.func_stack
                    and not self.class_stack
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)
                ):
                    self.constants.setdefault(target.id, node.value.value)
            elif isinstance(target, ast.Attribute) and tag is not None:
                chain = dotted_name(target)
                if chain is not None:
                    self.scope.types[chain] = tag
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and self.class_stack
            ):
                entry = self.classes.setdefault(
                    self.class_stack[-1], {"line": node.lineno, "members": {}}
                )
                entry["members"].setdefault(target.attr, node.lineno)
        self._maybe_registry(node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        tag = self._annotation_type(node.annotation) or self._infer(node.value)
        target = node.target
        if isinstance(target, ast.Name) and tag is not None:
            self.scope.types[target.id] = tag
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and self.class_stack
        ):
            entry = self.classes.setdefault(
                self.class_stack[-1], {"line": node.lineno, "members": {}}
            )
            entry["members"].setdefault(target.attr, node.lineno)
        self._maybe_registry(node)
        self.generic_visit(node)

    def _maybe_registry(self, node: Union[ast.Assign, ast.AnnAssign]) -> None:
        """``STREAM_REGISTRY = {...}`` at module level → stream registry facts."""
        if self.func_stack or self.class_stack:
            return
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        if not any(
            isinstance(t, ast.Name) and t.id == "STREAM_REGISTRY" for t in targets
        ):
            return
        if not isinstance(node.value, ast.Dict):
            return
        streams: Dict[str, int] = {}
        duplicates: List[List[object]] = []
        for key in node.value.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                if key.value in streams:
                    duplicates.append([key.value, key.lineno])
                else:
                    streams[key.value] = key.lineno
        self.registry = {"streams": streams, "duplicates": duplicates}

    # -- expressions ---------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        base = _call_base(node)
        if base is not None:
            arg0 = _encode_arg0(node.args[0] if node.args else None, self._params)
            refs: List[str] = []
            for value in list(node.args) + [kw.value for kw in node.keywords]:
                chain = dotted_name(value)
                if chain is not None and "." in chain:
                    refs.append(chain.rsplit(".", 1)[-1])
                elif isinstance(value, ast.Name):
                    refs.append(value.id)
            recv = (
                self._infer(node.func.value)
                if isinstance(node.func, ast.Attribute)
                else None
            )
            entry = {
                "caller": self._qualname(),
                "base": base,
                "line": node.lineno,
                "col": node.col_offset,
                "arg0": arg0,
                "refs": refs,
            }
            self.calls.append(entry)
            if base == "get" and recv == _T_STREAMS:
                self.rng["get"].append(
                    {"line": node.lineno, "col": node.col_offset, "arg0": arg0}
                )
            elif base == "spawn" and recv == _T_STREAMS:
                self.rng["spawn"].append(
                    {"line": node.lineno, "col": node.col_offset}
                )
            elif base == "default_rng":
                self.rng["default_rng"].append(
                    {
                        "line": node.lineno,
                        "col": node.col_offset,
                        "seeded": bool(node.args or node.keywords),
                    }
                )
            if base in CLAIM_NAMES and isinstance(node.func, ast.Attribute):
                self.claims.append(
                    {
                        "caller": self._qualname(),
                        "cls": self._current_class(),
                        "func": self.func_stack[-1] if self.func_stack else "",
                        "base": base,
                        "line": node.lineno,
                        "col": node.col_offset,
                        "guarded": False,  # filled in by _finish_claims
                        "node_id": id(node),
                    }
                )
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if self._want_strings and isinstance(node.value, str):
            self.string_lines.setdefault(node.value, node.lineno)


# ----------------------------------------------------------------------
# Claim-site guard analysis (post-dominance / finally heuristics).


def _contains_release(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and _call_base(sub) in RELEASE_NAMES:
            return True
    return False


def _unconditional_release(stmt: ast.stmt) -> bool:
    """A release call as the statement itself (not nested in a branch)."""
    if isinstance(stmt, ast.Expr):
        value: ast.AST = stmt.value
    elif isinstance(stmt, ast.Assign):
        value = stmt.value
    else:
        return False
    return isinstance(value, ast.Call) and _call_base(value) in RELEASE_NAMES


def _body_chain(
    func: ast.AST, target: ast.AST
) -> List[Tuple[List[ast.stmt], int]]:
    """(statement list, index) ancestry of ``target``, innermost first."""

    def search(body: List[ast.stmt]) -> Optional[List[Tuple[List[ast.stmt], int]]]:
        for idx, stmt in enumerate(body):
            if stmt is target or any(n is target for n in ast.walk(stmt)):
                for field in ("body", "orelse", "finalbody", "handlers"):
                    blocks = getattr(stmt, field, None)
                    if not blocks:
                        continue
                    if field == "handlers":
                        for handler in blocks:
                            found = search(handler.body)
                            if found is not None:
                                return found + [(body, idx)]
                        continue
                    found = search(blocks)
                    if found is not None:
                        return found + [(body, idx)]
                return [(body, idx)]
        return None

    chain = search(func.body) if hasattr(func, "body") else None
    return chain or []


def _claim_guarded(func: ast.AST, claim: ast.AST) -> bool:
    """True when the claim is released on all (non-crash) paths.

    Two sanctioned shapes, both heuristic but tuned to the scheduler's
    idiom:

    * a ``try`` whose ``finally`` releases, either *enclosing* the
      claim or appearing *after* it in the same function (claim, then
      immediately enter the guarded region);
    * an unconditional release statement later in the claim's own
      block (or an enclosing block), with no return/raise/break in
      between — straight-line post-dominance.
    """
    chain = _body_chain(func, claim)
    if not chain:
        return False
    claim_line = getattr(claim, "lineno", 0)
    for node in ast.walk(func):
        if isinstance(node, ast.Try) and node.finalbody:
            if any(_contains_release(stmt) for stmt in node.finalbody):
                if any(n is claim for n in ast.walk(node)):
                    return True
                if node.lineno >= claim_line:
                    return True
    for body, idx in chain:
        for stmt in body[idx + 1 :]:
            if _unconditional_release(stmt):
                return True
            if isinstance(stmt, (ast.Return, ast.Raise, ast.Break, ast.Continue)):
                return False
    return False


def _finish_claims(extractor: _Extractor, tree: ast.Module) -> None:
    """Second pass: resolve each claim site's guard flag against its function."""
    if not extractor.claims:
        return
    by_id: Dict[int, dict] = {c["node_id"]: c for c in extractor.claims}
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            entry = by_id.get(id(node))
            if entry is not None and isinstance(node, ast.Call):
                # walk yields outer functions first; the innermost
                # enclosing def overwrites, which is the one we want.
                entry["guarded"] = _claim_guarded(func, node)
    for claim in extractor.claims:
        claim.pop("node_id", None)


def extract_facts(ctx) -> Dict[str, Any]:
    """The JSON-safe whole-program summary of one ``ModuleContext``."""
    extractor = _Extractor(ctx.module, ctx.rel)
    extractor.visit(ctx.tree)
    _finish_claims(extractor, ctx.tree)
    return {
        "module": ctx.module,
        "rel": ctx.rel,
        "defs": extractor.defs,
        "classes": extractor.classes,
        "constants": extractor.constants,
        "calls": extractor.calls,
        "rng": extractor.rng,
        "claims": extractor.claims,
        "registry": extractor.registry,
        "string_lines": extractor.string_lines,
    }


# ----------------------------------------------------------------------
# The query layer.


class ProgramIndex:
    """Symbol table + call graph over a project's facts."""

    def __init__(self, facts: Dict[str, dict]) -> None:
        #: module name → facts (first scan wins on collisions)
        self.by_module: Dict[str, dict] = {}
        for _rel, f in sorted(facts.items()):
            if f is not None:
                self.by_module.setdefault(f["module"], f)
        #: bare definition name → [(module, qualname)]
        self._defs: Dict[str, List[Tuple[str, str]]] = {}
        #: (module, qualname) → call entries
        self._calls: Dict[Tuple[str, str], List[dict]] = {}
        for module, f in self.by_module.items():
            for qual in f.get("defs", {}):
                base = qual.rsplit(".", 1)[-1]
                self._defs.setdefault(base, []).append((module, qual))
            for call in f.get("calls", []):
                key = (module, call.get("caller", ""))
                self._calls.setdefault(key, []).append(call)

    def resolve_constant(self, module: str, name: str) -> Optional[str]:
        """Module-level string constant ``name`` as seen from ``module``."""
        f = self.by_module.get(module)
        if f is not None:
            value = f.get("constants", {}).get(name)
            if value is not None:
                return value
        for other in self.by_module.values():
            value = other.get("constants", {}).get(name)
            if value is not None:
                return value
        return None

    def reaches_call(
        self, module: str, qualname: str, target_base: str, limit: int = 2000
    ) -> bool:
        """True when ``qualname`` transitively reaches a ``target_base()`` call.

        Resolution is class-hierarchy-analysis-flavored: a call to bare
        name ``x`` may land on *any* scanned definition named ``x``.
        Reference arguments count as edges (``Thread(target=self._run)``
        reaches ``_run``), which is how the lease heartbeat's renewal
        loop stays reachable through its daemon thread.
        """
        seen: Set[Tuple[str, str]] = set()
        frontier: List[Tuple[str, str]] = [(module, qualname)]
        budget = limit
        while frontier and budget > 0:
            key = frontier.pop()
            if key in seen:
                continue
            seen.add(key)
            for call in self._calls.get(key, []):
                budget -= 1
                names = [call["base"]] + list(call.get("refs", []))
                if call["base"] == target_base:
                    return True
                for name in names:
                    for target in self._defs.get(name, []):
                        if target not in seen:
                            frontier.append(target)
        return False
