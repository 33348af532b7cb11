"""repro.lint — project-specific static analysis for the reproduction.

The invariants this package machine-checks are the ones the repo's
claims rest on (docs/static-analysis.md has the full rationale):

* **determinism** — no wall clocks or ambient entropy outside the
  sanctioned modules; randomness flows through seeded streams;
* **layering** — the import-direction rules of docs/architecture.md;
* **trace-schema** — ``emit(...)`` call sites and the live
  :data:`repro.obs.schema.EVENT_TYPES` registry agree in both
  directions;
* **pool-safety** — nothing unpicklable crosses the process-pool
  boundary;
* **float-compare** — no exact float equality in the analytical layer;
* **rng-streams** — every library RNG draw traces to a stream name
  registered in :data:`repro.sim.rng.STREAM_REGISTRY`, both
  directions;
* **lease-protocol** — every campaign lease claim is released on all
  paths and can reach a heartbeat renewal.

:data:`~repro.lint.rules.RULES` lists them.  ``rng-streams``,
``lease-protocol`` and ``trace-schema`` are *whole-program* rules
riding :mod:`repro.lint.program` — a project-wide symbol table and
call graph over JSON-safe facts extracted per module, which is also
what the incremental cache (:mod:`repro.lint.cache`) replays for
unchanged files so a warm run re-parses only what changed.  An inline
``# reprolint: disable=<rule>`` comment (:mod:`repro.lint.suppress`)
is the one way to exempt a finding.

Usage::

    repro lint src tests                  # text report, exit 0/1/2
    repro lint src --format json          # machine-readable
    repro lint src --fix-hints            # remediation per finding
    repro lint src --rules determinism    # a subset of the rules
    repro lint src --no-cache             # force a cold analysis

Programmatic::

    from repro.lint import run_lint
    result = run_lint(["src"])            # LintResult(findings=[...])

This package is a *top layer* like ``repro.campaigns``: the library
never imports it at module body (the layering rule enforces that about
the lint package itself), and the CLI reaches it lazily.
"""

from __future__ import annotations

from .cache import ENGINE_VERSION, LintCache, cache_signature
from .findings import Finding
from .program import FACTS_VERSION, ProgramIndex, extract_facts
from .report import REPORT_VERSION, json_report, render_json, render_text
from .rules import RULES, Rule, build_rules
from .runner import (
    PARSE_ERROR_RULE,
    LintResult,
    ModuleContext,
    Project,
    module_name_for,
    run_lint,
)

__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "build_rules",
    "run_lint",
    "LintResult",
    "ModuleContext",
    "Project",
    "module_name_for",
    "render_text",
    "render_json",
    "json_report",
    "REPORT_VERSION",
    "PARSE_ERROR_RULE",
    "FACTS_VERSION",
    "ENGINE_VERSION",
    "ProgramIndex",
    "extract_facts",
    "LintCache",
    "cache_signature",
]
