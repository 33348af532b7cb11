"""repro.lint — project-specific static analysis for the reproduction.

The invariants this package machine-checks are the ones the repo's
claims rest on (docs/static-analysis.md has the full rationale):

* **determinism** — no wall clocks or ambient entropy outside the
  sanctioned modules; every generator comes from the named, seeded
  streams of :mod:`repro.sim.rng`;
* **layering** — the import-direction rules of docs/architecture.md;
* **pool-safety** — nothing unpicklable crosses the process-pool
  boundary;
* **float-compare** — no exact float equality in the analytical layer.

:data:`~repro.lint.rules.RULES` lists them.  Every rule checks one
module at a time.  The cross-module contracts — registered stream
names, the trace-event schema, declared metric names and the campaign
lease protocol — are checked by running the code: the census test
``tests/test_census.py`` and the lease fault-injection tests in
``tests/test_campaign_shard.py``.  An inline
``# reprolint: disable=<rule>`` comment (:mod:`repro.lint.suppress`)
is the one way to exempt a finding.

Usage::

    repro lint src tests                  # text report, exit 0/1/2
    repro lint src --format json          # machine-readable
    repro lint src --fix-hints            # remediation per finding
    repro lint src --rules determinism    # a subset of the rules

Programmatic::

    from repro.lint import run_lint
    result = run_lint(["src"])            # LintResult(findings=[...])

This package is a *top layer* like ``repro.campaigns``: the library
never imports it at module body (the layering rule enforces that about
the lint package itself), and the CLI reaches it lazily.
"""

from __future__ import annotations

from .findings import Finding
from .report import REPORT_VERSION, json_report, render_json, render_text
from .rules import RULES, Rule, build_rules
from .runner import (
    PARSE_ERROR_RULE,
    LintResult,
    ModuleContext,
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
    "module_name_for",
    "render_text",
    "render_json",
    "json_report",
    "REPORT_VERSION",
    "PARSE_ERROR_RULE",
]
