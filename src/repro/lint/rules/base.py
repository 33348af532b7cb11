"""The rule protocol.

A rule is a small stateful object constructed fresh for every lint run
(rules may accumulate cross-module state, e.g. the trace-schema rule's
emit-site census).  Two hooks:

* :meth:`Rule.check_module` — called once per freshly parsed module,
  in path order, with a :class:`~repro.lint.runner.ModuleContext`;
* :meth:`Rule.finalize` — called once after every module has been
  seen, with the whole :class:`~repro.lint.runner.Project`; this is
  where whole-program checks (cross-references, never-used entries)
  report.

Both yield :class:`~repro.lint.findings.Finding` objects.
"""

from __future__ import annotations

from typing import Iterator

from ..findings import Finding

__all__ = ["Rule"]


class Rule:
    """Base class for lint rules (subclass, set ``name``, list in ``RULES``)."""

    #: Rule id — the token used in ``# reprolint: disable=<name>`` and
    #: ``--rules``.
    name: str = ""
    #: One-line summary of the invariant the rule checks.
    description: str = ""

    def check_module(self, ctx: "ModuleContext") -> Iterator[Finding]:  # noqa: F821
        """Per-module findings (default: none)."""
        return iter(())

    def finalize(self, project: "Project") -> Iterator[Finding]:  # noqa: F821
        """Whole-project findings after every module was scanned."""
        return iter(())
