"""The rule protocol.

A rule is a small object constructed fresh for every lint run with one
hook, :meth:`Rule.check_module`, called once per parsed module (in
path order) with a :class:`~repro.lint.runner.ModuleContext`; it yields
:class:`~repro.lint.findings.Finding` objects.  Every rule sees one
module at a time.  Cross-module contracts — the stream-name registry,
the trace-event schema, the metric declarations and the campaign lease
protocol — are checked by running the code instead: the census test
``tests/test_census.py`` and the lease fault-injection tests in
``tests/test_campaign_shard.py``.
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
