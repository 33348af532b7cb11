"""Rule ``trace-schema`` — emit sites and the event registry must agree.

Every trace event the library emits is validated at runtime against
:data:`repro.obs.schema.EVENT_TYPES` — but only *if* something emits
it with tracing on.  This rule closes the static gap in both
directions by cross-checking against the **live registry** (imported
from :mod:`repro.obs.schema`, never a copied list):

* an ``emit("name", ...)`` call site whose name is not registered
  would raise :class:`~repro.errors.TraceSchemaError` on the first
  traced run — flagged at the call site;
* a registered event type that no ``repro.*`` module ever emits is
  dead schema (documentation promising events that never happen) —
  flagged at its registry line in ``repro/obs/schema.py``;
* an emit whose event name cannot be resolved statically defeats both
  checks — flagged, with two sanctioned shapes that *are* resolved:
  a conditional of two literals (``"a" if cond else "b"``) and a
  *forwarding wrapper* (a function that passes one of its own
  parameters straight through as the event name, e.g.
  ``ApplicationFleet._emit_vm``); wrapper call sites are then held to
  the same literal-name standard.

The never-emitted check only runs when ``repro.obs.schema`` itself is
among the scanned modules (i.e. the scan covers the library source) —
linting ``tests/`` alone must not report the whole registry as dead.
Call sites in non-``repro`` modules (tests emit synthetic events on
purpose) are ignored.

The same contract holds for *metrics*: every instrument name passed to
``registry.counter("...")`` / ``gauge`` / ``histogram`` must be
declared in :data:`repro.obs.metrics.METRIC_NAMES` (undeclared names
raise :class:`~repro.errors.ConfigurationError` the first time a
metrics-enabled run builds its registry), and every declared name must
have at least one literal creation site in the library — a declared
metric nobody creates is dead documentation.  Only literal-string
first arguments count as creation sites, which keeps unrelated callees
(``np.histogram(data, bins)``, ``collections.Counter(seq)``) out of
scope; the never-created direction, like dead-schema, only runs when
the scan covers ``repro.obs.metrics`` itself.

The rule is a pure ``finalize`` pass over the engine's *facts* table
(call sites with statically-resolved first arguments, extracted by
:mod:`repro.lint.program`), never over live ASTs — that is what lets
the incremental cache replay unchanged modules into the census without
re-parsing them.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from ...obs.metrics import METRIC_NAMES
from ...obs.schema import EVENT_TYPES
from ..findings import Finding
from .base import Rule

__all__ = ["TraceSchemaRule"]

#: The bus module defines ``emit`` — its body is not a call site.
_BUS_MODULE = "repro.obs.bus"
_SCHEMA_MODULE = "repro.obs.schema"
_METRICS_MODULE = "repro.obs.metrics"

#: Registry factory methods whose literal first argument is a metric name.
_INSTRUMENT_FACTORIES = ("counter", "gauge", "histogram")

_REGISTER_HINT = (
    "register the event (with its required payload fields) in "
    "repro.obs.schema.EVENT_TYPES"
)
_LITERAL_HINT = (
    "pass the event name as a string literal (or a conditional of two "
    "literals, or a wrapper parameter forwarded verbatim) so the "
    "schema cross-check can see it"
)
_DEAD_HINT = (
    "emit the event somewhere, or delete its registry entry (and its "
    "docs) if the instrumentation was removed"
)
_METRIC_DECLARE_HINT = (
    "declare the metric (name, kind, help) in "
    "repro.obs.metrics.METRIC_NAMES"
)
_METRIC_DEAD_HINT = (
    "create the instrument at some call site, or delete its "
    "METRIC_NAMES entry (and its docs) if the instrumentation was "
    "removed"
)


def _scoped(module: str) -> bool:
    return (module == "repro" or module.startswith("repro.")) and not (
        module == _BUS_MODULE or module.startswith("repro.lint")
    )


class TraceSchemaRule(Rule):
    name = "trace-schema"
    description = (
        "every emitted trace event name is registered in "
        "repro.obs.schema (and every registered event is emitted); "
        "every created metric name is declared in "
        "repro.obs.metrics.METRIC_NAMES (and every declared metric is "
        "created)"
    )

    def finalize(self, project) -> Iterator[Finding]:
        modules = [
            f
            for _rel, f in sorted(project.facts.items())
            if f is not None and _scoped(f["module"])
        ]

        #: event name → first (path, line) that emits it
        emitted: Dict[str, Tuple[str, int]] = {}
        findings: List[Finding] = []
        #: names of forwarding-wrapper functions discovered in pass 1
        wrappers: Set[str] = set()

        # Pass 1: direct emit(...) call sites; discover wrappers.
        for facts in modules:
            for call in facts["calls"]:
                if call["base"] != "emit":
                    continue
                arg0 = call["arg0"]
                if arg0 is None:
                    continue
                if "lit" in arg0:
                    for name in arg0["lit"]:
                        emitted.setdefault(name, (facts["rel"], call["line"]))
                        if name not in EVENT_TYPES:
                            findings.append(
                                Finding(
                                    path=facts["rel"],
                                    line=call["line"],
                                    col=call["col"],
                                    rule=self.name,
                                    message=(
                                        f"emit of unregistered trace event "
                                        f"{name!r} (would fail schema "
                                        "validation at runtime)"
                                    ),
                                    hint=_REGISTER_HINT,
                                )
                            )
                    continue
                if "param" in arg0 and call["caller"]:
                    # Forwarding wrapper: hold its call sites to the
                    # literal-name standard in pass 2.
                    wrappers.add(call["caller"].rsplit(".", 1)[-1])
                    continue
                findings.append(
                    Finding(
                        path=facts["rel"],
                        line=call["line"],
                        col=call["col"],
                        rule=self.name,
                        message=(
                            f"emit with a dynamic event name in "
                            f"{facts['module']} defeats static schema checking"
                        ),
                        hint=_LITERAL_HINT,
                    )
                )

        # Pass 2: wrapper call sites count as emissions of their
        # literal first argument.
        wrappers.discard("emit")
        for facts in modules:
            for call in facts["calls"]:
                callee = call["base"]
                if callee not in wrappers:
                    continue
                arg0 = call["arg0"]
                if arg0 is None:
                    continue
                if "lit" not in arg0:
                    if "param" in arg0:
                        continue  # the wrapper body's own forwarding call
                    findings.append(
                        Finding(
                            path=facts["rel"],
                            line=call["line"],
                            col=call["col"],
                            rule=self.name,
                            message=(
                                f"call of trace wrapper {callee}() with a "
                                "dynamic event name defeats static schema "
                                "checking"
                            ),
                            hint=_LITERAL_HINT,
                        )
                    )
                    continue
                for name in arg0["lit"]:
                    emitted.setdefault(name, (facts["rel"], call["line"]))
                    if name not in EVENT_TYPES:
                        findings.append(
                            Finding(
                                path=facts["rel"],
                                line=call["line"],
                                col=call["col"],
                                rule=self.name,
                                message=(
                                    f"emit of unregistered trace event "
                                    f"{name!r} via wrapper {callee}() "
                                    "(would fail schema validation at runtime)"
                                ),
                                hint=_REGISTER_HINT,
                            )
                        )

        yield from findings

        # Metric-name cross-check: literal instrument-factory call
        # sites (registry.counter/gauge/histogram) vs METRIC_NAMES.
        #: metric name → first (path, line) that creates it
        created: Dict[str, Tuple[str, int]] = {}
        for facts in modules:
            for call in facts["calls"]:
                if call["base"] not in _INSTRUMENT_FACTORIES:
                    continue
                arg0 = call["arg0"]
                if arg0 is None or "lit" not in arg0:
                    # Dynamic first arguments are out of scope on
                    # purpose: they are how unrelated callees look
                    # (np.histogram(data, bins), Counter(seq)).
                    continue
                for name in arg0["lit"]:
                    created.setdefault(name, (facts["rel"], call["line"]))
                    if name not in METRIC_NAMES:
                        yield Finding(
                            path=facts["rel"],
                            line=call["line"],
                            col=call["col"],
                            rule=self.name,
                            message=(
                                f"creation of undeclared metric {name!r} "
                                "(would raise ConfigurationError when the "
                                "registry builds it)"
                            ),
                            hint=_METRIC_DECLARE_HINT,
                        )
        metrics_facts = next(
            (f for f in modules if f["module"] == _METRICS_MODULE), None
        )
        if metrics_facts is not None:
            for metric in METRIC_NAMES:
                if metric in created:
                    continue
                yield Finding(
                    path=metrics_facts["rel"],
                    line=self._registry_line(metrics_facts, metric),
                    col=0,
                    rule=self.name,
                    message=(
                        f"declared metric {metric!r} is never created "
                        "by any library module"
                    ),
                    hint=_METRIC_DEAD_HINT,
                )

        # Dead-schema direction — only when the scan covered the
        # registry module itself.
        schema_facts = next(
            (f for f in modules if f["module"] == _SCHEMA_MODULE), None
        )
        if schema_facts is None:
            return
        for event in EVENT_TYPES:
            if event in emitted:
                continue
            yield Finding(
                path=schema_facts["rel"],
                line=self._registry_line(schema_facts, event),
                col=0,
                rule=self.name,
                message=(
                    f"registered trace event {event!r} is never emitted "
                    "by any library module"
                ),
                hint=_DEAD_HINT,
            )

    @staticmethod
    def _registry_line(facts: dict, name: str) -> int:
        """Line of the name's registry entry (best effort, else 1)."""
        return int(facts.get("string_lines", {}).get(name, 1))
