"""Rule ``backend-parity`` — the scalar and vectorized fleets agree.

The two DES backends promise the same control trajectory from two
data-plane implementations: :class:`repro.cloud.fleet.ApplicationFleet`
(event-per-request) and :class:`repro.cloud.vecfleet.VectorFleet`
(structure-of-arrays).  Policies, analyzers and telemetry talk to
"the fleet" through whichever one the backend built, so an attribute
present on one and missing on the other is a latent
``AttributeError`` that only detonates under the *other* backend — the
exact class of bug a per-module linter cannot see.

Two whole-program checks, both census-style:

* **member census** (both directions): every public member of
  ``ApplicationFleet`` must exist on ``VectorFleet`` and vice versa,
  except names allowlisted as intentionally single-backend
  (:data:`SCALAR_ONLY` — per-instance dispatch surface that has no
  array analogue; :data:`VEC_ONLY` — the block data-plane API the
  epoch loop drives).  An allowlisted name that *both* classes define
  is a stale allowlist entry, also flagged.
* **attribute-use census**: every fleet-typed attribute access in
  library code (receivers typed by the engine's dataflow lattice —
  constructor results, ``ctx.fleet`` chains, parameters named
  ``fleet``) must exist on the fleet API; accesses on a receiver that
  may be *either* backend must resolve on both (modulo allowlists).
  ``Monitor``-typed receivers get the membership check too, since both
  backends share one monitor.

Checks fire only when the defining classes are in the scan, so
fixture trees opt in by shipping miniature ``repro/cloud`` modules and
linting ``tests/`` alone stays quiet.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from ..findings import Finding
from ..registry import Rule, register

__all__ = ["ParityRule", "SCALAR_ONLY", "VEC_ONLY"]

_APP = ("repro.cloud.fleet", "ApplicationFleet")
_VEC = ("repro.cloud.vecfleet", "VectorFleet")
_MON = ("repro.cloud.monitor", "Monitor")

#: ApplicationFleet members with no vectorized analogue by design:
#: the per-instance dispatch/shaping surface (single requests, named
#: instances, speed knobs) that the array plane replaces wholesale.
SCALAR_ONLY = frozenset(
    {
        "dispatch",
        "active_instances",
        "grow_with_spec",
        "scale_down_instance",
        "set_speed",
        "balancer",
    }
)

#: VectorFleet members with no scalar analogue by design: the block
#: data-plane API (arrival buffers, epoch advancement, span counters)
#: that the event-per-request engine never needs.
VEC_ONLY = frozenset(
    {
        "occupancy",
        "in_flight",
        "load",
        "buffered",
        "advance",
        "finish",
        "arrivals_processed",
        "completions_processed",
        "spans",
        "event_spans",
    }
)

_PARITY_HINT = (
    "implement the member on the other backend's class, or add it to "
    "the SCALAR_ONLY/VEC_ONLY allowlist in repro.lint.rules.parity if "
    "the asymmetry is intentional"
)
_UNKNOWN_HINT = "no such public member — a latent AttributeError"


def _public(members: Dict[str, int]) -> Dict[str, int]:
    return {m: line for m, line in members.items() if not m.startswith("_")}


@register
class ParityRule(Rule):
    name = "backend-parity"
    description = (
        "ApplicationFleet and VectorFleet stay member-for-member in "
        "parity (modulo the scalar-only/vec-only allowlists), and "
        "every fleet/monitor attribute use in library code resolves"
    )

    def finalize(self, project) -> Iterator[Finding]:
        index = project.index
        app = index.class_members(*_APP)
        vec = index.class_members(*_VEC)
        mon = index.class_members(*_MON)
        if app is not None and vec is not None:
            yield from self._census(index, app, vec)
        yield from self._uses(project, app, vec, mon)

    # ------------------------------------------------------------------
    def _census(self, index, app: Dict[str, int], vec: Dict[str, int]):
        app_pub, vec_pub = _public(app), _public(vec)
        app_rel = index.facts(_APP[0])["rel"]
        vec_rel = index.facts(_VEC[0])["rel"]
        for name in sorted(set(app_pub) - set(vec_pub) - SCALAR_ONLY):
            yield Finding(
                path=app_rel,
                line=app_pub[name],
                col=0,
                rule=self.name,
                message=(
                    f"public ApplicationFleet member {name!r} has no "
                    "VectorFleet counterpart"
                ),
                hint=_PARITY_HINT,
            )
        for name in sorted(set(vec_pub) - set(app_pub) - VEC_ONLY):
            yield Finding(
                path=vec_rel,
                line=vec_pub[name],
                col=0,
                rule=self.name,
                message=(
                    f"public VectorFleet member {name!r} has no "
                    "ApplicationFleet counterpart"
                ),
                hint=_PARITY_HINT,
            )
        for name in sorted(SCALAR_ONLY & set(vec_pub)):
            yield Finding(
                path=vec_rel,
                line=vec_pub[name],
                col=0,
                rule=self.name,
                message=(
                    f"{name!r} is allowlisted as scalar-only but "
                    "VectorFleet defines it — stale allowlist entry"
                ),
                hint="drop the name from SCALAR_ONLY",
            )
        for name in sorted(VEC_ONLY & set(app_pub)):
            yield Finding(
                path=app_rel,
                line=app_pub[name],
                col=0,
                rule=self.name,
                message=(
                    f"{name!r} is allowlisted as vec-only but "
                    "ApplicationFleet defines it — stale allowlist entry"
                ),
                hint="drop the name from VEC_ONLY",
            )

    # ------------------------------------------------------------------
    def _uses(
        self,
        project,
        app: Optional[Dict[str, int]],
        vec: Optional[Dict[str, int]],
        mon: Optional[Dict[str, int]],
    ):
        defining = {_APP[0], _VEC[0], _MON[0]}
        for rel in sorted(project.facts):
            facts = project.facts[rel]
            if facts is None:
                continue
            module = facts["module"]
            if not (module == "repro" or module.startswith("repro.")):
                continue
            if module in defining or module.startswith("repro.lint"):
                continue
            for use in facts.get("attr_uses", []):
                attr = use["attr"]
                if attr.startswith("_"):
                    continue
                yield from self._check_use(rel, use, attr, app, vec, mon)

    def _check_use(self, rel, use, attr, app, vec, mon):
        kind = use["kind"]

        def finding(message: str, hint: str) -> Finding:
            return Finding(
                path=rel,
                line=use["line"],
                col=use["col"],
                rule=self.name,
                message=message,
                hint=hint,
            )

        if kind == "monitor":
            if mon is not None and attr not in mon:
                yield finding(
                    f"use of unknown Monitor attribute {attr!r}", _UNKNOWN_HINT
                )
            return
        if kind == "app" and app is not None:
            if attr not in app:
                yield finding(
                    f"use of unknown ApplicationFleet attribute {attr!r}",
                    _UNKNOWN_HINT,
                )
            elif vec is not None and attr not in vec and attr not in SCALAR_ONLY:
                yield finding(
                    f"scalar fleet attribute {attr!r} has no VectorFleet "
                    "counterpart (and is not allowlisted scalar-only)",
                    _PARITY_HINT,
                )
            return
        if kind == "vec" and vec is not None:
            if attr not in vec:
                yield finding(
                    f"use of unknown VectorFleet attribute {attr!r}",
                    _UNKNOWN_HINT,
                )
            elif app is not None and attr not in app and attr not in VEC_ONLY:
                yield finding(
                    f"vectorized fleet attribute {attr!r} has no "
                    "ApplicationFleet counterpart (and is not allowlisted "
                    "vec-only)",
                    _PARITY_HINT,
                )
            return
        if kind == "fleet" and app is not None and vec is not None:
            known = set(app) | set(vec)
            if attr not in known:
                yield finding(
                    f"use of unknown fleet attribute {attr!r} (neither "
                    "backend defines it)",
                    _UNKNOWN_HINT,
                )
                return
            if attr not in vec and attr not in SCALAR_ONLY:
                yield finding(
                    f"either-backend fleet receiver uses {attr!r}, which "
                    "VectorFleet lacks (not allowlisted scalar-only)",
                    _PARITY_HINT,
                )
            if attr not in app and attr not in VEC_ONLY:
                yield finding(
                    f"either-backend fleet receiver uses {attr!r}, which "
                    "ApplicationFleet lacks (not allowlisted vec-only)",
                    _PARITY_HINT,
                )
