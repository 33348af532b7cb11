"""The scalar and vectorized fleets expose one API.

``des`` drives :class:`~repro.cloud.fleet.ApplicationFleet` and
``des-vec`` drives :class:`~repro.cloud.vecfleet.VectorFleet`.
Policies, analyzers and telemetry talk to "the fleet" through whichever
one the backend built, so a public member present on one and missing on
the other is a latent ``AttributeError`` that only fires under the
other backend.  This census compares the public ``dir()`` names of one
live fleet of each kind, so it sees methods, properties and instance
attributes alike.  Both subclass :class:`~repro.cloud.fleet.FleetLifecycle`,
so the lifecycle surface is shared by construction; the census guards
what each data plane adds.

A member that exists on one backend by design goes in the matching
allowlist below; an entry that is no longer one-sided is stale and
fails the census too.
"""

from __future__ import annotations

from repro.backends import build_context
from repro.cloud.fleet import ApplicationFleet
from repro.cloud.vecfleet import VectorFleet
from repro.experiments import web_scenario

#: ApplicationFleet members with no vectorized analogue by design: the
#: per-instance dispatch/shaping surface (single requests, the
#: balancer, the vertical speed knob) that the array plane replaces wholesale.
SCALAR_ONLY = frozenset(
    {
        "set_speed",
        "balancer",
    }
)

#: VectorFleet members with no scalar analogue by design: the block
#: data-plane API (pulled arrival windows, epoch advancement, span
#: counters) that the event-per-request engine never needs.
VEC_ONLY = frozenset(
    {
        "in_flight",
        "load",
        "pull_from",
        "buffered",
        "advance",
        "finish",
        "arrivals_processed",
        "completions_processed",
        "spans",
        "event_spans",
    }
)


def _public(obj) -> set:
    return {name for name in dir(obj) if not name.startswith("_")}


def test_scalar_and_vector_fleets_share_one_api():
    scenario = web_scenario(scale=5000.0, horizon=3600.0)
    scalar = build_context(scenario, seed=0).fleet
    vec = build_context(scenario, seed=0, vectorized=True).fleet
    assert type(scalar) is ApplicationFleet and type(vec) is VectorFleet

    app_names, vec_names = _public(scalar), _public(vec)
    problems = [
        f"ApplicationFleet.{name} has no VectorFleet counterpart"
        for name in sorted(app_names - vec_names - SCALAR_ONLY)
    ]
    problems += [
        f"VectorFleet.{name} has no ApplicationFleet counterpart"
        for name in sorted(vec_names - app_names - VEC_ONLY)
    ]
    problems += [
        f"stale SCALAR_ONLY entry {name!r}: not an ApplicationFleet-only member"
        for name in sorted(SCALAR_ONLY - (app_names - vec_names))
    ]
    problems += [
        f"stale VEC_ONLY entry {name!r}: not a VectorFleet-only member"
        for name in sorted(VEC_ONLY - (vec_names - app_names))
    ]
    assert problems == [], (
        "implement the member on the other fleet, or allowlist it in "
        "SCALAR_ONLY/VEC_ONLY if the asymmetry is intentional:\n"
        + "\n".join(problems)
    )
