"""Trace event schema — the contract every emitted event satisfies.

A trace is a sequence of flat JSON-safe dicts.  Every event carries

* ``t`` — simulation time in seconds (finite, ≥ 0), and
* ``type`` — one of the registered :data:`EVENT_TYPES`,

plus the type's required payload fields.  Additional fields are
allowed (emitters attach context such as ``observed`` on corrective
prediction alerts); validation only enforces the required core, so the
schema can grow without invalidating old traces.

The registry doubles as documentation: ``docs/observability.md`` is
generated from the same field lists, and the CI trace-smoke job
validates a real scenario trace against this module on every push.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Union

from ..errors import TraceSchemaError

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_TYPES",
    "REQUEST_EVENTS",
    "CONTROL_EVENTS",
    "validate_event",
    "validate_trace",
    "iter_trace",
    "load_trace",
]

#: Bumped whenever a required field is added/renamed.
SCHEMA_VERSION = 2

_FLOAT = (float, int)  # JSON numbers; ints are acceptable floats

#: type → required payload fields (beyond ``t`` and ``type``) with the
#: accepted Python types of each.
EVENT_TYPES: Dict[str, Dict[str, tuple]] = {
    # run lifecycle (emitted by the experiment runner)
    "run.start": {"scenario": (str,), "policy": (str,), "seed": (int,)},
    "run.end": {"events": (int,)},
    # workload generation (broker)
    "window.generated": {"t0": _FLOAT, "arrivals": (int,)},
    # per-request data plane (admission control / monitor)
    "request.admitted": {},
    "request.rejected": {},
    "request.completed": {"response_time": _FLOAT, "service_time": _FLOAT},
    # admission-control state flips (accepting <-> rejecting)
    "admission.state": {"accepting": (bool,)},
    # instance lifecycle (fleet)
    "vm.created": {"instance": (int,), "booting": (bool,)},
    "vm.draining": {"instance": (int,)},
    "vm.destroyed": {"instance": (int,), "reason": (str,)},
    # monitoring samples
    "monitor.sample": {"rate": _FLOAT, "service_time_estimate": _FLOAT},
    # analyzer alerts (regular and corrective)
    "prediction.issued": {
        "rate": _FLOAT,
        "window_start": _FLOAT,
        "window_end": _FLOAT,
        "corrective": (bool,),
    },
    # Algorithm-1 runs (modeler) — the decision audit record
    "decision": {
        "arrival_rate": _FLOAT,
        "service_time": _FLOAT,
        "current": (int,),
        "chosen": (int,),
        "iterations": (int,),
        "meets_qos": (bool,),
        "cache_hit": (bool,),
        "path": (list,),
        "rho": _FLOAT,
        "blocking": _FLOAT,
        "response": _FLOAT,
    },
    # provisioner actuations
    "scaling.actuated": {
        "predicted_rate": _FLOAT,
        "before": (int,),
        "target": (int,),
        "after": (int,),
    },
    # vectorized backend: one summary per non-empty epoch span (the
    # arrivals/completions the array data plane absorbed since the
    # previous engine event); ``stations`` is the active fleet size at
    # the flush and ``width`` the span's extent in simulation seconds
    "batch.span": {
        "arrivals": (int,),
        "completions": (int,),
        "rejected": (int,),
        "stations": (int,),
        "width": _FLOAT,
    },
    # periodic QoS telemetry (repro.obs.metrics.RunTelemetry): counters
    # are floats because the fluid backend reports *expected* flows;
    # ``buckets`` holds the cumulative response-time histogram counts
    # for the ``bounds`` upper edges plus one overflow entry
    "metrics.snapshot": {
        "interval": _FLOAT,
        "qos_target": _FLOAT,
        "total": _FLOAT,
        "accepted": _FLOAT,
        "rejected": _FLOAT,
        "completed": _FLOAT,
        "violations": _FLOAT,
        "fleet": (int,),
        "rejection_rate": _FLOAT,
        "violation_fraction": _FLOAT,
        "window_completed": _FLOAT,
        "window_violations": _FLOAT,
        "burn_rate": _FLOAT,
        "cache_hits": (int,),
        "cache_misses": (int,),
        "cache_hit_ratio": _FLOAT,
        "p50": _FLOAT,
        "p95": _FLOAT,
        "p99": _FLOAT,
        "bounds": (list,),
        "buckets": (list,),
    },
    # fluid backend: one event per constant-fleet integration segment
    "fluid.interval": {
        "duration": _FLOAT,
        "instances": (int,),
        "offered": _FLOAT,
        "rejected": _FLOAT,
    },
    # campaign engine: per-cell lifecycle (``t`` is wall-clock seconds
    # since campaign start — campaigns have no simulation clock)
    "campaign.cell.start": {
        "key": (str,),
        "scenario": (str,),
        "policy": (str,),
        "backend": (str,),
        "seed": (int,),
    },
    "campaign.cell.cached": {"key": (str,)},
    "campaign.cell.done": {"key": (str,), "wall_seconds": _FLOAT},
    "campaign.cell.failed": {"key": (str,), "error": (str,)},
    "campaign.cell.screened": {"key": (str,), "rejection_rate": _FLOAT},
    # campaign scheduler: store-level lease lifecycle — who claimed,
    # stole, or released which cell (``owner`` is a host:pid worker id)
    "campaign.claim.acquired": {"key": (str,), "owner": (str,)},
    "campaign.claim.stolen": {
        "key": (str,),
        "owner": (str,),
        "previous_owner": (str,),
    },
    "campaign.claim.released": {"key": (str,), "owner": (str,)},
    # economy subsystem (repro.economy): one accounting interval of the
    # profit ledger (deltas, not cumulatives; ``violating`` is the SLA
    # penalty trigger), one spot-capacity reclamation, and the end-of-
    # run billing summary
    "economy.interval": {
        "duration": _FLOAT,
        "completed": (int,),
        "rejected": (int,),
        "violations": (int,),
        "core_seconds": _FLOAT,
        "spot_core_seconds": _FLOAT,
        "violating": (bool,),
    },
    "economy.revocation": {"instance": (int,), "lost": (int,)},
    "economy.summary": {
        "revenue": _FLOAT,
        "cost": _FLOAT,
        "penalty": _FLOAT,
        "profit": _FLOAT,
        "spot_vm_hours": _FLOAT,
        "revocations": (int,),
        "violating_intervals": (int,),
    },
}

#: The per-request event types — the only high-frequency ones.  CLI
#: tracing excludes them by default (``--trace-requests`` opts in) so a
#: full-scenario trace stays control-plane sized.
REQUEST_EVENTS = frozenset({"request.admitted", "request.rejected", "request.completed"})

#: Everything except the per-request firehose.
CONTROL_EVENTS = frozenset(EVENT_TYPES) - REQUEST_EVENTS


def _check_type(value: object, expected: tuple) -> bool:
    if bool in expected:
        if isinstance(value, bool):
            return True
    if isinstance(value, bool):
        # bool is an int subclass; only fields declared bool accept it.
        return False
    return isinstance(value, expected)


def validate_event(event: Mapping[str, object]) -> None:
    """Check one event against the schema.

    Raises
    ------
    TraceSchemaError
        With a message naming the offending field, when the event is
        not a mapping, has an unknown type, a bad timestamp, or is
        missing / mistyping a required payload field.
    """
    if not isinstance(event, Mapping):
        raise TraceSchemaError(f"event must be a mapping, got {type(event).__name__}")
    etype = event.get("type")
    if not isinstance(etype, str):
        raise TraceSchemaError(f"event has no string 'type' field: {event!r}")
    fields = EVENT_TYPES.get(etype)
    if fields is None:
        raise TraceSchemaError(f"unknown event type {etype!r}")
    t = event.get("t")
    if isinstance(t, bool) or not isinstance(t, (int, float)):
        raise TraceSchemaError(f"{etype}: 't' must be a number, got {t!r}")
    if not math.isfinite(t) or t < 0.0:
        raise TraceSchemaError(f"{etype}: 't' must be finite and >= 0, got {t!r}")
    for name, expected in fields.items():
        if name not in event:
            raise TraceSchemaError(f"{etype}: missing required field {name!r}")
        if not _check_type(event[name], expected):
            raise TraceSchemaError(
                f"{etype}: field {name!r} has {type(event[name]).__name__} "
                f"value {event[name]!r}; expected {'/'.join(c.__name__ for c in expected)}"
            )


def validate_trace(events: Iterable[Mapping[str, object]]) -> int:
    """Validate a whole trace; returns the number of events checked.

    The first invalid event aborts with a :class:`TraceSchemaError`
    whose message includes its position in the stream.
    """
    count = 0
    for i, event in enumerate(events):
        try:
            validate_event(event)
        except TraceSchemaError as exc:
            raise TraceSchemaError(f"event #{i}: {exc}") from None
        count += 1
    return count


def iter_trace(path: Union[str, Path]) -> Iterator[dict]:
    """Stream events from a JSONL trace file (one dict per line)."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceSchemaError(f"{path}:{lineno}: not valid JSON: {exc}") from None


def load_trace(path: Union[str, Path]) -> List[dict]:
    """Read a whole JSONL trace into memory (small traces / tooling)."""
    return list(iter_trace(path))
