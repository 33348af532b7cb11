"""Exception hierarchy for :mod:`repro`.

All library-specific failures derive from :class:`ReproError` so callers
can catch one base class.  Each subsystem raises the most specific type
available; messages always carry enough state (names, counts, times) to
diagnose a failing simulation without a debugger.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "SchedulingInPastError",
    "EngineStateError",
    "CapacityError",
    "PlacementError",
    "ConfigurationError",
    "QueueingModelError",
    "WorkloadError",
    "PredictionError",
    "TraceSchemaError",
    "LintError",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class SimulationError(ReproError):
    """Base class for errors raised by the discrete-event kernel."""


class SchedulingInPastError(SimulationError):
    """An event was scheduled at a time earlier than the current clock.

    The kernel is strictly causal: entities may only schedule events at
    ``now`` or later.  This error usually indicates a model bug such as
    subtracting a delay instead of adding it.
    """

    def __init__(self, now: float, when: float) -> None:
        super().__init__(
            f"cannot schedule event at t={when!r}: simulation clock is already at t={now!r}"
        )
        self.now = now
        self.when = when


class EngineStateError(SimulationError):
    """The engine was used in an invalid lifecycle state.

    For example: calling :meth:`repro.sim.Engine.run` twice, or
    scheduling events after the engine finished.
    """


class CapacityError(ReproError):
    """A physical or virtual resource ran out of capacity."""


class PlacementError(CapacityError):
    """No host in the data center can accommodate a VM request."""


class ConfigurationError(ReproError):
    """A scenario, policy, or component was configured inconsistently."""


class QueueingModelError(ReproError):
    """An analytical queueing formula was evaluated outside its domain.

    Examples: negative arrival rate, zero service rate, or a
    non-integral capacity for a finite-buffer queue.
    """


class WorkloadError(ReproError):
    """A workload model was asked to generate an impossible pattern."""


class PredictionError(ReproError):
    """A predictor could not produce an estimate (e.g. no history)."""


class TraceSchemaError(ReproError):
    """A trace event (or JSONL trace file) violates the event schema.

    Raised by :mod:`repro.obs.schema` validation; the message carries
    the event position / file line and the offending field.
    """


class LintError(ReproError):
    """:mod:`repro.lint` could not complete a run.

    Usage or internal failures — unknown rule names, an empty rule
    selection, missing or unreadable paths, a crashing rule — as
    opposed to findings, which are ordinary results.  The CLI maps
    this to exit code 2 (findings exit 1, clean trees 0).
    """
