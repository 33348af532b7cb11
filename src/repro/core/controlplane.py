"""Backend-agnostic control plane — cadence, decision, actuation.

The paper's mechanism is one loop (Figure 1): the workload analyzer
estimates the arrival rate on a boundary-aligned cadence, the
performance modeler runs Algorithm 1, and the application provisioner
actuates the chosen fleet size.  The repo executes that loop on two
very different substrates — the event-driven simulator
(:mod:`repro.backends.des`) and the interval-analytical fluid engine
(:mod:`repro.backends.fluid`) — and this module is the single
implementation both drive:

* :func:`next_alert_time` / :func:`alert_schedule` — the analyzer
  cadence (regular interval pulled earlier by known rate boundaries,
  each boundary alerting both ``lead_time`` early and exactly on time);
* :class:`FleetActuator` — the narrow protocol a fleet must satisfy to
  be scaled (``serving_count`` + ``scale_to``);
  :class:`repro.cloud.fleet.ApplicationFleet` implements it with real
  instance mechanics, :class:`RecordingActuator` with a counter, and
  the vertical policy's actuator in cores per instance;
* :class:`ControlPlane` — predictor → Algorithm-1 modeler → actuator,
  recording every actuation as a :class:`ScalingAction`.

Keeping this in one place is what makes the DES-vs-fluid cross-check
(``tests/test_backend_xcheck.py``) a *correctness* tool: the two
backends cannot disagree on the control trajectory unless one of them
has a bug, because they execute the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Protocol, Tuple, runtime_checkable

from ..errors import ConfigurationError, PredictionError
from .modeler import PerformanceModeler, ProvisioningDecision

__all__ = [
    "FleetActuator",
    "RecordingActuator",
    "ScalingAction",
    "ControlClock",
    "ControlPlane",
    "next_alert_time",
    "alert_schedule",
    "alert_window_end",
]


@runtime_checkable
class FleetActuator(Protocol):
    """What the control plane needs from a fleet — nothing more.

    :class:`repro.cloud.fleet.ApplicationFleet` satisfies this with the
    full instance lifecycle (revive / create / graceful drain);
    :class:`RecordingActuator` satisfies it with a counter, which is
    all the fluid backend needs.  The vertical actuator counts cores
    per instance instead of instances.
    """

    @property
    def serving_count(self) -> int:
        """Instances currently provisioned for service."""
        ...  # pragma: no cover - protocol body

    def scale_to(self, target: int) -> int:
        """Scale toward ``target`` instances; return the size reached."""
        ...  # pragma: no cover - protocol body


class RecordingActuator:
    """A :class:`FleetActuator` with no data plane behind it.

    Used by the fluid backend (and unit tests): ``scale_to`` simply
    sets the counter, optionally capped at ``max_instances`` to mirror
    a data center's placement limit.
    """

    def __init__(self, initial: int = 0, max_instances: Optional[int] = None) -> None:
        if initial < 0:
            raise ConfigurationError(f"initial fleet size must be >= 0, got {initial}")
        self._count = int(initial)
        self.max_instances = max_instances

    @property
    def serving_count(self) -> int:
        return self._count

    def scale_to(self, target: int) -> int:
        target = max(0, int(target))
        if self.max_instances is not None:
            target = min(target, int(self.max_instances))
        self._count = target
        return target


@dataclass(frozen=True)
class ScalingAction:
    """One provisioning actuation, kept for diagnostics and figures.

    Attributes
    ----------
    time:
        When the decision was actuated.
    predicted_rate:
        The analyzer's ``λ`` estimate that triggered it.
    service_time:
        The monitored ``T_m`` used.
    before, target, after:
        Serving size before the action, the modeler's target, and the
        size actually reached (placement limits may cap growth), all in
        the actuator's unit: instances, or cores per instance (vertical
        scaling).
    decision:
        The full Algorithm-1 outcome.
    """

    time: float
    predicted_rate: float
    service_time: float
    before: int
    target: int
    after: int
    decision: ProvisioningDecision


class ControlClock:
    """Mutable time source for control-plane observability off the DES.

    The modeler's tracer hook needs a ``time_fn``; inside the DES
    that is ``lambda: engine.now``, and on analytical backends it is one
    of these, advanced by the :class:`ControlPlane` at each decision.
    """

    __slots__ = ("now",)

    def __init__(self, now: float = 0.0) -> None:
        self.now = float(now)

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# analyzer cadence (shared by WorkloadAnalyzer and the fluid backend)
# ----------------------------------------------------------------------
def next_alert_time(
    predictor,
    now: float,
    update_interval: float,
    lead_time: float,
) -> float:
    """Regular cadence, pulled earlier by any known boundary.

    Each boundary ``b`` reported by the predictor triggers *two*
    alerts: one at ``b − lead_time`` (so capacity for an upcoming rate
    increase is provisioned with the required head start) and one
    exactly at ``b`` (so capacity for a rate decrease is not released
    while the old, higher rate is still arriving).
    """
    nxt = now + update_interval
    for b in predictor.boundaries(now, nxt + lead_time):
        for candidate in (b - lead_time, b):
            if now < candidate < nxt:
                nxt = candidate
    return nxt


def alert_schedule(
    predictor,
    horizon: float,
    update_interval: float,
    lead_time: float,
) -> List[float]:
    """Every alert time in ``[0, horizon)`` under the shared cadence."""
    times = [0.0]
    t = 0.0
    while True:
        nxt = next_alert_time(predictor, t, update_interval, lead_time)
        if nxt >= horizon:
            return times
        times.append(nxt)
        t = nxt


def alert_window_end(now: float, next_alert: float, lead_time: float) -> float:
    """End of the window an alert at ``now`` governs.

    The window extends one lead time past the next alert so newly
    provisioned capacity overlaps its boot; the ``1e-9`` floor keeps
    degenerate zero-length windows well-posed for the predictors.
    """
    return max(next_alert + lead_time, now + 1e-9)


# ----------------------------------------------------------------------
# the control plane proper
# ----------------------------------------------------------------------
class ControlPlane:
    """Predictor → Algorithm-1 modeler → actuator, backend-agnostic.

    Inside the DES, :meth:`~repro.core.policies.AdaptivePolicy.attach`
    builds one (by default actuator = the real
    :class:`~repro.cloud.fleet.ApplicationFleet`, service time = the
    monitored EWMA) and the event-scheduled
    :class:`~repro.core.analyzer.WorkloadAnalyzer` feeds it estimates
    through :meth:`on_estimate`.
    On the fluid backend the plane is *self-driving*: the backend walks
    :meth:`alert_times` and calls :meth:`step` at each one.

    Parameters
    ----------
    modeler:
        Algorithm-1 implementation.
    actuator:
        The :class:`FleetActuator` decisions are applied to.
    service_time_fn:
        Zero-argument callable returning the current ``T_m`` estimate
        (monitored EWMA in the DES, analytic mean on the fluid path).
    predictor:
        Arrival-rate estimator.  Only required for the self-driving
        path (:meth:`alert_times` / :meth:`step`); the DES analyzer
        owns its predictor and calls :meth:`on_estimate` directly.
    update_interval, lead_time:
        Analyzer cadence parameters (see :func:`next_alert_time`).
    initial_instances:
        Fleet deployed by :meth:`start` before the first alert.
    tracer:
        Optional :class:`repro.obs.bus.TraceBus`; actuations then emit
        ``scaling.actuated`` events and self-driven predictions emit
        ``prediction.issued``.
    clock:
        Optional :class:`ControlClock` advanced at each decision — the
        ``time_fn`` to hand a traced modeler off the DES.

    The :attr:`actions` log is also what a metrics-enabled run reports
    as its ``control.decisions`` counter and ``fleet.target`` gauge
    (:meth:`repro.obs.metrics.RunTelemetry.finalize`).
    """

    def __init__(
        self,
        modeler: PerformanceModeler,
        actuator: FleetActuator,
        service_time_fn: Callable[[], float],
        predictor=None,
        update_interval: float = 900.0,
        lead_time: float = 60.0,
        initial_instances: int = 0,
        tracer: Optional[object] = None,
        clock: Optional[ControlClock] = None,
    ) -> None:
        if update_interval <= 0.0 or not math.isfinite(update_interval):
            raise ConfigurationError(
                f"update interval must be finite and > 0, got {update_interval!r}"
            )
        if not 0.0 <= lead_time < math.inf:
            raise ConfigurationError(f"lead time must be finite and >= 0, got {lead_time!r}")
        if initial_instances < 0:
            raise ConfigurationError(
                f"initial fleet size must be >= 0, got {initial_instances}"
            )
        self.modeler = modeler
        self.actuator = actuator
        self.service_time_fn = service_time_fn
        self.predictor = predictor
        self.update_interval = float(update_interval)
        self.lead_time = float(lead_time)
        self.initial_instances = int(initial_instances)
        self.tracer = tracer
        self.clock = clock if clock is not None else ControlClock()
        #: Actuation log in time order (both backends).
        self.actions: List[ScalingAction] = []

    # -- properties shared with diagnostics consumers -------------------
    @property
    def now(self) -> float:
        """Time of the most recent decision."""
        return self.clock.now

    @property
    def cache_hits(self) -> int:
        """Decision-cache hits of the underlying modeler."""
        return self.modeler.cache_hits

    @property
    def cache_misses(self) -> int:
        """Decision-cache misses of the underlying modeler."""
        return self.modeler.cache_misses

    @property
    def trajectory(self) -> Tuple[Tuple[float, int], ...]:
        """``(time, reached_fleet_size)`` per actuation — the control
        trajectory compared bit-for-bit across backends."""
        return tuple((a.time, a.after) for a in self.actions)

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Deploy the initial fleet (no-op when ``initial_instances`` is 0)."""
        if self.initial_instances > 0:
            self.actuator.scale_to(self.initial_instances)

    def on_estimate(self, now: float, predicted_rate: float) -> int:
        """Run Algorithm 1 for one estimate and actuate the result.

        Returns the fleet size actually reached.
        """
        self.clock.now = float(now)
        tm = self.service_time_fn()
        before = self.actuator.serving_count
        decision = self.modeler.decide(predicted_rate, tm, max(1, before))
        after = self.actuator.scale_to(decision.instances)
        if self.tracer is not None:
            self.tracer.emit(
                "scaling.actuated",
                now,
                predicted_rate=predicted_rate,
                before=before,
                target=decision.instances,
                after=after,
                service_time=tm,
            )
        self.actions.append(
            ScalingAction(
                time=now,
                predicted_rate=predicted_rate,
                service_time=tm,
                before=before,
                target=decision.instances,
                after=after,
                decision=decision,
            )
        )
        return after

    # -- self-driving path (analytical backends) ------------------------
    def alert_times(self, horizon: float) -> List[float]:
        """Every alert time in ``[0, horizon)`` (needs a predictor)."""
        if self.predictor is None:
            raise ConfigurationError(
                "a self-driving control plane needs a predictor; "
                "pass predictor= when constructing the ControlPlane"
            )
        return alert_schedule(
            self.predictor, horizon, self.update_interval, self.lead_time
        )

    def step(self, now: float) -> Optional[int]:
        """One self-driven control step: predict, decide, actuate.

        The governed window is recomputed exactly as the DES analyzer
        does — from ``now`` to one lead time past the *next* alert
        (:func:`next_alert_time` / :func:`alert_window_end`) — so the
        two backends issue identical predictions.  Returns the fleet
        size reached, or ``None`` when the predictor has no estimate
        yet (the DES analyzer skips such alerts too).
        """
        if self.predictor is None:
            raise ConfigurationError("ControlPlane.step needs a predictor")
        window_start = float(now)
        nxt = next_alert_time(
            self.predictor, window_start, self.update_interval, self.lead_time
        )
        window_end = alert_window_end(window_start, nxt, self.lead_time)
        try:
            rate = self.predictor.predict(window_start, window_end)
        except PredictionError:
            # A reactive predictor with no history yet: skip this alert.
            return None
        if self.tracer is not None:
            self.tracer.emit(
                "prediction.issued",
                now,
                rate=rate,
                window_start=window_start,
                window_end=window_end,
                corrective=False,
            )
        return self.on_estimate(now, rate)
