"""Backend-agnostic control plane — cadence, decision, actuation.

The paper's mechanism is one loop (Figure 1): the workload analyzer
estimates the arrival rate on a boundary-aligned cadence, the
performance modeler runs Algorithm 1, and the application provisioner
actuates the chosen fleet size.  :meth:`ControlPlane.step` is that loop's
one step, and both substrates run it: the event-driven simulator
(:mod:`repro.backends.des`) calls it from an engine event
(:class:`~repro.core.analyzer.WorkloadAnalyzer`), and the
interval-analytical fluid engine (:mod:`repro.backends.fluid`) calls it
in a plain loop.  Each call returns the next alert time, so the two
differ only in how they wait for it.

* :func:`next_alert_time` / :func:`alert_window_end` — the analyzer
  cadence (regular interval pulled earlier by known rate boundaries,
  each boundary alerting both ``lead_time`` early and exactly on time);
* :class:`FleetActuator` — the narrow protocol a fleet must satisfy to
  be scaled (``serving_count`` + ``scale_to``);
  :class:`repro.cloud.fleet.ApplicationFleet` implements it with real
  instance mechanics, :class:`RecordingActuator` with a counter, and
  the vertical policy's actuator in cores per instance;
* :class:`ControlPlane` — predictor → Algorithm-1 modeler → actuator,
  recording every actuation as a :class:`ScalingAction` and tracing
  each prediction, decision and actuation.

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
    "ControlPlane",
    "next_alert_time",
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


# ----------------------------------------------------------------------
# analyzer cadence
# ----------------------------------------------------------------------
def check_cadence(update_interval: float, lead_time: float) -> None:
    """Raise :class:`ConfigurationError` unless ``update_interval`` is
    finite and > 0 and ``lead_time`` finite and >= 0."""
    if update_interval <= 0.0 or not math.isfinite(update_interval):
        raise ConfigurationError(
            f"update interval must be finite and > 0, got {update_interval!r}"
        )
    if not 0.0 <= lead_time < math.inf:
        raise ConfigurationError(f"lead time must be finite and >= 0, got {lead_time!r}")


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

    :meth:`step` is the whole loop at one alert: it predicts the rate
    over the window the alert governs, runs Algorithm 1 on it
    (:meth:`on_estimate`), actuates, and returns when the next alert is
    due.  The DES schedules that time as an engine event
    (:class:`~repro.core.analyzer.WorkloadAnalyzer`, which also feeds
    the predictor the monitored rate history and calls
    :meth:`on_estimate` directly for a corrective alert); the fluid
    backend loops ``t = plane.step(t)`` to the horizon.
    :meth:`~repro.core.policies.AdaptivePolicy.attach` and
    :meth:`~repro.core.policies.AdaptivePolicy.control_plane` build one
    for each.

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
        Arrival-rate estimator; :meth:`step` needs one,
        :meth:`on_estimate` does not.
    update_interval, lead_time:
        Analyzer cadence parameters (see :func:`next_alert_time`).
    initial_instances:
        Fleet deployed by :meth:`start` before the first alert.
    tracer:
        Optional :class:`repro.obs.bus.TraceBus`; each step then emits
        ``prediction.issued``, and each estimate ``decision`` and
        ``scaling.actuated``.

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
    ) -> None:
        check_cadence(update_interval, lead_time)
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
        #: Time of the most recent decision.
        self.now = 0.0
        #: Actuation log in time order (both backends).
        self.actions: List[ScalingAction] = []

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

    def step(self, now: float) -> float:
        """One alert: predict, decide, actuate; return the next alert time.

        The window this alert governs starts at ``now`` (the fleet chosen
        here serves everything until the next alert actuates, so a
        scale-down must still cover the tail of the current regime) and
        ends one lead time past the next alert
        (:func:`next_alert_time` / :func:`alert_window_end`).  A
        predictor with no estimate yet (a reactive one without history)
        skips the alert.
        """
        predictor = self.predictor
        if predictor is None:
            raise ConfigurationError("ControlPlane.step needs a predictor")
        nxt = next_alert_time(predictor, now, self.update_interval, self.lead_time)
        window_end = alert_window_end(now, nxt, self.lead_time)
        try:
            rate = predictor.predict(now, window_end)
        except PredictionError:
            return nxt
        if self.tracer is not None:
            self.tracer.emit(
                "prediction.issued",
                now,
                rate=rate,
                window_start=now,
                window_end=window_end,
                corrective=False,
            )
        self.on_estimate(now, rate)
        return nxt

    def on_estimate(self, now: float, predicted_rate: float) -> int:
        """Run Algorithm 1 for one estimate and actuate the result.

        Returns the fleet size actually reached.
        """
        self.now = float(now)
        tm = self.service_time_fn()
        before = self.actuator.serving_count
        current = max(1, before)
        modeler = self.modeler
        hits = modeler.cache_hits
        decision = modeler.decide(predicted_rate, tm, current)
        tracer = self.tracer
        if tracer is not None:
            perf = decision.predicted
            tracer.emit(
                "decision",
                now,
                arrival_rate=predicted_rate,
                service_time=tm,
                current=current,
                chosen=decision.instances,
                iterations=decision.iterations,
                meets_qos=decision.meets_qos,
                cache_hit=modeler.cache_hits != hits,
                path=list(decision.trace),
                rho=perf.rho,
                blocking=perf.blocking_probability,
                response=perf.response_time,
            )
        after = self.actuator.scale_to(decision.instances)
        if tracer is not None:
            tracer.emit(
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
