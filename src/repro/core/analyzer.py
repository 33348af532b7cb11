"""Workload analyzer — the DES scheduler of the control loop.

The workload analyzer (paper §IV-A) "generates estimation (prediction)
of request arrival rate" and "alerts the load predictor and performance
modeler when service request rate is likely to change.  This alert
contains the expected arrival rate and must be issued before the
expected time for the rate to change, so the load predictor ... has
time to calculate changes and the application provisioner has time to
deploy or release the required VMs."

The alert itself — cadence, window, prediction, Algorithm 1 and
actuation — is :meth:`repro.core.controlplane.ControlPlane.step`, the
same code the fluid backend loops over.  :class:`WorkloadAnalyzer` adds
only what needs the engine and the monitor:

* it runs each alert as an engine event and schedules the next one at
  the time the step returns;
* before each step it replays any new monitored rate samples into the
  plane's predictor, which is how the reactive predictors learn;
* optionally it watches the monitored rate between alerts and issues a
  corrective estimate when it strays from the last one.
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..cloud.monitor import Monitor
from ..errors import ConfigurationError
from ..sim.engine import Engine
from ..sim.events import PRIORITY_HIGH, PRIORITY_LOW
from .controlplane import ControlPlane

__all__ = ["WorkloadAnalyzer"]


class WorkloadAnalyzer:
    """Runs a control plane's alerts as engine events.

    Parameters
    ----------
    engine:
        Simulation engine.
    plane:
        The :class:`~repro.core.controlplane.ControlPlane` whose
        :meth:`~repro.core.controlplane.ControlPlane.step` each alert
        runs; it needs a predictor.
    horizon:
        Simulation end time; no alerts are scheduled beyond it.
    monitor:
        Optional monitor whose sampled rate history feeds the plane's
        predictor (:meth:`~repro.prediction.base.ArrivalRatePredictor.observe`).
    deviation_threshold:
        When set (e.g. 0.3), the analyzer also *watches* the monitored
        arrival rate between scheduled alerts: if an observed sample
        deviates from the last issued estimate by more than this
        relative threshold, an immediate corrective alert fires with
        the observed rate (inflated by ``deviation_safety``).  This is
        the feedback loop that protects the system when the predictor
        is simply wrong — the paper's "resilience to uncertainties".
        Requires a monitor with rate sampling enabled, which
        :meth:`~repro.core.policies.AdaptivePolicy.validate` checks.
    deviation_safety:
        Inflation applied to the observed rate on a corrective alert.

    A corrective alert emits ``prediction.issued`` with
    ``corrective=True`` and the observed rate on the plane's tracer.
    """

    def __init__(
        self,
        engine: Engine,
        plane: ControlPlane,
        horizon: float,
        monitor: Optional[Monitor] = None,
        deviation_threshold: Optional[float] = None,
        deviation_safety: float = 1.1,
    ) -> None:
        if horizon <= 0.0:
            raise ConfigurationError(f"horizon must be > 0, got {horizon!r}")
        self._engine = engine
        self._plane = plane
        self.horizon = float(horizon)
        self._monitor = monitor
        self._last_fed = -math.inf
        self.deviation_threshold = deviation_threshold
        self.deviation_safety = float(deviation_safety)
        #: Times at which a corrective (deviation) alert fired.
        self.corrections: List[float] = []

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first alert (and deviation checks) now."""
        self._engine.schedule_at(self._engine.now, self._alert, PRIORITY_HIGH)
        if self.deviation_threshold is not None:
            # PRIORITY_LOW and scheduled after the monitor's sampling
            # event, so each check sees the sample taken at the same
            # instant (FIFO among equal priorities).
            interval = self._monitor.rate_sample_interval
            self._engine.schedule(interval, self._deviation_check, PRIORITY_LOW)

    def _alert(self) -> None:
        monitor = self._monitor
        if monitor is not None:
            predictor = self._plane.predictor
            for t, rate in monitor.rate_history:
                if t > self._last_fed:
                    predictor.observe(t, rate)
                    self._last_fed = t
        nxt = self._plane.step(self._engine.now)
        if nxt < self.horizon:
            self._engine.schedule_at(nxt, self._alert, PRIORITY_HIGH)

    def _deviation_check(self) -> None:
        """Compare the latest observed rate with the issued estimate."""
        now = self._engine.now
        plane = self._plane
        observed = self._monitor.observed_rate()
        if observed is not None and plane.actions:
            estimate = plane.actions[-1].predicted_rate
            reference = max(estimate, 1e-12)
            if abs(observed - estimate) / reference > self.deviation_threshold:
                corrected = observed * self.deviation_safety
                self.corrections.append(now)
                if plane.tracer is not None:
                    plane.tracer.emit(
                        "prediction.issued",
                        now,
                        rate=corrected,
                        window_start=now,
                        window_end=now + plane.update_interval,
                        corrective=True,
                        observed=observed,
                        previous_estimate=estimate,
                    )
                plane.on_estimate(now, corrected)
        nxt = now + self._monitor.rate_sample_interval
        if nxt < self.horizon:
            self._engine.schedule_at(nxt, self._deviation_check, PRIORITY_LOW)
