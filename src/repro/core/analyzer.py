"""Workload analyzer — scheduled arrival-rate estimation.

The workload analyzer (paper §IV-A) "generates estimation (prediction)
of request arrival rate" and "alerts the load predictor and performance
modeler when service request rate is likely to change.  This alert
contains the expected arrival rate and must be issued before the
expected time for the rate to change, so the load predictor ... has
time to calculate changes and the application provisioner has time to
deploy or release the required VMs."

:class:`WorkloadAnalyzer` realizes that contract inside the DES:

* it fires on a fixed cadence (``update_interval``) **and** at every
  known rate-change boundary reported by its predictor (the web
  workload's six daily periods, the scientific workload's 8 a.m. /
  5 p.m. switches), each alert issued ``lead_time`` seconds early;
* each alert asks the predictor for the expected rate over the window
  that the alert governs (from this alert's effect to the next one's),
  then invokes the provisioning callback with it;
* before predicting, it replays any new monitored rate samples into the
  predictor, which is how the reactive predictors learn.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Tuple

from ..cloud.monitor import Monitor
from ..errors import ConfigurationError, PredictionError
from ..prediction.base import ArrivalRatePredictor
from ..sim.engine import Engine
from ..sim.events import PRIORITY_HIGH, PRIORITY_LOW
from .controlplane import alert_window_end, next_alert_time

__all__ = ["WorkloadAnalyzer"]


class WorkloadAnalyzer:
    """Drives predictions on a cadence aligned with known boundaries.

    Parameters
    ----------
    engine:
        Simulation engine.
    predictor:
        The arrival-rate estimator.
    on_estimate:
        Callback ``(expected_rate) -> None`` — the provisioning chain.
    horizon:
        Simulation end time; no alerts are scheduled beyond it.
    update_interval:
        Cadence of regular alerts (seconds).
    lead_time:
        How early an alert fires relative to the window it governs —
        the provisioning head start for VM deployment.
    monitor:
        Optional monitor whose sampled rate history feeds the
        predictor's :meth:`~repro.prediction.base.ArrivalRatePredictor.observe`.
    deviation_threshold:
        When set (e.g. 0.3), the analyzer also *watches* the monitored
        arrival rate between scheduled alerts: if an observed sample
        deviates from the last issued estimate by more than this
        relative threshold, an immediate corrective alert fires with
        the observed rate (inflated by ``deviation_safety``).  This is
        the feedback loop that protects the system when the predictor
        is simply wrong — the paper's "resilience to uncertainties".
        Requires a monitor with rate sampling enabled.
    deviation_safety:
        Inflation applied to the observed rate on a corrective alert.
    tracer:
        Optional :class:`repro.obs.bus.TraceBus`; every alert then
        emits a ``prediction.issued`` event (``corrective=True`` for
        deviation-triggered ones, which also carry the observed rate).
    """

    def __init__(
        self,
        engine: Engine,
        predictor: ArrivalRatePredictor,
        on_estimate: Callable[[float], None],
        horizon: float,
        update_interval: float = 900.0,
        lead_time: float = 60.0,
        monitor: Optional[Monitor] = None,
        deviation_threshold: Optional[float] = None,
        deviation_safety: float = 1.1,
        tracer: Optional[object] = None,
    ) -> None:
        if update_interval <= 0.0 or not math.isfinite(update_interval):
            raise ConfigurationError(
                f"update interval must be finite and > 0, got {update_interval!r}"
            )
        if not 0.0 <= lead_time < math.inf:
            raise ConfigurationError(f"lead time must be finite and >= 0, got {lead_time!r}")
        if horizon <= 0.0:
            raise ConfigurationError(f"horizon must be > 0, got {horizon!r}")
        self._engine = engine
        self._predictor = predictor
        self._on_estimate = on_estimate
        self.horizon = float(horizon)
        self.update_interval = float(update_interval)
        self.lead_time = float(lead_time)
        self._monitor = monitor
        self._tracer = tracer
        self._last_fed = -math.inf
        #: History of ``(alert_time, window_start, window_end, rate)``.
        self.alerts: List[Tuple[float, float, float, float]] = []
        # -- deviation watching -----------------------------------------
        if deviation_threshold is not None:
            if deviation_threshold <= 0.0:
                raise ConfigurationError(
                    f"deviation threshold must be > 0, got {deviation_threshold!r}"
                )
            if monitor is None or monitor.rate_sample_interval is None:
                raise ConfigurationError(
                    "deviation watching needs a monitor with rate sampling "
                    "(set the scenario's rate_sample_interval)"
                )
        if deviation_safety <= 0.0:
            raise ConfigurationError(
                f"deviation safety must be > 0, got {deviation_safety!r}"
            )
        self.deviation_threshold = deviation_threshold
        self.deviation_safety = float(deviation_safety)
        self._last_estimate: Optional[float] = None
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

    def _next_alert_time(self, now: float) -> float:
        """Shared cadence (see :func:`repro.core.controlplane.next_alert_time`)."""
        return next_alert_time(self._predictor, now, self.update_interval, self.lead_time)

    def _feed_monitor_history(self) -> None:
        if self._monitor is None:
            return
        for t, rate in self._monitor.rate_history:
            if t > self._last_fed:
                self._predictor.observe(t, rate)
                self._last_fed = t

    def _alert(self) -> None:
        now = self._engine.now
        nxt = self._next_alert_time(now)
        # The window this alert governs starts *now*: the fleet chosen
        # here serves everything until the next alert actuates, so a
        # scale-down must still cover the tail of the current regime.
        window_start = now
        window_end = alert_window_end(window_start, nxt, self.lead_time)
        self._feed_monitor_history()
        try:
            rate = self._predictor.predict(window_start, window_end)
        except PredictionError:
            # A reactive predictor with no history yet: skip this alert;
            # the next one will have samples.
            rate = None
        if rate is not None:
            self.alerts.append((now, window_start, window_end, rate))
            self._last_estimate = rate
            if self._tracer is not None:
                self._tracer.emit(
                    "prediction.issued",
                    now,
                    rate=rate,
                    window_start=window_start,
                    window_end=window_end,
                    corrective=False,
                )
            self._on_estimate(rate)
        if nxt < self.horizon:
            self._engine.schedule_at(nxt, self._alert, PRIORITY_HIGH)

    def _deviation_check(self) -> None:
        """Compare the latest observed rate with the issued estimate."""
        now = self._engine.now
        observed = self._monitor.observed_rate()
        estimate = self._last_estimate
        if observed is not None and estimate is not None:
            reference = max(estimate, 1e-12)
            if abs(observed - estimate) / reference > self.deviation_threshold:
                corrected = observed * self.deviation_safety
                self.alerts.append((now, now, now + self.update_interval, corrected))
                self.corrections.append(now)
                self._last_estimate = corrected
                if self._tracer is not None:
                    self._tracer.emit(
                        "prediction.issued",
                        now,
                        rate=corrected,
                        window_start=now,
                        window_end=now + self.update_interval,
                        corrective=True,
                        observed=observed,
                        previous_estimate=estimate,
                    )
                self._on_estimate(corrected)
        interval = self._monitor.rate_sample_interval
        nxt = now + interval
        if nxt < self.horizon:
            self._engine.schedule_at(nxt, self._deviation_check, PRIORITY_LOW)
