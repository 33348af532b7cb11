"""Fluid (interval-analytical) simulation engine.

The paper's web scenario generates ≈ 500 million requests per week —
feasible for a compiled simulator like CloudSim, hostile to an
event-per-request Python DES.  The fluid engine is the full-scale
companion (DESIGN.md §4): it advances the scenario in fixed intervals
and treats demand as a *flow* through the provisioned fleet:

* per interval ``Δ`` it evaluates the workload's mean rate ``λ(t)``
  against the fleet size ``m(t)`` dictated by the control trajectory,
  then
* converts flow to metrics with a deterministic-flow model of the
  instances, matching the low-variability simulated workloads:
  rejection appears only when offered load exceeds fleet capacity, and
  the response time of accepted requests grows from one service time
  (idle) toward the ``k``-deep worst case (saturated).

The engine is pure data plane: it knows nothing about predictors or
Algorithm 1.  Adaptive runs step a
:class:`~repro.core.controlplane.ControlPlane` handed in by the caller
(see :class:`repro.backends.fluid.FluidBackend`) through the same
``step`` the DES executes — cadence, modeler, actuation.
That sharing is what lets ``tests/test_backend_xcheck.py`` assert
bit-identical control trajectories across backends, with aggregate
rejection / utilization / VM-hours agreeing within a few percent.

Results come back as a neutral :class:`FluidAggregates` record; the
backend layer converts it into the unified
:class:`~repro.backends.base.RunMetrics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.qos import QoSTarget
from ..errors import ConfigurationError
from ..workloads.base import Workload

__all__ = ["FluidAggregates", "FluidSimulator"]


def _apply_interventions(
    m_changes: List[Tuple[float, int]],
    interventions: Sequence[float],
    horizon: float,
) -> List[Tuple[float, int]]:
    """Fold one-instance reclamations into a control trajectory.

    Walks control actuations and intervention times in merged time
    order; an actuation *sets* the fleet level, an intervention drops
    it by one (floored at 1 — the fluid station count can't vanish).
    Ties resolve actuation-first: reclaiming at the instant of a
    scale-up takes the just-granted capacity.
    """
    events = [(t, 0, v) for t, v in m_changes]
    events += [(float(t), 1, -1) for t in interventions if 0.0 <= t < horizon]
    events.sort(key=lambda e: (e[0], e[1]))
    merged: List[Tuple[float, int]] = []
    current = max(1, m_changes[0][1])
    for t, kind, v in events:
        current = max(1, v) if kind == 0 else max(1, current - 1)
        merged.append((t, current))
    return merged


@dataclass(frozen=True)
class FluidAggregates:
    """Raw aggregates of a fluid run (engine-internal record).

    Attributes
    ----------
    total_requests, accepted, rejected:
        Expected request counts (flows integrated over the horizon).
    rejection_rate, utilization, vm_hours:
        The paper's headline aggregates.
    mean_response_time:
        Accepted-flow-weighted mean sojourn, in *scenario* time — the
        backend normalizes it back to paper scale.
    min_instances, max_instances:
        Fleet-size extrema of the control trajectory.
    fleet_series:
        ``(time, instances)`` trajectory (one entry per change).
    intervals:
        Number of integration-grid intervals evaluated (the fluid
        analogue of the DES event count).
    """

    total_requests: float
    accepted: float
    rejected: float
    rejection_rate: float
    mean_response_time: float
    min_instances: int
    max_instances: int
    vm_hours: float
    utilization: float
    fleet_series: Tuple[Tuple[float, int], ...]
    intervals: int


class FluidSimulator:
    """Interval-analytical evaluator of a provisioning policy.

    Parameters
    ----------
    workload:
        Demand model (its ``mean_rate`` drives the flow).
    qos:
        QoS contract (supplies ``T_s`` and the Eq.-1 capacity).
    dt:
        Evaluation interval in seconds.
    """

    def __init__(self, workload: Workload, qos: QoSTarget, dt: float = 60.0) -> None:
        if dt <= 0.0 or not math.isfinite(dt):
            raise ConfigurationError(f"dt must be finite and > 0, got {dt!r}")
        self.workload = workload
        self.qos = qos
        self.dt = float(dt)
        self.capacity = qos.queue_capacity(workload.base_service_time)
        self.service_time = workload.mean_service_time

    # ------------------------------------------------------------------
    def _station_metrics_vec(self, lam_i: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-instance (blocking, sojourn) for each offered rate of a grid.

        Deterministic flow: rejection only above capacity; the sojourn
        grows from one service time (idle) toward the k-deep worst case
        (saturated).
        """
        ts = self.service_time
        mu = 1.0 / ts
        k = self.capacity
        blocking = np.zeros(lam_i.size)
        sojourn = np.full(lam_i.size, ts)
        pos = lam_i > 0.0
        if not np.any(pos):
            return blocking, sojourn
        rho = lam_i[pos] / mu
        over = rho >= 1.0
        b = np.where(over, 1.0 - 1.0 / np.maximum(rho, 1.0), 0.0)
        s = np.where(over, k * ts, ts * (1.0 + np.maximum(0.0, rho - 0.5) ** 2))
        blocking[pos] = b
        sojourn[pos] = np.minimum(s, k * ts)
        return blocking, sojourn

    # ------------------------------------------------------------------
    def run_static(
        self,
        instances: int,
        horizon: float,
        tracer: Optional[object] = None,
        telemetry: Optional[object] = None,
    ) -> FluidAggregates:
        """Evaluate a Static-N policy over ``[0, horizon)``."""
        if instances < 1:
            raise ConfigurationError(f"instances must be >= 1, got {instances}")
        times = np.arange(0.0, horizon, self.dt)
        m_series = [(0.0, int(instances))]
        return self._integrate(
            times,
            np.full(times.size, instances, dtype=np.int64),
            m_series,
            horizon,
            tracer=tracer,
            telemetry=telemetry,
        )

    def run_adaptive(
        self,
        control,
        horizon: float,
        tracer: Optional[object] = None,
        telemetry: Optional[object] = None,
        interventions: Optional[Sequence[float]] = None,
    ) -> FluidAggregates:
        """Evaluate an adaptive control plane over ``[0, horizon)``.

        ``control`` is a :class:`~repro.core.controlplane.ControlPlane`
        (or anything duck-compatible exposing ``start()``,
        ``step(now)`` returning the next alert time, and
        ``trajectory``).  The engine steps the plane from alert to
        alert — the same steps the DES analyzer schedules — and
        integrates the flow under the resulting fleet trajectory.

        ``interventions`` is an optional sequence of times at which one
        instance is externally reclaimed (the fluid analogue of a spot
        revocation): the fleet dips by one at each time and stays dipped
        until the next control actuation restores the target — exactly
        the DES semantics, where the adaptive provisioner repairs the
        fleet at its next alert.  The control *trajectory* is untouched,
        so cross-backend control comparisons remain bit-identical.

        The run is :meth:`control_pass` followed by
        :meth:`integrate_trajectory`.
        """
        self.control_pass(control, horizon)
        return self.integrate_trajectory(
            control, horizon, tracer=tracer, telemetry=telemetry, interventions=interventions
        )

    @staticmethod
    def control_pass(control, horizon: float) -> None:
        """Step ``control`` from alert to alert over ``[0, horizon)``.

        The pass reads no flow state, so one finished pass can serve any
        number of :meth:`integrate_trajectory` calls.
        """
        control.start()
        t = 0.0
        while t < horizon:
            t = control.step(t)

    def integrate_trajectory(
        self,
        control,
        horizon: float,
        tracer: Optional[object] = None,
        telemetry: Optional[object] = None,
        interventions: Optional[Sequence[float]] = None,
    ) -> FluidAggregates:
        """Integrate the flow under a finished control pass's fleet trajectory.

        ``interventions`` are folded into the trajectory first, as in
        :meth:`run_adaptive`; ``control`` itself is only read.
        """
        m_changes: List[Tuple[float, int]] = list(control.trajectory)
        if not m_changes:
            # Every alert was skipped (predictor without history): the
            # initial fleet serves the whole horizon.
            m_changes = [(0.0, max(1, control.actuator.serving_count))]
        if interventions:
            m_changes = _apply_interventions(m_changes, interventions, horizon)
        # --- sample m(t) on the integration grid -------------------------
        times = np.arange(0.0, horizon, self.dt)
        change_times = np.array([t for t, _ in m_changes])
        change_values = np.array([max(1, v) for _, v in m_changes], dtype=np.int64)
        idx = np.clip(np.searchsorted(change_times, times, side="right") - 1, 0, None)
        m_grid = change_values[idx]
        return self._integrate(
            times, m_grid, m_changes, horizon, tracer=tracer, telemetry=telemetry
        )

    # ------------------------------------------------------------------
    def _integrate(
        self,
        times: np.ndarray,
        m_grid: np.ndarray,
        m_series: List[Tuple[float, int]],
        horizon: float,
        tracer: Optional[object] = None,
        telemetry: Optional[object] = None,
    ) -> FluidAggregates:
        lam = np.atleast_1d(np.asarray(self.workload.mean_rate(times), dtype=np.float64))
        dt = self.dt
        # Vectorized interval loop: one pass of numpy kernels over the
        # whole grid instead of ~10k Python iterations per simulated
        # week (the fluid engine's measured hot spot).
        lam_i = lam / m_grid.astype(np.float64)
        blocking, sojourn = self._station_metrics_vec(lam_i)
        acc_rate = lam * (1.0 - blocking)
        total = float(np.sum(lam)) * dt
        accepted = float(np.sum(acc_rate)) * dt
        rejected = float(np.sum(lam * blocking)) * dt
        busy = accepted * self.service_time
        resp_weighted = float(np.sum(acc_rate * sojourn)) * dt
        vm_seconds = float(np.sum(m_grid.astype(np.float64) * dt))
        vm_hours = vm_seconds / 3600.0
        if tracer is not None and times.size:
            self._emit_intervals(tracer, times, m_grid, lam, blocking)
        if telemetry is not None:
            # Grid-driven metrics.snapshot series (expected flows; see
            # RunTelemetry.sample_grid for the fluid conventions).
            telemetry.sample_grid(times, dt, lam, blocking, m_grid, horizon)
        return FluidAggregates(
            total_requests=total,
            accepted=accepted,
            rejected=rejected,
            rejection_rate=(rejected / total) if total > 0 else 0.0,
            mean_response_time=(resp_weighted / accepted) if accepted > 0 else 0.0,
            min_instances=int(m_grid.min()) if m_grid.size else 0,
            max_instances=int(m_grid.max()) if m_grid.size else 0,
            vm_hours=vm_hours,
            utilization=(busy / vm_seconds) if vm_seconds > 0 else 0.0,
            fleet_series=tuple(m_series),
            intervals=int(times.size),
        )

    def _emit_intervals(
        self,
        tracer,
        times: np.ndarray,
        m_grid: np.ndarray,
        lam: np.ndarray,
        blocking: np.ndarray,
    ) -> None:
        """Emit one ``fluid.interval`` trace event per constant-m segment.

        A per-grid-interval event stream would dwarf the DES control
        trace (10k+ events/week); aggregating to fleet-size segments
        keeps traces comparable while still exposing the flow balance.
        """
        starts = np.flatnonzero(np.diff(m_grid)) + 1
        starts = np.concatenate(([0], starts))
        offered = np.add.reduceat(lam, starts) * self.dt
        rejected = np.add.reduceat(lam * blocking, starts) * self.dt
        ends = np.append(starts[1:], m_grid.size)
        for i, start in enumerate(starts):
            tracer.emit(
                "fluid.interval",
                float(times[start]),
                duration=float((ends[i] - start) * self.dt),
                instances=int(m_grid[start]),
                offered=float(offered[i]),
                rejected=float(rejected[i]),
            )
