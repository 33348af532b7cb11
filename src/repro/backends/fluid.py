"""Fluid execution backend — interval-analytical evaluation.

:class:`FluidBackend` runs the same ``(scenario, policy)`` replication
contract as the DES backend, but through the flow engine
(:class:`~repro.sim.fluid.FluidSimulator`).  Adaptive policies are
executed by stepping a control plane built from the policy itself
(:meth:`repro.core.policies.AdaptivePolicy.control_plane`) from alert
to alert, so the cadence and Algorithm-1 decisions are byte-for-byte
the DES code — the engine only integrates the flow underneath the
resulting fleet trajectory.

The backend draws no random numbers of its own.  A run reads its seed
only through a Spot policy's revocation schedule
(:func:`revocation_schedule`, on scenarios with pricing), so Spot
replications differ per seed and every other policy gives the same
metrics for every seed (apart from ``wall_seconds`` and ``profile``).
:meth:`FluidBackend.run_seeds` exploits that: one control pass serves
all the seeds of a call, and a seed whose schedule was already run
copies that result.  Load balancers are a data-plane concept with no
fluid counterpart and are rejected if passed.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Callable, List, Optional, Sequence, Tuple

from ..cloud.datacenter import Datacenter
from ..cloud.vm import DEFAULT_VM_SPEC
from ..core.controlplane import ControlPlane
from ..core.policies import AdaptivePolicy
from ..economy.ledger import EconomyTotals, publish_totals
from ..sim.fluid import FluidSimulator
from ..sim.rng import RandomStreams
from .base import Collected, ExecutionBackend, RunMetrics, RunState, economy_fields

__all__ = ["FluidBackend", "revocation_schedule"]


def revocation_schedule(scenario, policy, seed: int) -> Tuple[float, ...]:
    """The revocation times a fluid run of ``seed`` folds in.

    Spot policies revoke on the same seeded stream the DES draws from,
    so the fluid run sees the DES's schedule; this is the one place the
    fluid backend reads a seed.  Every other policy, and a Spot policy
    on a scenario without pricing, gets ``()``.
    """
    schedule_fn = getattr(policy, "revocation_schedule", None)
    if schedule_fn is None or scenario.pricing is None:
        return ()
    return tuple(schedule_fn(RandomStreams(seed), scenario.horizon))


class FluidBackend(ExecutionBackend):
    """Interval-analytical execution of one replication.

    Traced runs emit ``run.start``/``run.end`` like the DES backends,
    the control plane emits ``prediction.issued``/``decision``/
    ``scaling.actuated``, and the engine adds one ``fluid.interval``
    event per constant-fleet segment.  ``metrics`` computes the
    ``metrics.snapshot`` series from the integration grid (expected
    flows — see :meth:`~repro.obs.metrics.RunTelemetry.sample_grid`).

    Parameters
    ----------
    dt:
        Integration interval in seconds (default 60).
    """

    name = "fluid"
    balances = False
    #: A finished control pass that every adaptive run of this backend
    #: integrates under instead of running its own.  Only set on the
    #: per-call copy :meth:`run_seeds` makes for seeds that differ only
    #: in their revocation schedules.
    _shared_pass: Optional[ControlPlane] = None

    def __init__(self, dt: float = 60.0) -> None:
        self.dt = float(dt)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FluidBackend(dt={self.dt!r})"

    def build(self, run: RunState) -> None:
        scenario, policy = run.scenario, run.policy
        run.sim = FluidSimulator(scenario.workload, scenario.qos, dt=self.dt)
        run.control = None
        if isinstance(policy, AdaptivePolicy):
            run.control = self._shared_pass
            if run.control is None:
                run.control = self._control_plane(scenario, policy, run.tracer)
        if run.metrics is not None:
            self.start_telemetry(run)
        run.revocations = revocation_schedule(scenario, policy, run.seed)

    @staticmethod
    def _control_plane(scenario, policy: AdaptivePolicy, tracer) -> ControlPlane:
        datacenter = Datacenter(
            num_hosts=scenario.num_hosts,
            cores_per_host=scenario.cores_per_host,
            ram_per_host_mb=scenario.ram_per_host_mb,
        )
        return policy.control_plane(
            workload=scenario.workload,
            qos=scenario.qos,
            capacity=scenario.capacity,
            max_vms=datacenter.max_vms(DEFAULT_VM_SPEC),
            tracer=tracer,
        )

    def run_seeds(
        self,
        scenario,
        policy_factory: Callable[[], object],
        seeds: Sequence[int],
        *,
        workers: Optional[int] = 1,
        chunk_size: Optional[int] = None,
        trace=None,
        metrics=None,
    ) -> List[RunMetrics]:
        """One replication per seed, sharing the work seeds have in common.

        Untraced, unmetered seeds run in-process whatever ``workers``
        says.  A seed whose :func:`revocation_schedule` equals an
        earlier seed's copies that seed's result; this covers every
        non-Spot policy, whose schedules are all empty, so its first
        seed is the only :meth:`run`.  When the schedules differ (Spot
        with pricing), the control pass, which reads no schedule, runs
        once up front, and each distinct schedule runs through
        :meth:`run` on that finished pass, so it only folds in its own
        revocations and integrates.  The shared pass lives only for
        this call.

        With ``trace`` or ``metrics`` set, every seed runs on its own,
        so each writes its own trace and telemetry.
        """
        if trace is not None or metrics is not None:
            return super().run_seeds(
                scenario, policy_factory, seeds, workers=workers,
                chunk_size=chunk_size, trace=trace, metrics=metrics,
            )
        policies = [policy_factory() for _ in seeds]
        schedules = [revocation_schedule(scenario, p, s) for p, s in zip(policies, seeds)]
        backend = self
        if len(set(schedules)) > 1:
            backend = copy.copy(self)
            backend._shared_pass = self._control_plane(scenario, policies[0], None)
            FluidSimulator.control_pass(backend._shared_pass, scenario.horizon)
        done = {}
        results = []
        for seed, policy, schedule in zip(seeds, policies, schedules):
            first = done.get(schedule)
            if first is None:
                result = done[schedule] = backend.run(scenario, policy, seed=seed)
            else:
                result = dataclasses.replace(
                    first, seed=seed, profile=copy.deepcopy(first.profile)
                )
            results.append(result)
        return results

    def drive(self, run: RunState) -> None:
        if run.control is None:
            run.agg = run.sim.run_static(
                run.policy.instances,
                run.scenario.horizon,
                tracer=run.tracer,
                telemetry=run.telemetry,
            )
        elif run.control is self._shared_pass:
            run.agg = run.sim.integrate_trajectory(
                run.control, run.scenario.horizon, interventions=run.revocations
            )
        else:
            run.agg = run.sim.run_adaptive(
                run.control,
                run.scenario.horizon,
                tracer=run.tracer,
                telemetry=run.telemetry,
                interventions=run.revocations,
            )

    def collect(self, run: RunState) -> Collected:
        scenario, agg, control = run.scenario, run.agg, run.control
        totals = None
        if scenario.pricing is not None:
            # No per-request distribution on the fluid backend → no
            # QoS-violating intervals, so the penalty is 0 by
            # construction (documented in docs/economy.md).
            totals = EconomyTotals.from_aggregates(
                scenario.pricing,
                completed=agg.accepted,
                core_hours=agg.vm_hours * DEFAULT_VM_SPEC.cores,
                vm_hours=agg.vm_hours,
                spot_fraction=float(getattr(run.policy, "spot_fraction", 0.0)),
                violating_intervals=0,
                revocations=len(run.revocations),
            )
            publish_totals(totals, scenario.horizon, violating_intervals=0, tracer=run.tracer)
        fields = dict(
            total_requests=agg.total_requests,
            accepted=agg.accepted,
            completed=agg.accepted,  # flows always drain
            rejected=agg.rejected,
            rejection_rate=agg.rejection_rate,
            mean_response_time=agg.mean_response_time / scenario.scale,
            response_time_std=0.0,
            qos_violations=0,
            min_instances=agg.min_instances,
            max_instances=agg.max_instances,
            vm_hours=agg.vm_hours,
            core_hours=agg.vm_hours * DEFAULT_VM_SPEC.cores,
            failures=0,
            lost_requests=0,
            utilization=agg.utilization,
            events=agg.intervals,
            fleet_series=agg.fleet_series,
            control_series=control.trajectory if control is not None else agg.fleet_series,
            cache_hits=control.modeler.cache_hits if control is not None else 0,
            cache_misses=control.modeler.cache_misses if control is not None else 0,
            **economy_fields(totals),
        )
        fleet = agg.fleet_series[-1][1] if agg.fleet_series else 0
        return Collected(
            fields, {"intervals": agg.intervals}, fleet, (scenario.horizon, agg.intervals),
            actions=control.actions if control is not None else None,
        )
