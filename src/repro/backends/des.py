"""DES execution backend — event-per-request simulation.

Home of :func:`build_context` (the data-plane wiring of both DES
backends) and :class:`DESBackend`, which runs one replication through
the event loop and reports the unified
:class:`~repro.backends.base.RunMetrics`.

Replications use spawned random streams (seed 0, 1, 2 …), so each is
independent yet exactly reproducible, and policies compared on the same
replication index share identical arrival streams (common random
numbers — the variance-reduction discipline the static-vs-adaptive
comparison benefits from).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..cloud.admission import AdmissionControl
from ..cloud.broker import WorkloadSource
from ..cloud.datacenter import Datacenter
from ..cloud.fleet import ApplicationFleet
from ..cloud.loadbalancer import LoadBalancer
from ..cloud.monitor import Monitor
from ..cloud.vecfleet import VectorFleet
from ..cloud.vm import DEFAULT_VM_SPEC
from ..core.context import SimulationContext
from ..economy.ledger import ProfitLedger
from ..metrics.collector import MetricsCollector
from ..obs.bus import TraceBus
from ..sim.engine import Engine
from ..sim.rng import RandomStreams
from .base import Collected, ExecutionBackend, RunState, economy_fields

if TYPE_CHECKING:  # pragma: no cover - import-time only for annotations
    from ..experiments.scenario import ScenarioConfig

__all__ = ["DESBackend", "build_context"]


def build_context(
    scenario: "ScenarioConfig",
    seed: int = 0,
    balancer: Optional[LoadBalancer] = None,
    tracer: Optional[TraceBus] = None,
    vectorized: bool = False,
) -> SimulationContext:
    """Wire the data plane of one replication (no policy attached).

    By default this is the event-per-request plane: an
    :class:`~repro.cloud.fleet.ApplicationFleet` behind an
    :class:`~repro.cloud.admission.AdmissionControl` gate that the
    broker feeds one arrival at a time.  ``vectorized=True`` wires the
    batched plane instead: a :class:`~repro.cloud.vecfleet.VectorFleet`
    that the broker hands whole arrival windows, and whose span kernel
    *is* the admission gate (the paper's all-instances-full test,
    evaluated in bulk).  Both planes draw the same streams in the same
    construction order.

    ``tracer`` (a :class:`~repro.obs.bus.TraceBus`) is threaded into
    every instrumented component; ``None`` (the default) is tracing
    off.
    """
    streams = RandomStreams(seed)
    engine = Engine()
    workload = scenario.workload
    metrics = MetricsCollector(
        qos_response_time=scenario.qos.max_response_time,
        track_fleet_series=scenario.track_fleet_series,
    )
    datacenter = Datacenter(
        num_hosts=scenario.num_hosts,
        cores_per_host=scenario.cores_per_host,
        ram_per_host_mb=scenario.ram_per_host_mb,
    )
    monitor = Monitor(
        engine=engine,
        metrics=metrics,
        default_service_time=workload.mean_service_time,
        rate_sample_interval=scenario.rate_sample_interval,
        tracer=tracer,
    )
    sampler = workload.service_sampler(streams.get("service"))
    capacity = scenario.capacity
    plane = dict(
        engine=engine,
        datacenter=datacenter,
        sampler=sampler,
        monitor=monitor,
        metrics=metrics,
        capacity=capacity,
        balancer=balancer,
        boot_delay=scenario.boot_delay,
        tracer=tracer,
    )
    if not vectorized:
        fleet = ApplicationFleet(**plane)
        admission = AdmissionControl(fleet, monitor, tracer=tracer)
        sink = None
    else:
        fleet = sink = VectorFleet(**plane)
        admission = None
    source = WorkloadSource(
        engine=engine,
        workload=workload,
        rng=streams.get("arrivals"),
        admission=admission,
        horizon=scenario.horizon,
        tracer=None if vectorized else tracer,
        sink=sink,
    )
    return SimulationContext(
        engine=engine,
        streams=streams,
        workload=workload,
        qos=scenario.qos,
        capacity=capacity,
        datacenter=datacenter,
        fleet=fleet,
        monitor=monitor,
        metrics=metrics,
        admission=admission,
        source=source,
        horizon=scenario.horizon,
        tracer=tracer,
    )


class DESBackend(ExecutionBackend):
    """Event-per-request execution of one replication."""

    name = "des"
    #: Whether :func:`build_context` wires the batched data plane.
    vectorized = False

    def build(self, run: RunState) -> None:
        scenario, tracer = run.scenario, run.tracer
        ctx = run.ctx = build_context(
            scenario, run.seed, run.balancer, tracer=tracer, vectorized=self.vectorized
        )
        run.policy.attach(ctx)
        # Economics is strictly opt-in: an unpriced run has no ledger
        # and no extra accounting tick.
        run.ledger = None
        if scenario.pricing is not None:
            run.ledger = ProfitLedger(
                scenario.pricing,
                interval=scenario.update_interval,
                cores_per_vm=float(DEFAULT_VM_SPEC.cores),
                spot_fraction=float(getattr(run.policy, "spot_fraction", 0.0)),
                collector=ctx.metrics,
                vm_hours_fn=ctx.datacenter.vm_hours,
                tracer=tracer,
            )
            run.ledger.install(ctx.engine)
        if run.metrics is not None:
            plane = ctx.provisioner
            self.start_telemetry(
                run,
                collector=ctx.metrics,
                fleet_size_fn=lambda f=ctx.fleet: f.serving_count,
                cache_fn=(lambda md=plane.modeler: (md.cache_hits, md.cache_misses))
                if plane is not None
                else None,
            ).install(ctx.engine, ctx.monitor)
        ctx.source.start()

    def drive(self, run: RunState) -> None:
        run.ctx.engine.run(until=run.scenario.horizon)

    def collect(self, run: RunState) -> Collected:
        ctx, engine = run.ctx, run.ctx.engine
        now = engine.now
        ctx.metrics.finalize(now, ctx.datacenter.vm_hours(now))
        m = ctx.metrics
        scale = run.scenario.scale
        # The policy's control plane; None for Static-N.
        plane = ctx.provisioner
        totals = None
        if run.ledger is not None:
            revoker = getattr(ctx, "revoker", None)
            totals = run.ledger.finalize(
                now, revocations=revoker.revocations if revoker is not None else 0
            )
        fields = dict(
            total_requests=m.total_requests,
            accepted=m.accepted,
            completed=m.completed,
            rejected=m.rejected,
            rejection_rate=m.rejection_rate,
            mean_response_time=m.mean_response_time / scale,
            response_time_std=m.response_time_std / scale,
            qos_violations=m.violations,
            min_instances=m.min_instances if m.min_instances is not None else 0,
            max_instances=m.max_instances if m.max_instances is not None else 0,
            vm_hours=m.vm_hours,
            core_hours=ctx.datacenter.core_hours(now),
            failures=m.failures,
            lost_requests=m.lost_requests,
            utilization=m.utilization,
            events=engine.events_fired,
            fleet_series=tuple(m.fleet_series),
            control_series=plane.trajectory if plane is not None else (),
            cache_hits=plane.modeler.cache_hits if plane is not None else 0,
            cache_misses=plane.modeler.cache_misses if plane is not None else 0,
            **economy_fields(totals),
        )
        return Collected(
            fields, {"events": engine.events_fired}, ctx.fleet.serving_count,
            (now, engine.events_fired),
            actions=plane.actions if plane is not None else None,
        )
