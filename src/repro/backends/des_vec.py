"""Vectorized DES execution backend — batched event simulation.

:class:`DESVecBackend` runs the same ``(scenario, policy)`` replication
contract as :class:`~repro.backends.des.DESBackend`, with the
per-request hot loop replaced by the structure-of-arrays data plane
(:class:`~repro.cloud.vecfleet.VectorFleet` over
:mod:`repro.sim.batch`).  Python events are only materialized at
control-plane epochs — analyzer alerts, Algorithm-1 decisions, VM
boots, monitor samples — where the unchanged
:mod:`repro.core.controlplane` machinery takes over; between epochs,
whole arrival blocks move through numpy kernels.

The control trajectory is bit-identical to the scalar DES (the
``tests/test_batch_engine.py`` cross-checks), and on jitterless
scenarios the data plane itself is exact: accepted/rejected/completed
counts and QoS violations match the scalar engine one for one.  Under
service jitter the two backends consume the service random stream in a
different order (per-window block draws vs per-start draws), so
per-request outcomes are statistically, not pointwise, identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from ..cloud.broker import WorkloadSource
from ..cloud.datacenter import Datacenter
from ..cloud.loadbalancer import LoadBalancer
from ..cloud.monitor import Monitor
from ..cloud.vecfleet import VectorFleet
from ..core.context import SimulationContext
from ..core.policies import ProvisioningPolicy
from ..metrics.collector import MetricsCollector
from ..obs.bus import TraceBus, TraceConfig
from ..obs.metrics import MetricsConfig
from ..obs.profile import RunProfile, Stopwatch
from ..sim.engine import Engine
from ..sim.rng import RandomStreams
from .base import RunMetrics
from .des import _build_ledger, _build_telemetry, _finalize_ledger

if TYPE_CHECKING:  # pragma: no cover - import-time only for annotations
    from ..experiments.scenario import ScenarioConfig

__all__ = ["DESVecBackend", "build_vec_context"]


def build_vec_context(
    scenario: "ScenarioConfig",
    seed: int = 0,
    balancer: Optional[LoadBalancer] = None,
    tracer: Optional[TraceBus] = None,
    audit: Optional[object] = None,
    max_block: int = 65_536,
    registry: Optional[object] = None,
) -> SimulationContext:
    """Wire the batched data plane of one replication (no policy attached).

    Mirrors :func:`repro.backends.des.build_context` — same streams,
    same component construction order — but the fleet is a
    :class:`VectorFleet` and the broker hands whole arrival windows to
    it instead of walking a per-arrival cursor.  There is no admission
    object: the fleet's block loop *is* the admission gate (the paper's
    all-instances-full test, evaluated in bulk).
    """
    streams = RandomStreams(seed)
    engine = Engine(tracer=tracer)
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
        registry=registry,
    )
    sampler = workload.service_sampler(streams.get("service"))
    capacity = scenario.capacity
    fleet = VectorFleet(
        engine=engine,
        datacenter=datacenter,
        sampler=sampler,
        monitor=monitor,
        metrics=metrics,
        capacity=capacity,
        balancer=balancer,
        boot_delay=scenario.boot_delay,
        tracer=tracer,
        max_block=max_block,
        count_arrivals=scenario.count_arrivals,
        registry=registry,
    )
    source = WorkloadSource(
        engine=engine,
        workload=workload,
        rng=streams.get("arrivals"),
        horizon=scenario.horizon,
        tracer=tracer,
        sink=fleet,
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
        admission=None,
        source=source,
        horizon=scenario.horizon,
        tracer=tracer,
        audit=audit,
        registry=registry,
    )


class DESVecBackend:
    """Batched structure-of-arrays execution of one replication.

    Parameters
    ----------
    max_block:
        Upper bound on one arrival block (a memory/latency knob; the
        results are provably block-size invariant).
    """

    name = "des-vec"

    def __init__(self, max_block: int = 65_536) -> None:
        self.max_block = int(max_block)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DESVecBackend(max_block={self.max_block!r})"

    def run(
        self,
        scenario: "ScenarioConfig",
        policy: ProvisioningPolicy,
        seed: int = 0,
        balancer: Optional[LoadBalancer] = None,
        trace: Optional[Union[TraceConfig, TraceBus]] = None,
        audit: Optional[object] = None,
        metrics: Optional[MetricsConfig] = None,
    ) -> RunMetrics:
        """Run one replication through the epoch loop and collect metrics.

        ``trace``/``audit``/``metrics`` behave exactly as on the scalar
        DES backend; traced runs additionally emit one ``batch.span``
        summary per non-empty epoch span, and the metrics registry
        additionally counts spans and flushed requests.
        """
        profile = RunProfile()
        if isinstance(trace, TraceConfig):
            tracer: Optional[TraceBus] = trace.build(scenario.name, policy.name, seed)
            owns_bus = True
        else:
            tracer = trace
            owns_bus = False
        telemetry = None
        try:
            if tracer is not None:
                tracer.emit(
                    "run.start",
                    0.0,
                    scenario=scenario.name,
                    policy=policy.name,
                    seed=int(seed),
                )
            with profile.phase("build"):
                registry = (
                    metrics.build(scenario.qos.max_response_time)
                    if metrics is not None
                    else None
                )
                ctx = build_vec_context(
                    scenario,
                    seed,
                    balancer,
                    tracer=tracer,
                    audit=audit,
                    max_block=self.max_block,
                    registry=registry,
                )
                policy.attach(ctx)
                ledger = _build_ledger(scenario, policy, ctx, tracer, registry)
                if ledger is not None:
                    ledger.install(ctx.engine)
                telemetry = (
                    _build_telemetry(metrics, registry, scenario, ctx, tracer)
                    if metrics is not None
                    else None
                )
                if telemetry is not None:
                    telemetry.install(ctx.engine)
                    if metrics.path and not metrics.history:
                        # History off + path on: stream each snapshot
                        # to disk as it is taken.
                        telemetry.open_stream(
                            metrics.resolve_path(scenario.name, policy.name, seed)
                        )
                ctx.source.start()
            watch = Stopwatch()
            with profile.phase("run"):
                engine = ctx.engine
                plane = ctx.fleet
                horizon = scenario.horizon
                # Epoch loop: advance the array data plane to each
                # engine event's timestamp, then fire the event.
                while True:
                    t_next = engine.peek()
                    if t_next is None or t_next > horizon:
                        break
                    plane.advance(t_next)
                    engine.step()
                plane.finish(horizon)
                engine.run(until=horizon)
            wall = watch.elapsed()
            with profile.phase("finalize"):
                now = ctx.engine.now
                ctx.metrics.finalize(now, ctx.datacenter.vm_hours(now))
                m = ctx.metrics
                scale = scenario.scale
                modeler = getattr(ctx.provisioner, "modeler", None)
                cache_hits = modeler.cache_hits if modeler is not None else 0
                cache_misses = modeler.cache_misses if modeler is not None else 0
                control = getattr(ctx.provisioner, "control", None)
                control_series = control.trajectory if control is not None else ()
                economy = _finalize_ledger(ledger, ctx, now)
                telemetry_dict: dict = {}
                if telemetry is not None:
                    telemetry_dict = telemetry.finalize(
                        m.total_requests,
                        m.accepted,
                        m.rejected,
                        m.completed,
                        m.violations,
                        ctx.fleet.serving_count,
                        cache_hits=cache_hits,
                        cache_misses=cache_misses,
                    )
                    if metrics.path:
                        telemetry.write_jsonl(
                            metrics.resolve_path(scenario.name, policy.name, seed)
                        )
            # The backend's unit of work: epoch events plus the
            # arrivals/completions the array plane absorbed.
            work = (
                ctx.engine.events_fired
                + plane.arrivals_processed
                + plane.completions_processed
            )
            profile.count("events", ctx.engine.events_fired)
            profile.count("arrivals", plane.arrivals_processed)
            profile.count("completions", plane.completions_processed)
            profile.count("spans", plane.spans)
            profile.count("event_spans", plane.event_spans)
            profile.count("compactions", ctx.engine.compactions)
            if tracer is not None:
                tracer.emit(
                    "run.end",
                    now,
                    events=ctx.engine.events_fired,
                    compactions=ctx.engine.compactions,
                )
                profile.count("trace_events", tracer.emitted)
            return RunMetrics(
                scenario=scenario.name,
                policy=policy.name,
                seed=seed,
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
                wall_seconds=wall,
                events=work,
                fleet_series=tuple(m.fleet_series),
                control_series=control_series,
                backend=self.name,
                cache_hits=cache_hits,
                cache_misses=cache_misses,
                compactions=ctx.engine.compactions,
                profile=profile.to_dict(),
                telemetry=telemetry_dict,
                **economy,
            )
        finally:
            if telemetry is not None:
                telemetry.close_stream()
            if owns_bus and tracer is not None:
                tracer.close()
