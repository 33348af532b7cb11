"""The shared run lifecycle and the unified run-metrics record.

A *backend* is a way of executing one ``(scenario, policy)``
replication: the event-per-request DES
(:class:`~repro.backends.des.DESBackend`), the batched
structure-of-arrays DES (:class:`~repro.backends.des_vec.DESVecBackend`)
or the interval-analytical fluid engine
(:class:`~repro.backends.fluid.FluidBackend`).  All three subclass
:class:`ExecutionBackend`, whose one :meth:`~ExecutionBackend.run` owns
the lifecycle — trace bus, ``run.start``/``run.end``, profile phases,
telemetry snapshot file and registry, :class:`RunMetrics` assembly —
and all three return the same :class:`RunMetrics` record, so
everything downstream — replication fan-out, persistence, figures, the
CLI perf summary, trace validation — works identically regardless of
how the run was executed.

This package is deliberately the **only** place in the library that
imports both engines (enforced by the ``layering`` lint rule): the
control plane in :mod:`repro.core` knows neither, and each engine knows
nothing about the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError
from ..obs.bus import TraceBus, TraceConfig
from ..obs.metrics import MetricsConfig, RunTelemetry
from ..obs.profile import RunProfile, Stopwatch
from .pool import run_pool

__all__ = ["RunMetrics", "ExecutionBackend", "resolve_backend", "BACKENDS"]


@dataclass(frozen=True)
class RunMetrics:
    """Output metrics of one replication, on any backend.

    The union of the DES runner's result fields and the fluid engine's
    aggregates, tagged with the executing backend.  Fields that a
    backend cannot measure are reported as 0 (documented per field); a
    consumer that needs to distinguish "zero" from "not measured"
    should branch on :attr:`backend`.

    Attributes
    ----------
    scenario, policy, seed:
        Identification of the run.  On the fluid backend the seed
        reaches the result only through a Spot policy's revocation
        schedule (scenarios with pricing); every other fluid result is
        the same for all seeds.
    total_requests, accepted, completed, rejected:
        Arrival accounting.  Integers on the DES; *expected* counts
        (floats) on the fluid backend, where ``completed`` equals
        ``accepted`` (flows always drain).
    rejection_rate:
        Fraction of arrivals rejected.
    mean_response_time, response_time_std:
        Accepted-request response statistics, divided by the scenario
        scale factor so they are directly comparable to the paper.
        The fluid backend has no per-request distribution: its mean is
        the accepted-flow-weighted sojourn and its std is 0.
    qos_violations:
        Accepted requests that exceeded ``T_s`` (DES only; 0 on fluid).
    min_instances, max_instances:
        Fleet-size extrema observed during the run.
    vm_hours:
        Σ instance wall-clock lifetime in hours (Figure 5(c)/6(c)).
    core_hours:
        Σ allocated cores × wall-clock hours; equals ``vm_hours`` for
        one-core fleets.
    failures, lost_requests:
        Failure-injection accounting (0 without an injector; always 0
        on the fluid backend).
    utilization:
        Busy time / provisioned VM time (Figure 5(b)/6(b)).
    wall_seconds:
        Host wall-clock of the run — the only field that is not a
        deterministic function of (scenario, policy, seed, backend).
        When :meth:`ExecutionBackend.run_seeds` shares one run across
        seeds (fluid results with equal revocation schedules), each
        copy carries the ``wall_seconds`` and ``profile`` of the run
        that produced it; fluid Spot seeds that share one control
        pass leave the pass out of theirs.
    events:
        DES: engine events fired.  Fluid: integration intervals
        evaluated.  Either way, the backend's unit of work.
    fleet_series:
        ``(time, instances)`` trajectory.  DES: per instance-lifecycle
        change when the scenario tracks it (empty otherwise).  Fluid:
        the control trajectory (one entry per decision).
    control_series:
        ``(time, fleet_size_reached)`` per control-plane actuation —
        the backend-independent trajectory that
        ``tests/test_backend_xcheck.py`` compares bit-for-bit.  Empty
        for policies without a control plane (Static-N on the DES).
    backend:
        ``"des"``, ``"des-vec"`` or ``"fluid"``.
    cache_hits, cache_misses:
        Algorithm-1 decision-cache counters of the run's modeler
        (both 0 for policies without one, e.g. Static-N).
    profile:
        :meth:`repro.obs.profile.RunProfile.to_dict` snapshot of the
        run's phase wall-clock and event counters.  Excluded from
        equality (``compare=False``): timings are nondeterministic, so
        sequential and parallel replications still compare equal.
    telemetry:
        :meth:`repro.obs.metrics.RunTelemetry.finalize` dump (the
        registry of final counter, gauge and histogram values, and the
        snapshot series) when the run was executed with a
        :class:`~repro.obs.metrics.MetricsConfig`; empty otherwise.
        Excluded from equality like ``profile`` so metrics-on and
        metrics-off replications of the same run still compare equal.
    revenue, cost, penalty, profit:
        :class:`~repro.economy.ledger.ProfitLedger` end-of-run billing
        (all 0 when the scenario has no pricing model).  ``profit`` is
        always ``revenue - cost - penalty``.
    spot_vm_hours:
        VM hours billed at the discounted spot rate (0 without a
        :class:`~repro.economy.policies.SpotPolicy`).
    revocations:
        Spot instances reclaimed by the provider during the run
        (distinct from :attr:`failures`, which counts fault-injector
        crashes).
    """

    scenario: str
    policy: str
    seed: int
    total_requests: float
    accepted: float
    completed: float
    rejected: float
    rejection_rate: float
    mean_response_time: float
    response_time_std: float
    qos_violations: int
    min_instances: int
    max_instances: int
    vm_hours: float
    core_hours: float
    failures: int
    lost_requests: int
    utilization: float
    wall_seconds: float
    events: int
    fleet_series: Tuple[Tuple[float, int], ...] = ()
    control_series: Tuple[Tuple[float, int], ...] = ()
    backend: str = "des"
    cache_hits: int = 0
    cache_misses: int = 0
    revenue: float = 0.0
    cost: float = 0.0
    penalty: float = 0.0
    profit: float = 0.0
    spot_vm_hours: float = 0.0
    revocations: int = 0
    profile: Dict[str, Dict[str, float]] = field(default_factory=dict, compare=False)
    telemetry: Dict[str, object] = field(default_factory=dict, compare=False)

    @property
    def qos_attainment(self) -> float:
        """``P[T <= Ts]`` over all submitted requests.

        The paper's QoS objective: the fraction of *arrivals* served
        within ``T_s``.  Rejected and lost requests never complete, so
        they count against attainment — a policy that trims the fleet
        and sheds load pays for it here, which is exactly the
        profit-vs-QoS tension the economy campaign tabulates.  1.0 when
        the run saw no demand.
        """
        if self.total_requests <= 0:
            return 1.0
        met = max(0.0, self.completed - self.qos_violations)
        return min(1.0, met / self.total_requests)


class RunState(SimpleNamespace):
    """One replication in flight, handed to every lifecycle hook.

    :meth:`ExecutionBackend.run` sets the arguments of the run
    (``scenario``, ``policy``, ``seed``, ``balancer``), the trace bus
    (``tracer``), the metrics config (``metrics``), and ``telemetry``
    once :meth:`~ExecutionBackend.start_telemetry` built it; a
    backend's hooks hang their own state on it (``ctx``, ``ledger``,
    ``control`` …).
    """


class Collected(NamedTuple):
    """What a backend's :meth:`~ExecutionBackend.collect` hook reports."""

    #: The backend's :class:`RunMetrics` fields (everything but the
    #: run's identity, ``wall_seconds``, ``backend``, ``profile`` and
    #: ``telemetry``, which the lifecycle fills in).
    fields: Dict[str, object]
    #: Profile counters, in report order.
    counters: Dict[str, int]
    #: Serving fleet size at the end (the telemetry's ``fleet.size``).
    fleet: int
    #: ``run.end`` time and the engine event count it reports.
    end: Tuple[float, int]
    #: The control plane's actuation log, ``None`` without one (the
    #: telemetry's ``control.decisions`` and ``fleet.target``).
    actions: Optional[Sequence] = None
    #: The vectorized data plane's ``(spans, flushed requests)``,
    #: ``None`` off ``des-vec`` (the telemetry's ``batch.*``).
    batch: Optional[Tuple[int, int]] = None


def economy_fields(totals) -> Dict[str, object]:
    """The :class:`RunMetrics` economy fields of an
    :class:`~repro.economy.ledger.EconomyTotals` (none when ``None``)."""
    if totals is None:
        return {}
    return dict(
        revenue=totals.revenue,
        cost=totals.cost,
        penalty=totals.penalty,
        profit=totals.profit,
        spot_vm_hours=totals.spot_vm_hours,
        revocations=totals.revocations,
    )


class ExecutionBackend:
    """One way of executing a ``(scenario, policy)`` replication.

    :meth:`run` is the whole lifecycle; a backend supplies three hooks,
    each handed the run's :class:`RunState`:

    * :meth:`build` wires the data plane, attaches the policy and
      installs the ledger and telemetry (profile phase ``build``);
    * :meth:`drive` executes the run (phase ``run``);
    * :meth:`collect` reports a :class:`Collected` (phase
      ``finalize``).

    :meth:`run` first checks that the policy lists the backend in its
    ``backends`` and accepts the scenario (its ``validate``; see
    :class:`repro.core.policies.ProvisioningPolicy`).
    """

    #: Backend tag stamped into every :class:`RunMetrics` it produces.
    name: str = ""
    #: Whether the backend has a per-request data plane a load
    #: balancer can steer.
    balances: bool = True

    def run(
        self,
        scenario,
        policy,
        seed: int = 0,
        balancer=None,
        trace: Optional[Union[TraceConfig, TraceBus]] = None,
        metrics: Optional[MetricsConfig] = None,
    ) -> RunMetrics:
        """Execute one replication and return its unified metrics.

        An unsupported policy, scenario or balancer raises
        ``ConfigurationError`` before any trace event, trace file or
        telemetry stream exists.

        Parameters
        ----------
        trace:
            ``None`` (default) runs untraced.  A
            :class:`~repro.obs.bus.TraceConfig` builds (and closes) a
            per-run bus — this is the picklable form the parallel path
            needs.  A ready :class:`~repro.obs.bus.TraceBus` is used
            as-is and left open, so callers can inspect an in-memory
            ring buffer after the run.
        metrics:
            Optional :class:`~repro.obs.metrics.MetricsConfig`.  When
            set, the run carries a ``metrics.snapshot`` series and a
            metrics registry assembled at finalize; the finalized
            telemetry lands in :attr:`RunMetrics.telemetry`.  With a
            ``path``, each snapshot is on disk at that path as soon as
            it is taken, and a failed run leaves its partial series.
        """
        if self.name not in policy.backends:
            raise ConfigurationError(
                f"the {self.name} backend cannot execute {type(policy).__name__}; "
                f"it runs on {', '.join(sorted(policy.backends))}"
            )
        policy.validate(scenario)
        if balancer is not None and not self.balances:
            raise ConfigurationError(
                f"the {self.name} backend has no per-request data plane; "
                "load balancers only apply to backend='des'"
            )
        profile = RunProfile()
        owns_bus = isinstance(trace, TraceConfig)
        tracer = trace.build(scenario.name, policy.name, seed) if owns_bus else trace
        run = RunState(
            scenario=scenario, policy=policy, seed=seed, balancer=balancer,
            tracer=tracer, metrics=metrics, telemetry=None,
        )
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
                self.build(run)
            watch = Stopwatch()
            with profile.phase("run"):
                self.drive(run)
            wall = watch.elapsed()
            with profile.phase("finalize"):
                out = self.collect(run)
                f = out.fields
                telemetry: dict = {}
                if run.telemetry is not None:
                    telemetry = run.telemetry.finalize(
                        f, out.fleet, actions=out.actions, batch=out.batch
                    )
            for key, n in out.counters.items():
                profile.count(key, n)
            if tracer is not None:
                t_end, events = out.end
                tracer.emit("run.end", t_end, events=events)
                profile.count("trace_events", tracer.emitted)
            return RunMetrics(
                scenario=scenario.name,
                policy=policy.name,
                seed=seed,
                wall_seconds=wall,
                backend=self.name,
                profile=profile.to_dict(),
                telemetry=telemetry,
                **f,
            )
        finally:
            if run.telemetry is not None:
                run.telemetry.close()
            if owns_bus and tracer is not None:
                tracer.close()

    def run_seeds(
        self,
        scenario,
        policy_factory: Callable[[], object],
        seeds: Sequence[int],
        *,
        workers: Optional[int] = 1,
        chunk_size: Optional[int] = None,
        trace: Optional[Union[TraceConfig, TraceBus]] = None,
        metrics: Optional[MetricsConfig] = None,
    ) -> List[RunMetrics]:
        """One replication per seed, in seed order.

        The replication fan-out every caller goes through
        (:func:`~repro.experiments.runner.run_replications`, the
        campaign runner, the fluid prescreen).  ``policy_factory``
        builds a fresh policy per replication.  ``workers > 1``
        dispatches the seeds to a process pool
        (:func:`repro.backends.pool.run_pool`); when the pool
        is unusable, or with ``workers <= 1``, the seeds run here, one
        :meth:`run` each.  A backend may override this to share work
        across seeds, as long as every result equals its own
        :meth:`run`.
        """
        if workers is not None and workers > 1:
            results = run_pool(
                self, scenario, policy_factory, seeds, workers, chunk_size, trace, metrics
            )
            if results is not None:
                return results
        return [
            self.run(scenario, policy_factory(), seed=s, trace=trace, metrics=metrics)
            for s in seeds
        ]

    def start_telemetry(self, run: RunState, **sources) -> RunTelemetry:
        """Build the run's :class:`~repro.obs.metrics.RunTelemetry`.

        Snapshots once per control epoch (the scenario's
        ``update_interval``), streaming to the config's resolved
        ``path`` when it has one; ``sources`` are the backend's
        ``collector``/``fleet_size_fn``/``cache_fn`` readers.
        """
        metrics, scenario = run.metrics, run.scenario
        run.telemetry = RunTelemetry(
            scenario.qos.max_response_time,
            scenario.update_interval,
            path=metrics.resolve_path(scenario.name, run.policy.name, run.seed)
            if metrics.path
            else None,
            tracer=run.tracer,
            **sources,
        )
        return run.telemetry

    def build(self, run: RunState) -> None:  # pragma: no cover - abstract
        """Wire the run: data plane, policy, ledger and telemetry."""
        raise NotImplementedError

    def drive(self, run: RunState) -> None:  # pragma: no cover - abstract
        """Execute the built run up to the scenario horizon."""
        raise NotImplementedError

    def collect(self, run: RunState) -> Collected:  # pragma: no cover - abstract
        """Report the driven run's fields, counters and end state."""
        raise NotImplementedError


def _make_des() -> "ExecutionBackend":
    from .des import DESBackend

    return DESBackend()


def _make_fluid() -> "ExecutionBackend":
    from .fluid import FluidBackend

    return FluidBackend()


def _make_des_vec() -> "ExecutionBackend":
    from .des_vec import DESVecBackend

    return DESVecBackend()


#: Backend registry: spec string → zero-argument factory.
BACKENDS = {"des": _make_des, "des-vec": _make_des_vec, "fluid": _make_fluid}


def resolve_backend(
    spec: Union[str, ExecutionBackend, None],
) -> "ExecutionBackend":
    """Turn a backend spec into a ready :class:`ExecutionBackend`.

    ``None`` and ``"des"`` give the default DES backend, ``"des-vec"``
    the vectorized (batched structure-of-arrays) DES, ``"fluid"`` the
    fluid backend, and an :class:`ExecutionBackend` instance passes
    through unchanged (so callers can hand in a pre-configured
    ``FluidBackend(dt=10.0)``).
    """
    if spec is None:
        return _make_des()
    if isinstance(spec, str):
        factory = BACKENDS.get(spec)
        if factory is None:
            raise ConfigurationError(
                f"unknown backend {spec!r}; expected one of {sorted(BACKENDS)}"
            )
        return factory()
    if isinstance(spec, ExecutionBackend):
        return spec
    raise ConfigurationError(
        f"cannot interpret {spec!r} as an execution backend; "
        "pass 'des', 'des-vec', 'fluid', or an ExecutionBackend instance"
    )
