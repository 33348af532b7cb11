"""Experiment runner — the backend-agnostic replication entry point.

One :func:`run_policy` call = one replication of (scenario, policy) on
a chosen execution backend: ``backend="des"`` (default) wires the full
event-per-request data plane, ``backend="des-vec"`` the batched
structure-of-arrays one, and ``backend="fluid"`` evaluates the same
control plane analytically (see :mod:`repro.backends`).  Every backend
runs the one :class:`~repro.backends.base.ExecutionBackend` lifecycle
and returns one unified :class:`~repro.backends.base.RunMetrics`
record — response times normalized back to paper scale when the
scenario is rescaled — so replication fan-out, persistence, figures,
and the CLI perf summary need not care how a run was executed.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

from ..backends import RunMetrics, build_context, resolve_backend
from ..backends.base import ExecutionBackend
from ..cloud.loadbalancer import LoadBalancer
from ..core.policies import ProvisioningPolicy
from ..obs.bus import TraceBus, TraceConfig
from .scenario import ScenarioConfig

__all__ = ["RunMetrics", "build_context", "run_policy", "run_replications"]


def run_policy(
    scenario: ScenarioConfig,
    policy: ProvisioningPolicy,
    seed: int = 0,
    balancer: Optional[LoadBalancer] = None,
    trace: Optional[Union[TraceConfig, TraceBus]] = None,
    backend: Union[str, ExecutionBackend, None] = "des",
    metrics: Optional[object] = None,
) -> RunMetrics:
    """Run one replication of (scenario, policy) and collect metrics.

    Parameters
    ----------
    trace:
        ``None`` (default) runs untraced.  A
        :class:`~repro.obs.bus.TraceConfig` builds (and closes) a
        per-run bus — this is the picklable form the parallel path
        needs.  A ready :class:`~repro.obs.bus.TraceBus` is used as-is
        and left open, so callers can inspect an in-memory ring buffer
        after the run.
    backend:
        ``"des"`` (default), ``"des-vec"``, ``"fluid"``, or a ready
        :class:`~repro.backends.base.ExecutionBackend` instance.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsConfig`; the run's
        finalized telemetry (registry + ``metrics.snapshot`` series)
        lands in ``RunMetrics.telemetry``.

    The run's Algorithm-1 decisions are ``decision`` trace events;
    :meth:`repro.obs.audit.DecisionAuditLog.from_trace` turns them into
    an explainable audit log.
    """
    return resolve_backend(backend).run(
        scenario, policy, seed=seed, balancer=balancer, trace=trace, metrics=metrics
    )


def run_replications(
    scenario: ScenarioConfig,
    policy_factory: Callable[[], ProvisioningPolicy],
    seeds: Sequence[int] = (0, 1, 2),
    workers: int = 1,
    chunk_size: Optional[int] = None,
    trace: Optional[Union[TraceConfig, TraceBus]] = None,
    backend: Union[str, ExecutionBackend, None] = "des",
    metrics: Optional[object] = None,
) -> List[RunMetrics]:
    """Run several replications with independent seeds.

    ``policy_factory`` builds a fresh policy per replication so no
    control-plane state leaks between runs.  The fan-out itself is the
    backend's :meth:`~repro.backends.base.ExecutionBackend.run_seeds`;
    the fluid backend overrides it to share one control pass across
    the seeds.

    Parameters
    ----------
    workers:
        ``<= 1`` (default) runs seeds sequentially in-process;
        ``> 1`` dispatches them to a process pool
        (:mod:`repro.backends.pool`), which returns results in
        seed order, bit-identical to the sequential path apart from the
        ``wall_seconds`` diagnostic.  The factory must then be
        picklable — use :class:`~repro.backends.pool.PolicySpec`
        instead of a lambda; unpicklable factories fall back to the
        sequential path with a log warning.  The fluid backend runs
        untraced, unmetered seeds in-process whatever ``workers`` says:
        the work they share is one control pass, and a pool would only
        add pickling.
    chunk_size:
        Seeds per pool dispatch (parallel path only).
    trace:
        Forwarded to every replication.  With
        ``workers > 1`` this must be a picklable
        :class:`~repro.obs.bus.TraceConfig` whose path resolves to a
        *directory* (or contains ``{seed}``-style placeholders) so each
        replication writes its own JSONL file; a live
        :class:`~repro.obs.bus.TraceBus` cannot cross the process
        boundary and triggers the sequential fallback.
    backend:
        Execution backend for every replication — a spec string or a
        (picklable, for the parallel path) backend instance.
    metrics:
        Optional picklable :class:`~repro.obs.metrics.MetricsConfig`
        forwarded to every replication; each run's registry and
        snapshot series come back inside its result's ``telemetry``
        field, the same with any ``workers``.
    """
    return resolve_backend(backend).run_seeds(
        scenario,
        policy_factory,
        seeds,
        workers=workers,
        chunk_size=chunk_size,
        trace=trace,
        metrics=metrics,
    )
