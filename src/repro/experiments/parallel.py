"""Parallel replication execution — a process-pool backend for sweeps.

Replications are embarrassingly parallel: each one builds its own
engine, random streams, and data plane from ``(scenario, policy, seed)``
alone, so N seeds can run on N cores with zero shared state.  This
module gives :func:`~repro.experiments.runner.run_replications` that
backend:

* work items are picklable ``(scenario, policy_spec, seed, trace,
  backend, metrics)`` tuples — :class:`PolicySpec` is the picklable
  stand-in for the ad-hoc lambda factories used in scripts, ``trace``
  is ``None`` or a :class:`~repro.obs.bus.TraceConfig` (a live bus
  cannot cross the process boundary), ``backend`` is a spec string or
  picklable :class:`~repro.backends.base.ExecutionBackend`, and
  ``metrics`` is ``None`` or a
  :class:`~repro.obs.metrics.MetricsConfig`;
* dispatch is chunked (``chunk_size`` seeds per pickle round-trip) and
  results come back **in seed order**;
* replications use the exact same per-seed spawned random streams as
  the sequential path, so results are bit-identical either way (the
  common-random-numbers discipline is a property of the seed, not of
  the execution order) — only the ``wall_seconds`` diagnostic and the
  ``profile`` timings differ, and both are excluded from
  ``RunMetrics`` equality.  Observability counters (decision-cache
  hits/misses, heap compactions, event counts, phase profiles) are
  carried *inside* each pickled ``RunMetrics``, so nothing measured in
  a worker process is lost when the pool shuts down;
* the sequential path is the graceful fallback whenever the pool is
  not usable: ``workers <= 1``, an unpicklable scenario/factory, or a
  platform refusing to fork/spawn.  Fallbacks are reported through the
  ``repro.experiments.parallel`` logger (structured ``key=value``
  records), not :mod:`warnings`.
"""

from __future__ import annotations

import os
import pickle
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..core.policies import ProvisioningPolicy
from ..obs.bus import TraceConfig
from ..obs.log import get_logger, kv
from .scenario import ScenarioConfig

_log = get_logger(__name__)

__all__ = ["PolicySpec", "default_workers", "run_replications_parallel"]


class PolicySpec:
    """Picklable recipe for building a fresh policy per replication.

    ``PolicySpec(StaticPolicy, 20)`` replaces ``lambda: StaticPolicy(20)``
    wherever the factory must cross a process boundary; calling the spec
    builds a new policy instance.

    Parameters
    ----------
    factory:
        A picklable callable returning a policy — typically the policy
        class itself.
    *args, **kwargs:
        Arguments forwarded on every build.
    """

    __slots__ = ("factory", "args", "kwargs")

    def __init__(self, factory: Callable[..., ProvisioningPolicy], *args: Any, **kwargs: Any) -> None:
        self.factory = factory
        self.args = tuple(args)
        self.kwargs = dict(kwargs)

    def __call__(self) -> ProvisioningPolicy:
        return self.factory(*self.args, **self.kwargs)

    def __reduce__(self):
        return (_rebuild_policy_spec, (self.factory, self.args, self.kwargs))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = [getattr(self.factory, "__name__", repr(self.factory))]
        parts += [repr(a) for a in self.args]
        parts += [f"{k}={v!r}" for k, v in self.kwargs.items()]
        return f"PolicySpec({', '.join(parts)})"


def _rebuild_policy_spec(factory, args, kwargs) -> "PolicySpec":
    return PolicySpec(factory, *args, **kwargs)


def default_workers() -> int:
    """Worker count to use when the caller says "parallel" unqualified."""
    return max(1, os.cpu_count() or 1)


def _run_task(
    task: Tuple[
        ScenarioConfig,
        Callable[[], ProvisioningPolicy],
        int,
        Optional[TraceConfig],
        Any,
        Any,
    ]
):
    """Process-pool entry point: one replication from a picklable tuple."""
    scenario, policy_factory, seed, trace, backend, metrics = task
    from .runner import run_policy

    return run_policy(
        scenario, policy_factory(), seed=seed, trace=trace, backend=backend,
        metrics=metrics,
    )


def _sequential(
    scenario: ScenarioConfig,
    policy_factory: Callable[[], ProvisioningPolicy],
    seeds: Sequence[int],
    trace: Optional[Any] = None,
    backend: Any = "des",
    metrics: Optional[Any] = None,
) -> List[Any]:
    from .runner import run_policy

    return [
        run_policy(
            scenario, policy_factory(), seed=s, trace=trace, backend=backend,
            metrics=metrics,
        )
        for s in seeds
    ]


def run_replications_parallel(
    scenario: ScenarioConfig,
    policy_factory: Callable[[], ProvisioningPolicy],
    seeds: Sequence[int] = (0, 1, 2),
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    trace: Optional[Any] = None,
    backend: Any = "des",
    metrics: Optional[Any] = None,
) -> List[Any]:
    """Run one replication per seed on a process pool.

    Parameters
    ----------
    scenario, policy_factory, seeds:
        Exactly as :func:`~repro.experiments.runner.run_replications`;
        the factory must be picklable for the pool to be used
        (:class:`PolicySpec` or any module-level callable qualifies —
        a locally-defined lambda falls back to sequential, logging a
        warning on the ``repro.experiments.parallel`` logger).
    workers:
        Pool size; ``None`` means one per CPU, ``<= 1`` forces the
        sequential path.
    chunk_size:
        Seeds per pickled dispatch; defaults to a chunking that hands
        every worker ~one chunk.
    trace:
        ``None`` or a :class:`~repro.obs.bus.TraceConfig`.  Each worker
        builds (and closes) its own bus, so the config's path should
        resolve per-run — point it at a directory or use placeholders.
        A live :class:`~repro.obs.bus.TraceBus` is unpicklable and
        triggers the sequential fallback.
    backend:
        Execution backend per replication — ``"des"`` (default),
        ``"fluid"``, or a picklable
        :class:`~repro.backends.base.ExecutionBackend` instance.
    metrics:
        ``None`` or a picklable :class:`~repro.obs.metrics.MetricsConfig`.
        Each worker builds its own registry; the finalized dumps travel
        home inside each pickled result's ``telemetry`` field, where
        :func:`repro.obs.metrics.merge_telemetry` combines them
        losslessly (counters add, histograms Chan-merge).

    Returns
    -------
    list
        :class:`~repro.backends.base.RunMetrics` per seed, **in seed
        order**, bit-identical to the sequential path except for the
        ``wall_seconds`` diagnostic and the (equality-excluded)
        ``profile`` timings.
    """
    if workers is None:
        workers = default_workers()
    n_workers = min(int(workers), len(seeds)) if seeds else 1
    if n_workers <= 1:
        return _sequential(
            scenario, policy_factory, seeds, trace=trace, backend=backend,
            metrics=metrics,
        )
    tasks = [
        (scenario, policy_factory, int(seed), trace, backend, metrics)
        for seed in seeds
    ]
    try:
        pickle.dumps(tasks[0])
    except Exception as exc:  # noqa: BLE001 - any pickling failure falls back
        _log.warning(
            "falling back to sequential replications: %s",
            kv(
                reason="unpicklable-work-item",
                hint="use PolicySpec instead of a lambda (and TraceConfig, not TraceBus)",
                scenario=scenario.name,
                seeds=len(seeds),
                error=repr(exc),
            ),
        )
        return _sequential(
            scenario, policy_factory, seeds, trace=trace, backend=backend,
            metrics=metrics,
        )
    if chunk_size is None:
        chunk_size = max(1, len(tasks) // n_workers)
    try:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            return list(pool.map(_run_task, tasks, chunksize=int(chunk_size)))
    except (OSError, ValueError, RuntimeError, ImportError) as exc:
        # Sandboxes without fork/spawn, broken pools, missing
        # multiprocessing primitives: degrade, don't die.
        _log.warning(
            "falling back to sequential replications: %s",
            kv(
                reason="process-pool-unavailable",
                workers=n_workers,
                scenario=scenario.name,
                seeds=len(seeds),
                error=repr(exc),
            ),
        )
        return _sequential(
            scenario, policy_factory, seeds, trace=trace, backend=backend,
            metrics=metrics,
        )
