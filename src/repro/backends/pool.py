"""The process pool behind :meth:`ExecutionBackend.run_seeds`.

Replications are embarrassingly parallel: each one builds its own
engine, random streams, and data plane from ``(scenario, policy, seed)``
alone, so N seeds can run on N cores with zero shared state.  This
module is the pool half of
:meth:`~repro.backends.base.ExecutionBackend.run_seeds` (and so of
:func:`~repro.experiments.runner.run_replications`):

* work items are picklable ``(backend, scenario, policy_spec, seed,
  trace, metrics)`` tuples — ``backend`` is the picklable
  :class:`~repro.backends.base.ExecutionBackend` instance,
  :class:`PolicySpec` is the picklable stand-in for the ad-hoc lambda
  factories used in scripts, ``trace`` is ``None`` or a
  :class:`~repro.obs.bus.TraceConfig` (a live bus cannot cross the
  process boundary), and ``metrics`` is ``None`` or a
  :class:`~repro.obs.metrics.MetricsConfig`;
* dispatch is chunked (``chunk_size`` seeds per pickle round-trip) and
  results come back **in seed order**;
* replications use the exact same per-seed spawned random streams as
  the sequential path, so results are bit-identical either way (the
  common-random-numbers discipline is a property of the seed, not of
  the execution order) — only the ``wall_seconds`` diagnostic and the
  ``profile`` timings differ, and both are excluded from
  ``RunMetrics`` equality.  Observability counters (decision-cache
  hits/misses, event counts, phase profiles) are
  carried *inside* each pickled ``RunMetrics``, so nothing measured in
  a worker process is lost when the pool shuts down;
* the backend's in-process loop is the graceful fallback whenever the
  pool is not usable: ``workers <= 1``, an unpicklable
  scenario/factory, or a platform refusing to fork/spawn.  Fallbacks
  are reported through the ``repro.backends.pool`` logger (structured
  ``key=value`` records), not :mod:`warnings`.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..core.policies import ProvisioningPolicy
from ..obs.bus import TraceConfig
from ..obs.log import get_logger, kv

_log = get_logger(__name__)

__all__ = ["PolicySpec", "run_pool"]


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


def _run_task(
    task: Tuple[
        Any,
        Any,
        Callable[[], ProvisioningPolicy],
        int,
        Optional[TraceConfig],
        Any,
    ]
):
    """Process-pool entry point: one replication from a picklable tuple."""
    backend, scenario, policy_factory, seed, trace, metrics = task
    return backend.run(scenario, policy_factory(), seed=seed, trace=trace, metrics=metrics)


def run_pool(
    backend: Any,
    scenario: Any,
    policy_factory: Callable[[], ProvisioningPolicy],
    seeds: Sequence[int],
    workers: int,
    chunk_size: Optional[int] = None,
    trace: Optional[Any] = None,
    metrics: Optional[Any] = None,
) -> Optional[List[Any]]:
    """Run one replication per seed on a process pool of ``workers``.

    The pool half of :meth:`repro.backends.base.ExecutionBackend.run_seeds`.
    Returns the results in seed order, or ``None`` when the pool is not
    usable: fewer than two workers or seeds, an unpicklable work item,
    or a platform refusing to fork/spawn.  The last two are logged on
    the ``repro.backends.pool`` logger; the caller then runs the
    seeds in-process.
    """
    n_workers = min(int(workers), len(seeds))
    if n_workers <= 1:
        return None
    tasks = [
        (backend, scenario, policy_factory, int(seed), trace, metrics)
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
        return None
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
        return None
