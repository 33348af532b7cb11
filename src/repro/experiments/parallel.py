"""Parallel replication execution — a process-pool backend for sweeps.

:func:`run_replications_parallel` is
:func:`~repro.experiments.runner.run_replications` with ``workers``
defaulting to one per CPU.  The pool itself, and the picklable
:class:`PolicySpec` factory it needs, live in
:mod:`repro.backends.pool`, under
:meth:`~repro.backends.base.ExecutionBackend.run_seeds`;
:class:`PolicySpec` is re-exported here.
"""

from __future__ import annotations

import os
from typing import Any, Callable, List, Optional, Sequence

from ..backends.pool import PolicySpec
from ..core.policies import ProvisioningPolicy
from .scenario import ScenarioConfig

__all__ = ["PolicySpec", "default_workers", "run_replications_parallel"]


def default_workers() -> int:
    """Worker count to use when the caller says "parallel" unqualified."""
    return max(1, os.cpu_count() or 1)


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

    :func:`~repro.experiments.runner.run_replications` with ``workers``
    defaulting to one per CPU.

    Parameters
    ----------
    scenario, policy_factory, seeds:
        Exactly as :func:`~repro.experiments.runner.run_replications`;
        the factory must be picklable for the pool to be used
        (:class:`PolicySpec` or any module-level callable qualifies —
        a locally-defined lambda falls back to sequential, logging a
        warning on the ``repro.backends.pool`` logger).
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
        :class:`~repro.backends.base.ExecutionBackend` instance.  The
        fluid backend runs untraced, unmetered seeds in-process
        whatever ``workers`` says (see
        :meth:`repro.backends.fluid.FluidBackend.run_seeds`).
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
    from .runner import run_replications

    return run_replications(
        scenario,
        policy_factory,
        seeds,
        workers=default_workers() if workers is None else workers,
        chunk_size=chunk_size,
        trace=trace,
        backend=backend,
        metrics=metrics,
    )
