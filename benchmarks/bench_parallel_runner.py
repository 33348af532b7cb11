"""Sequential vs process-pool replication runner.

Runs the adaptive web scenario across several seeds twice — once
in-process, once through ``run_replications(workers=N)`` — and prints the
wall-clock comparison.  Correctness gates (bit-identical results, seed
order) are hard assertions; the speedup itself is reported but not
asserted, because it depends on the core count of the machine running
the suite (on a single-core box the pool can only break even at best;
expect ≥2× on a 4-core box).

Environment knobs: ``REPRO_BENCH_WORKERS`` (default 4) and
``REPRO_SEEDS`` (default "0" — this suite widens it to 0-5 when left at
the conftest default so the pool has enough work per worker).
"""

from __future__ import annotations

import dataclasses
import os

from conftest import seeds

from repro.core import AdaptivePolicy
from repro.experiments import PolicySpec, run_replications
from repro.experiments.scenario import web_scenario
from repro.obs.profile import Stopwatch


def bench_workers() -> int:
    return int(os.environ.get("REPRO_BENCH_WORKERS", "4"))


def bench_seeds() -> tuple:
    s = seeds()
    return s if len(s) > 1 else tuple(range(6))


def _strip(result):
    return dataclasses.replace(result, wall_seconds=0.0)


def test_parallel_runner_identical_and_timed(benchmark):
    """Pool output must be bit-identical to sequential; timing informational."""
    scenario = web_scenario(scale=2000.0, horizon=12 * 3600.0)
    spec = PolicySpec(AdaptivePolicy)
    workers = bench_workers()

    def both_paths():
        watch = Stopwatch()
        seq = run_replications(scenario, spec, seeds=bench_seeds(), workers=1)
        t_seq = watch.restart()
        par = run_replications(scenario, spec, seeds=bench_seeds(), workers=workers)
        return seq, par, t_seq, watch.elapsed()

    seq, par, t_seq, t_par = benchmark.pedantic(both_paths, rounds=1, iterations=1)
    print()
    print(
        f"sequential {t_seq:.2f}s  parallel({workers}) {t_par:.2f}s  "
        f"speedup {t_seq / t_par:.2f}x  (host cores: {os.cpu_count()})"
    )
    assert [_strip(r) for r in seq] == [_strip(r) for r in par], (
        "parallel results diverged from sequential"
    )
    assert sum(r.cache_misses for r in seq) > 0  # adaptive policy exercised Algorithm 1


def test_parallel_runner_seed_order_preserved():
    scenario = web_scenario(scale=5000.0, horizon=6 * 3600.0)
    shuffled = (4, 0, 3, 1)
    results = run_replications(
        scenario, PolicySpec(AdaptivePolicy), seeds=shuffled, workers=2
    )
    assert tuple(r.seed for r in results) == shuffled


def test_parallel_runner_scales_with_chunking():
    """chunk_size must not affect results (only dispatch granularity)."""
    scenario = web_scenario(scale=5000.0, horizon=6 * 3600.0)
    spec = PolicySpec(AdaptivePolicy)
    fine = run_replications(scenario, spec, seeds=(0, 1, 2, 3), workers=2, chunk_size=1)
    coarse = run_replications(scenario, spec, seeds=(0, 1, 2, 3), workers=2, chunk_size=2)
    assert [_strip(r) for r in fine] == [_strip(r) for r in coarse]
