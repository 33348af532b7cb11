"""In-process micro-benchmarks of the simulation substrate.

Backs the ``repro-experiments bench`` CLI subcommand and the
``benchmarks/bench_parallel_runner.py`` suite with plain-`perf_counter`
measurements that need no external harness: engine event throughput,
Algorithm-1 cold vs cached decision latency, window sampling, the
sequential-vs-parallel replication runner, and the campaign engine's
cold-vs-cached overhead.  Every function returns a JSON-safe dict so
results can be diffed across commits (``BENCH_PR1.json`` records the
first such trajectory, ``BENCH_PR4.json`` adds the campaign numbers).
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Any, Dict, Optional, Sequence

from ..core.modeler import PerformanceModeler
from ..core.policies import AdaptivePolicy
from ..core.qos import QoSTarget
from ..sim.engine import Engine
from ..sim.rng import RandomStreams
from ..workloads.web import WebWorkload
from .parallel import PolicySpec, run_replications_parallel
from .runner import run_replications
from .scenario import web_scenario

__all__ = [
    "engine_throughput",
    "decision_latency",
    "window_sampling",
    "parallel_runner",
    "trace_overhead",
    "metrics_overhead",
    "campaign_overhead",
    "shard_overhead",
    "profit_policy_overhead",
    "kernel_bench",
]


def _best_of(fn, repeats: int) -> float:
    """Minimum wall-clock of ``repeats`` runs of ``fn`` (seconds)."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def engine_throughput(events: int = 50_000, repeats: int = 3) -> Dict[str, Any]:
    """Schedule-and-fire ``events`` chained engine events."""

    def run_chain() -> None:
        eng = Engine()
        remaining = [events]

        def tick() -> None:
            remaining[0] -= 1
            if remaining[0] > 0:
                eng.schedule(1.0, tick)

        eng.schedule(1.0, tick)
        eng.run()
        assert eng.events_fired == events

    best = _best_of(run_chain, repeats)
    return {
        "events": events,
        "best_seconds": best,
        "events_per_second": events / best if best > 0 else float("inf"),
    }


def decision_latency(iterations: int = 200, repeats: int = 3) -> Dict[str, Any]:
    """Algorithm-1 latency at the web peak: cold search vs cache hit."""
    kwargs = dict(
        qos=QoSTarget(max_response_time=0.250, min_utilization=0.80),
        capacity=2,
        max_vms=8000,
    )
    cold_modeler = PerformanceModeler(decision_cache_size=0, **kwargs)
    warm_modeler = PerformanceModeler(**kwargs)
    warm_modeler.decide(1200.0, 0.105, 55)  # prime the cache

    def cold() -> None:
        for _ in range(iterations):
            cold_modeler.decide(1200.0, 0.105, 55)

    def warm() -> None:
        for _ in range(iterations):
            warm_modeler.decide(1200.0, 0.105, 55)

    cold_best = _best_of(cold, repeats) / iterations
    warm_best = _best_of(warm, repeats) / iterations
    return {
        "cold_seconds": cold_best,
        "warm_hit_seconds": warm_best,
        "speedup": cold_best / warm_best if warm_best > 0 else float("inf"),
        "cache": warm_modeler.cache_info(),
    }


def window_sampling(repeats: int = 5) -> Dict[str, Any]:
    """One 60-s web window at peak rate (~70 k arrivals)."""
    web = WebWorkload()
    rng = RandomStreams(0).get("bench.web")
    count = [0]

    def sample() -> None:
        count[0] = int(web.sample_window(rng, 43_200.0).size)

    best = _best_of(sample, repeats)
    return {"arrivals": count[0], "best_seconds": best}


def parallel_runner(
    workers: int = 4,
    seeds: Sequence[int] = tuple(range(8)),
    scale: float = 2000.0,
    horizon: float = 12 * 3600.0,
) -> Dict[str, Any]:
    """Sequential vs process-pool replications of the adaptive web run.

    Returns wall-clock for both paths, the speedup, and whether the
    results matched bit-for-bit (``wall_seconds`` excluded — it is the
    one nondeterministic diagnostic field).
    """
    scenario = web_scenario(scale=scale, horizon=horizon)
    spec = PolicySpec(AdaptivePolicy)
    t0 = time.perf_counter()
    seq = run_replications(scenario, spec, seeds=seeds, workers=1)
    seq_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    par = run_replications_parallel(scenario, spec, seeds=seeds, workers=workers)
    par_wall = time.perf_counter() - t0

    def strip(r):
        return dataclasses.replace(r, wall_seconds=0.0)

    identical = [strip(a) for a in seq] == [strip(b) for b in par]
    return {
        "seeds": list(seeds),
        "workers": workers,
        "sequential_seconds": seq_wall,
        "parallel_seconds": par_wall,
        "speedup": seq_wall / par_wall if par_wall > 0 else float("inf"),
        "identical_results": identical,
        "cache": {
            "hits": sum(r.cache_hits for r in seq),
            "misses": sum(r.cache_misses for r in seq),
        },
    }


def trace_overhead(
    scale: float = 2000.0,
    horizon: float = 6 * 3600.0,
    repeats: int = 2,
) -> Dict[str, Any]:
    """Wall-clock of one adaptive web run untraced vs ring-buffer traced.

    Quantifies the cost of the observability layer: the ``disabled``
    case is the default ``tracer=None`` wiring (the <3% overhead
    budget), the ``enabled`` case routes every event type into an
    in-memory ring buffer (the worst case — JSONL filtering drops the
    per-request firehose by default).
    """
    from ..obs.bus import RingBufferSink, TraceBus
    from .runner import run_policy

    scenario = web_scenario(scale=scale, horizon=horizon)

    def untraced() -> None:
        run_policy(scenario, AdaptivePolicy(), seed=0)

    emitted = [0]

    def traced() -> None:
        bus = TraceBus(RingBufferSink())
        run_policy(scenario, AdaptivePolicy(), seed=0, trace=bus)
        emitted[0] = bus.emitted

    off = _best_of(untraced, repeats)
    on = _best_of(traced, repeats)
    return {
        "disabled_seconds": off,
        "enabled_seconds": on,
        "overhead_ratio": on / off if off > 0 else float("inf"),
        "events_emitted": emitted[0],
    }


def metrics_overhead(
    scale: float = 2000.0,
    horizon: float = 6 * 3600.0,
    repeats: int = 5,
) -> Dict[str, Any]:
    """Wall-clock of one adaptive web run metrics-off vs metrics-on.

    The acceptance budget is a <=1.10x ratio: the only live per-request
    cost is the response-time histogram's buffered list append behind
    the monitor's completion sink (bucketing is deferred and vectorized
    at the next snapshot read) — every other instrument is assembled
    from the run's own state at finalize time.
    """
    from ..obs.metrics import MetricsConfig
    from .runner import run_policy

    scenario = web_scenario(scale=scale, horizon=horizon)

    def disabled() -> None:
        run_policy(scenario, AdaptivePolicy(), seed=0)

    snapshots = [0]

    def enabled() -> None:
        r = run_policy(
            scenario, AdaptivePolicy(), seed=0, metrics=MetricsConfig()
        )
        snapshots[0] = len(r.telemetry["snapshots"])

    # one untimed lap each so imports / allocator warmup / branch
    # predictors don't charge their cost to whichever side runs first,
    # then interleave the timed laps so a host slowdown mid-measurement
    # penalizes both sides equally instead of whichever ran last
    disabled()
    enabled()
    off = float("inf")
    on = float("inf")
    for _ in range(max(1, repeats)):
        off = min(off, _best_of(disabled, 1))
        on = min(on, _best_of(enabled, 1))
    return {
        "disabled_seconds": off,
        "enabled_seconds": on,
        "overhead_ratio": on / off if off > 0 else float("inf"),
        "snapshots": snapshots[0],
        "criterion": "<=1.10x",
        "pass": (on / off <= 1.10) if off > 0 else False,
    }


def campaign_overhead(
    scale: float = 5000.0,
    horizon: float = 6 * 3600.0,
    seeds: str = "0-2",
) -> Dict[str, Any]:
    """Cold vs cached campaign run over a small fluid grid.

    Measures what the campaign engine itself costs: the cold run pays
    for every simulation, the warm re-run is served entirely from the
    content-addressed store, so the ratio is the cache win and the warm
    wall-clock is the pure orchestration overhead per cell.
    """
    import tempfile

    # Imported lazily: repro.campaigns sits above the experiments layer,
    # so a module-body import here would invert the layering rules.
    from ..campaigns import CampaignSpec, ResultStore, run_campaign

    spec = CampaignSpec.from_dict(
        {
            "campaign": {"name": "bench-overhead"},
            "scenarios": [
                {
                    "scenario": "web",
                    "scale": scale,
                    "horizon": horizon,
                    "policies": ["adaptive", "static-60"],
                    "backends": ["fluid"],
                    "seeds": seeds,
                }
            ],
        }
    )
    cells = len(spec.expanded())
    with tempfile.TemporaryDirectory() as root:
        store = ResultStore(root)
        t0 = time.perf_counter()
        cold = run_campaign(spec, store=store, workers=1)
        cold_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = run_campaign(spec, store=store, workers=1)
        warm_wall = time.perf_counter() - t0
    assert len(cold.executed) == cells and len(warm.cached) == cells
    return {
        "cells": cells,
        "cold_seconds": cold_wall,
        "warm_seconds": warm_wall,
        "speedup": cold_wall / warm_wall if warm_wall > 0 else float("inf"),
        "warm_seconds_per_cell": warm_wall / cells if cells else 0.0,
    }


def shard_overhead(
    scale: float = 5000.0,
    horizon: float = 2 * 3600.0,
    seeds: str = "0-31",
    repeats: int = 15,
) -> Dict[str, Any]:
    """Cost of the lease-based scheduler vs the lease-free run loop.

    Measures a warm re-run of a small fluid grid twice — with the
    claim protocol enabled (the default) and with ``coordinate=False``
    (the single-writer fast path) — as order-alternating back-to-back
    pairs, reporting the median pair ratio (see the in-body comment for
    why minima don't converge on laps this short).  Warm cells are
    served from cache without ever being claimed, so the ratio is the
    pure reconcile-loop tax the refactor added to the common resume
    path; the acceptance budget is <=1.05x.  Also reports the per-cell cost of one full
    claim → renew → release lease cycle (the cold-run overhead, paid
    once per executed cell and dwarfed by any simulation).
    """
    import tempfile

    # Imported lazily: repro.campaigns sits above the experiments layer,
    # so a module-body import here would invert the layering rules.
    from ..campaigns import CampaignSpec, ResultStore, run_campaign

    spec = CampaignSpec.from_dict(
        {
            "campaign": {"name": "bench-shard-overhead"},
            "scenarios": [
                {
                    "scenario": "web",
                    "scale": scale,
                    "horizon": horizon,
                    "policies": ["adaptive", "static-60"],
                    "backends": ["fluid"],
                    "seeds": seeds,
                }
            ],
        }
    )
    cells = spec.expanded()
    with tempfile.TemporaryDirectory() as root:
        store = ResultStore(root)
        cold = run_campaign(spec, store=store, workers=1)
        assert len(cold.executed) == len(cells)

        def leases_off() -> None:
            run_campaign(spec, store=store, workers=1, coordinate=False)

        def leases_on() -> None:
            run_campaign(spec, store=store, workers=1)

        # Untimed warmup lap each, then paired laps.  Each repeat times
        # both variants back-to-back (order flipping every lap — on a
        # single-core host whichever side runs second inherits more
        # allocator/GC debt) and contributes one on/off ratio; the
        # reported overhead is the *median* pair ratio, which cancels
        # slow drift and trims the GC spikes that a best-of-minima
        # estimator keeps re-rolling on laps this short (~3 ms).
        leases_off()
        leases_on()
        off = float("inf")
        on = float("inf")
        ratios = []
        for lap in range(max(1, repeats)):
            if lap % 2 == 0:
                a = _best_of(leases_off, 1)
                b = _best_of(leases_on, 1)
            else:
                b = _best_of(leases_on, 1)
                a = _best_of(leases_off, 1)
            off, on = min(off, a), min(on, b)
            ratios.append(b / a if a > 0 else float("inf"))
        ratios.sort()
        ratio = ratios[len(ratios) // 2]

        # Micro-cost of the lease cycle itself, per cell.
        def claim_cycle() -> None:
            for cell in cells:
                outcome = store.claim(cell, "bench:owner", ttl=60.0)
                assert outcome.acquired
                store.renew(cell.key(), "bench:owner")
                store.release(cell.key(), "bench:owner")

        cycle = _best_of(claim_cycle, max(1, repeats)) / len(cells)
    return {
        "cells": len(cells),
        "warm_plain_seconds": off,
        "warm_leases_seconds": on,
        "overhead_ratio": ratio,
        "claim_cycle_seconds_per_cell": cycle,
        "criterion": "<=1.05x",
        "pass": ratio <= 1.05,
    }


def profit_policy_overhead(
    steps: int = 240,
    repeats: int = 5,
) -> Dict[str, Any]:
    """Decision cost of the profit ``m*`` search vs Algorithm 1.

    Drives both modelers (decision caches off, so the raw search is
    what's timed) through the same warm-started decision stream — a
    web-day-like λ ramp up to the peak and back down, each decision
    seeded with the previous one's fleet size, exactly how the control
    plane calls them.  The acceptance budget is a <=1.10x per-decision
    ratio: the two-sided galloping bracket around the warm start makes
    a steady-state ``m*`` decision cost ~3 network evaluations, the
    same order as a converged Algorithm-1 pass.
    """
    from ..economy.policies import ProfitModeler
    from ..economy.pricing import PricingModel

    kwargs = dict(
        qos=QoSTarget(max_response_time=0.250, min_utilization=0.80),
        capacity=2,
        max_vms=8000,
        decision_cache_size=0,
    )
    adaptive = PerformanceModeler(**kwargs)
    profit = ProfitModeler(
        PricingModel(revenue_per_request=0.02, cost_per_core_hour=0.15),
        **kwargs,
    )
    # Diurnal λ sweep (50..1200 req/s) so both searches see the same
    # mix of steady-state repeats and ramp transitions.
    rates = [
        625.0 + 575.0 * math.sin(2.0 * math.pi * i / steps)
        for i in range(steps)
    ]

    def drive(modeler) -> None:
        m = 1
        for lam in rates:
            m = modeler.decide(lam, 0.105, m).instances

    # Untimed warmup lap each, then interleave the timed laps so host
    # drift penalizes both sides equally (same scheme as
    # ``metrics_overhead``).
    drive(adaptive)
    drive(profit)
    base = float("inf")
    prof = float("inf")
    for _ in range(max(1, repeats)):
        base = min(base, _best_of(lambda: drive(adaptive), 1))
        prof = min(prof, _best_of(lambda: drive(profit), 1))
    ratio = prof / base if base > 0 else float("inf")
    return {
        "decisions": steps,
        "adaptive_seconds_per_decision": base / steps,
        "profit_seconds_per_decision": prof / steps,
        "overhead_ratio": ratio,
        "criterion": "<=1.10x",
        "pass": ratio <= 1.10,
    }


def kernel_bench(
    events: int = 50_000,
    workers: Optional[int] = None,
    quick: bool = False,
) -> Dict[str, Any]:
    """The full micro-benchmark suite as one JSON-safe report."""
    if quick:
        events = min(events, 10_000)
    report: Dict[str, Any] = {
        "engine_throughput": engine_throughput(events=events),
        "decision_latency": decision_latency(iterations=50 if quick else 200),
        "window_sampling": window_sampling(repeats=2 if quick else 5),
        "trace_overhead": trace_overhead(
            scale=4000.0 if quick else 2000.0,
            horizon=(2 if quick else 6) * 3600.0,
            repeats=1 if quick else 2,
        ),
        "metrics_overhead": metrics_overhead(
            scale=4000.0 if quick else 2000.0,
            horizon=(2 if quick else 6) * 3600.0,
            repeats=1 if quick else 2,
        ),
        "campaign_overhead": campaign_overhead(
            horizon=(2 if quick else 6) * 3600.0,
            seeds="0" if quick else "0-2",
        ),
        "shard_overhead": shard_overhead(
            seeds="0-7" if quick else "0-31",
            repeats=5 if quick else 15,
        ),
        "profit_policy_overhead": profit_policy_overhead(
            steps=60 if quick else 240,
            repeats=2 if quick else 5,
        ),
    }
    if workers is not None and workers > 1:
        report["parallel_runner"] = parallel_runner(
            workers=workers,
            seeds=tuple(range(4 if quick else 8)),
            horizon=(6 if quick else 12) * 3600.0,
        )
    return report
