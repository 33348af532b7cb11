"""Performance micro-benchmarks of the simulation substrate.

Unlike the figure benchmarks (single-shot regenerations), these are
true timing benchmarks with repeated rounds: event-loop throughput,
Algorithm-1 latency, analytical-formula cost, and workload sampling —
the quantities that determine how close to paper scale the DES can run.
The ``*_MAX_S`` ceilings catch order-of-magnitude regressions (a lost
vectorization, an accidentally quadratic loop), not host jitter: they
and the end-to-end speedups compare CPU seconds at the nominal host
speed of ``bench/hostspeed.py`` (:func:`conftest.norm_cpu`), not wall
seconds, so a busy neighbour on a shared host does not fail them.
"""

from __future__ import annotations

import numpy as np
from conftest import best_norm_cpu_of, best_of, norm_cpu

from repro.core import AdaptivePolicy, PerformanceModeler, QoSTarget, StaticPolicy
from repro.experiments import run_policy, web_scenario
from repro.queueing import mm1k_blocking
from repro.sim import Engine, RandomStreams, round_robin_departures
from repro.workloads import ScientificWorkload, WebWorkload

# 3x the seconds recorded on a 1-core Intel Xeon @ 2.10 GHz (Python 3.11).
# Every ceiling is compared with normalised CPU seconds, which read about
# an idle core's CPU seconds on the host bench/README.md names.
ENGINE_50K_MAX_S = 3 * 0.023704
ENGINE_500K_MAX_S = 3 * 0.23676
ROUND_ROBIN_50K_MAX_S = 3 * 0.0011248
DES_WEB_DAY_MAX_S = 3 * 3.5709
# 3x the fastest of five des-vec web days on a 2-vCPU Intel Xeon host
# (Python 3.11, numpy 2.4), where the one-span-per-window plane it
# replaced took 0.42-0.50 s.
DES_VEC_WEB_DAY_MAX_S = 3 * 0.172
#: How much faster des-vec must run the adaptive web day than scalar des:
#: measured 20.1-23.3x over five runs on a 2-vCPU Xeon host once scalar
#: des merged its arrival stream into the event loop (25.3-28.5x over two
#: runs while it fired half the arrivals from the heap; 27.5-35.0x while it
#: kept one heap entry per arrival).  A faster scalar des lowers the ratio.
DES_VEC_MIN_SPEEDUP = 20.0
#: How much faster des-vec must run the saturated Static-75 day than
#: scalar des: measured 2.3-2.9x over five runs on the host above with
#: scalar des's merged arrival stream (3.2-3.3x before it), with the event
#: path's state kept across a span's pieces (2.0-2.1x without).
#: (The gate's 6-h night window, which rejected 2.5% of its arrivals,
#: read 3.4-5.1x.)
DES_VEC_MIN_SATURATED_SPEEDUP = 2.0
# 3x the fastest of five des-vec saturated Static-75 days on that host.
DES_VEC_SATURATED_MAX_S = 3 * 0.19
#: Bound on des-vec's normalised CPU per request for the adaptive web
#: day at scale 20 (5x the requests, 5x longer spans) over the day at
#: scale 100, best of three each, on the host above (one BLAS thread,
#: which conftest.py sets).
#: It read 0.61-0.82 over eight runs with the T_m weights cached in the
#: monitor, and 1.34-1.39 over three when they were rebuilt per span.
DES_VEC_SCALE_20_MAX_RATIO = 1.0


def _chained_ticks(count: int) -> int:
    """Schedule-and-fire ``count`` chained engine events."""
    eng = Engine()
    remaining = [count]

    def tick():
        remaining[0] -= 1
        if remaining[0] > 0:
            eng.schedule(1.0, tick)

    eng.schedule(1.0, tick)
    eng.run()
    return eng.events_fired


def test_engine_event_throughput(benchmark):
    """Schedule-and-fire 50 k chained events."""
    fired = benchmark(_chained_ticks, 50_000)
    assert fired == 50_000


def test_engine_event_throughput_500k(benchmark):
    """The 50 k chain at 10× — scalar event cost must scale linearly."""
    fired = benchmark(_chained_ticks, 500_000)
    assert fired == 500_000
    cpu = best_norm_cpu_of(lambda: _chained_ticks(500_000), repeats=3)
    assert cpu <= ENGINE_500K_MAX_S, cpu


def _rr_workload(n: int, stations: int = 100, seed: int = 0):
    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.uniform(0.0, float(n) / 10.0, size=n))
    services = rng.exponential(8.0, size=n)
    return arrivals, services, stations


def test_batched_round_robin_kernel_50k(benchmark):
    """50 k round-robin requests through the SoA Lindley kernel.

    The array equivalent of the 50 k-event chain above: every arrival
    and every departure handled by a handful of numpy passes instead of
    100 k heap operations.
    """
    arrivals, services, stations = _rr_workload(50_000)
    dep = benchmark(round_robin_departures, arrivals, services, stations)
    assert dep.shape == arrivals.shape
    assert np.all(dep >= arrivals)


def test_batched_vs_scalar_kernel_speedup():
    """Acceptance check: the batched kernel beats the scalar event loop ≥5×.

    Both sides process 50 k requests — the scalar engine fires one
    chained event per request (``test_engine_event_throughput``'s
    kernel), the batched side computes all departures in one
    :func:`round_robin_departures` call.  Best-of-5 normalised CPU
    seconds (:func:`conftest.best_norm_cpu_of`); each side also stays
    under its absolute ceiling.
    """
    arrivals, services, stations = _rr_workload(50_000)

    scalar = best_norm_cpu_of(lambda: _chained_ticks(50_000))
    batched = best_norm_cpu_of(lambda: round_robin_departures(arrivals, services, stations))
    speedup = scalar / batched
    print(
        f"\nbatched-vs-scalar 50k (normalised CPU s): scalar={scalar:.6f}s "
        f"batched={batched:.6f}s speedup={speedup:.1f}x"
    )
    assert speedup >= 5.0, (scalar, batched)
    assert scalar <= ENGINE_50K_MAX_S, scalar
    assert batched <= ROUND_ROBIN_50K_MAX_S, batched


def test_vec_backend_end_to_end_speedup():
    """des-vec must run the web day at least 20x faster than scalar des.

    Full adaptive web day at scale 100 (~700 k requests): the batched
    backend replaces per-request events with one array pass per span
    while keeping the control trajectory bit-identical — asserted here
    on every run, so the speed claim can never drift from the
    correctness claim.
    """
    scenario = web_scenario(scale=100.0, horizon=24 * 3600.0)

    des, t_des = norm_cpu(lambda: run_policy(scenario, AdaptivePolicy(), seed=0, backend="des"))
    vec, t_vec = norm_cpu(
        lambda: run_policy(scenario, AdaptivePolicy(), seed=0, backend="des-vec")
    )

    print(
        f"\nend-to-end web scale=100 (normalised CPU s): des={t_des:.2f}s des-vec={t_vec:.2f}s "
        f"speedup={t_des / t_vec:.1f}x over {des.total_requests:.0f} requests"
    )
    assert vec.control_series == des.control_series
    assert vec.vm_hours == des.vm_hours
    assert t_des >= DES_VEC_MIN_SPEEDUP * t_vec, t_des / t_vec
    assert t_des <= DES_WEB_DAY_MAX_S, t_des
    assert t_vec <= DES_VEC_WEB_DAY_MAX_S, t_vec


def test_vec_backend_end_to_end_saturated_speedup():
    """des-vec must run a rejecting fleet at least 2x faster than scalar des.

    Jitterless web day at scale 400 on an undersized Static-75: from the
    morning ramp to the evening every instance is full for long
    stretches, so most spans run on the fleet's event-granular path
    (about 13% of the arrivals are rejected).  Counts and series must
    match scalar des exactly.
    """
    scale = 400.0
    base = web_scenario(scale=scale, horizon=24 * 3600.0, track_fleet_series=True)
    scenario = base.with_updates(workload=WebWorkload(service_jitter=0.0).scaled(scale))

    des, t_des = norm_cpu(lambda: run_policy(scenario, StaticPolicy(75), seed=0, backend="des"))
    vec, t_vec = norm_cpu(lambda: run_policy(scenario, StaticPolicy(75), seed=0, backend="des-vec"))

    print(
        f"\nend-to-end saturated Static-75 scale=400 (normalised CPU s): des={t_des:.2f}s "
        f"des-vec={t_vec:.2f}s speedup={t_des / t_vec:.1f}x, "
        f"{des.rejected} of {des.total_requests} rejected, "
        f"{vec.profile['counters']['event_spans']} of {vec.profile['counters']['spans']} "
        "spans on the event path"
    )
    assert des.rejected > 0
    for name in ("total_requests", "accepted", "completed", "rejected", "vm_hours"):
        assert getattr(vec, name) == getattr(des, name), name
    assert vec.control_series == des.control_series
    assert vec.fleet_series == des.fleet_series
    assert t_des >= DES_VEC_MIN_SATURATED_SPEEDUP * t_vec, t_des / t_vec
    assert t_vec <= DES_VEC_SATURATED_MAX_S, t_vec


def _assert_accounting(r) -> None:
    """Request conservation of one DES run, on its metrics and counters."""
    counters = r.profile["counters"]
    assert r.total_requests == r.accepted + r.rejected == counters["arrivals"]
    assert r.completed == counters["completions"]
    assert 0 <= r.accepted - r.completed - r.lost_requests
    assert r.rejection_rate == r.rejected / r.total_requests


def test_vec_backend_cost_per_request_flat_in_scale():
    """des-vec's cost per request must not grow with span size.

    The adaptive web day at scale 20 holds 5x the requests of the day at
    scale 100 in the same 102 spans, so every span is 5x longer.  Work
    per request that grows with the span (such as a T_m fold that builds
    its weights per span, where each power past the underflow length is
    slow) shows as a higher normalised CPU per request.  Best of 3 days
    on each side.
    """
    per_request = {}
    for scale in (100.0, 20.0):
        scenario = web_scenario(scale=scale, horizon=24 * 3600.0)
        runs = []

        def day():
            r = run_policy(scenario, AdaptivePolicy(), seed=0, backend="des-vec")
            runs.append(r)
            return r

        best = best_norm_cpu_of(day, repeats=3)
        for r in runs:
            _assert_accounting(r)
        per_request[scale] = best / runs[0].total_requests
    ratio = per_request[20.0] / per_request[100.0]
    print(
        f"\ndes-vec adaptive web day, normalised CPU per request: scale 100 "
        f"{per_request[100.0] * 1e9:.0f} ns, scale 20 {per_request[20.0] * 1e9:.0f} ns, "
        f"ratio {ratio:.2f}"
    )
    assert ratio <= DES_VEC_SCALE_20_MAX_RATIO, ratio


WEB_PEAK_QOS = QoSTarget(max_response_time=0.250, min_utilization=0.80)


def test_algorithm1_decision_latency(benchmark):
    """One full Algorithm-1 search at the paper's web peak point.

    The decision cache is disabled so every round pays for the complete
    adaptive search — this is the cold path the cache amortizes.
    """
    modeler = PerformanceModeler(
        qos=WEB_PEAK_QOS, capacity=2, max_vms=8000, decision_cache_size=0
    )
    decision = benchmark(lambda: modeler.decide(1200.0, 0.105, 55))
    assert 148 <= decision.instances <= 158


def test_algorithm1_cached_decision_latency(benchmark):
    """The same decision served from the quantized LRU cache."""
    modeler = PerformanceModeler(qos=WEB_PEAK_QOS, capacity=2, max_vms=8000)
    modeler.decide(1200.0, 0.105, 55)  # prime
    decision = benchmark(lambda: modeler.decide(1200.0, 0.105, 55))
    assert 148 <= decision.instances <= 158
    assert modeler.cache_hits > 0 and modeler.cache_misses == 1


def test_cache_warm_hit_speedup():
    """Acceptance check: a warm cache hit is ≥10× faster than a cold search."""
    cold = PerformanceModeler(
        qos=WEB_PEAK_QOS, capacity=2, max_vms=8000, decision_cache_size=0
    )
    warm = PerformanceModeler(qos=WEB_PEAK_QOS, capacity=2, max_vms=8000)
    warm.decide(1200.0, 0.105, 55)  # prime

    def decide_200(modeler):
        for _ in range(200):
            modeler.decide(1200.0, 0.105, 55)

    t_cold = best_of(lambda: decide_200(cold))
    t_warm = best_of(lambda: decide_200(warm))
    print(f"\n200 decisions: cold={t_cold:.6f}s warm={t_warm:.6f}s")
    assert t_cold >= 10.0 * t_warm, (t_cold, t_warm)


def test_mm1k_blocking_formula(benchmark):
    """The closed form evaluated across a load sweep."""

    def sweep():
        return [mm1k_blocking(rho, 2) for rho in np.linspace(0.01, 3.0, 100)]

    values = benchmark(sweep)
    assert all(0.0 <= v <= 1.0 for v in values)


def test_web_window_sampling(benchmark):
    """One 60-s web window at peak rate (60 k arrivals)."""
    w = WebWorkload()
    rng = RandomStreams(0).get("bench.web")
    arrivals = benchmark(lambda: w.sample_window(rng, 43_200.0))
    assert arrivals.size > 50_000


def test_scientific_window_sampling(benchmark):
    """One 30-minute peak BoT window (~250 jobs)."""
    sci = ScientificWorkload()
    rng = RandomStreams(0).get("bench.sci")
    arrivals = benchmark(lambda: sci.sample_window(rng, 10 * 3600.0))
    assert arrivals.size > 100
