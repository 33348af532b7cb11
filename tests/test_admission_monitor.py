"""Unit tests of admission control and the monitoring service."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cloud import AdmissionControl, Monitor
from repro.errors import ConfigurationError
from repro.metrics import MetricsCollector
from repro.sim import Engine

from helpers import make_env


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
def test_accepts_when_capacity_available():
    env = make_env(capacity=2)
    env.fleet.scale_to(1)
    assert env.admission.submit(0.0) is True
    assert env.metrics.accepted == 1
    assert env.metrics.completed == 0  # not yet completed
    assert env.metrics.in_flight == 1
    assert env.metrics.rejected == 0


def test_rejects_when_all_instances_hold_k():
    env = make_env(capacity=2)
    env.fleet.scale_to(2)
    for _ in range(4):  # fill 2 instances × k=2
        assert env.admission.submit(0.0)
    assert env.admission.submit(0.0) is False
    assert env.metrics.rejected == 1


def test_rejects_with_no_fleet():
    env = make_env()
    assert env.admission.submit(0.0) is False
    assert env.metrics.rejected == 1


def test_arrival_counting_optional():
    env = make_env()
    env.fleet.scale_to(1)
    counting = AdmissionControl(env.fleet, env.monitor, count_arrivals=True)
    counting.submit(0.0)
    assert env.monitor._arrivals_in_window == 1


# ----------------------------------------------------------------------
# monitor
# ----------------------------------------------------------------------
def test_monitor_default_service_time_before_observations():
    engine = Engine()
    m = Monitor(engine, MetricsCollector(), default_service_time=0.105)
    assert m.mean_service_time() == 0.105


def test_monitor_first_observation_replaces_default():
    engine = Engine()
    m = Monitor(engine, MetricsCollector(), default_service_time=1.0)
    m.record_response(5.0, 3.0)
    assert m.mean_service_time() == 3.0


def test_monitor_ewma_converges():
    engine = Engine()
    m = Monitor(engine, MetricsCollector(), default_service_time=1.0, ewma_alpha=0.5)
    for _ in range(32):
        m.record_response(2.0, 2.0)
    assert m.mean_service_time() == pytest.approx(2.0)


def test_monitor_forwards_to_metrics():
    engine = Engine()
    metrics = MetricsCollector(qos_response_time=1.0)
    m = Monitor(engine, metrics, default_service_time=1.0)
    m.record_response(0.5, 0.4)
    m.record_response(2.0, 0.4)  # violation
    assert metrics.completed == 2
    assert metrics.violations == 1
    assert metrics.busy_seconds == pytest.approx(0.8)


def test_monitor_rate_sampling():
    engine = Engine()
    metrics = MetricsCollector()
    m = Monitor(engine, metrics, default_service_time=1.0, rate_sample_interval=10.0)
    for _ in range(25):
        m.record_arrival()
    engine.schedule_at(5.0, lambda: None)
    engine.run(until=30.0)
    assert len(m.rate_history) == 3
    t0, r0 = m.rate_history[0]
    assert t0 == 10.0
    assert r0 == pytest.approx(2.5)
    # Later windows saw no arrivals.
    assert m.rate_history[1][1] == 0.0
    assert m.observed_rate() == 0.0


def test_monitor_ewma_exact_weighting():
    # First completion replaces the default outright; every later one
    # moves the estimate by alpha * (observation - estimate).
    engine = Engine()
    m = Monitor(engine, MetricsCollector(), default_service_time=9.0, ewma_alpha=0.25)
    m.record_response(2.0, 2.0)
    assert m.mean_service_time() == 2.0
    m.record_response(4.0, 4.0)
    assert m.mean_service_time() == pytest.approx(2.0 + 0.25 * (4.0 - 2.0))
    m.record_response(1.0, 1.0)
    assert m.mean_service_time() == pytest.approx(2.5 + 0.25 * (1.0 - 2.5))


def test_monitor_samples_on_exact_cadence():
    engine = Engine()
    m = Monitor(
        engine, MetricsCollector(), default_service_time=1.0, rate_sample_interval=7.5
    )
    engine.run(until=38.0)
    assert [t for t, _ in m.rate_history] == [7.5, 15.0, 22.5, 30.0, 37.5]


def test_monitor_arrivals_attributed_to_their_window():
    engine = Engine()
    m = Monitor(
        engine, MetricsCollector(), default_service_time=1.0, rate_sample_interval=10.0
    )
    for t in (1.0, 2.0, 3.0, 12.0):
        engine.schedule_at(t, m.record_arrival)
    engine.run(until=25.0)
    assert [(t, r) for t, r in m.rate_history] == [(10.0, 0.3), (20.0, 0.1)]


def test_monitor_rate_history_bounded():
    engine = Engine()
    m = Monitor(
        engine,
        MetricsCollector(),
        default_service_time=1.0,
        rate_sample_interval=10.0,
        history_length=4,
    )
    engine.run(until=85.0)
    assert len(m.rate_history) == 4
    assert m.rate_history[0][0] == 50.0  # oldest samples evicted


def test_monitor_emits_trace_events_when_traced():
    from repro.obs import RingBufferSink, TraceBus

    engine = Engine()
    sink = RingBufferSink()
    m = Monitor(
        engine,
        MetricsCollector(),
        default_service_time=1.0,
        rate_sample_interval=10.0,
        tracer=TraceBus(sink),
    )
    engine.schedule_at(4.0, lambda: m.record_response(0.5, 0.4))
    engine.run(until=15.0)
    completed = sink.of_type("request.completed")
    assert len(completed) == 1
    assert completed[0]["t"] == 4.0
    assert completed[0]["service_time"] == 0.4
    (sample,) = sink.of_type("monitor.sample")
    assert sample["t"] == 10.0
    assert sample["service_time_estimate"] == m.mean_service_time()


def test_monitor_observed_rate_none_without_sampling():
    engine = Engine()
    m = Monitor(engine, MetricsCollector(), default_service_time=1.0)
    assert m.observed_rate() is None


# ----------------------------------------------------------------------
# bulk T_m fold
# ----------------------------------------------------------------------
#: Longest dot of the fold (the monitor's ``_DOT_CHUNK``).
_CHUNK = 8192


def _closed_form_fold(tm, seen, alpha, services):
    """``record_responses``' T_m update with its weights built per batch
    as ``(1-α) ** arange(n-1, -1, -1)``, dotted in order in chunks of
    ``_CHUNK``: the reference the weight table must match bit for bit.
    Returns ``(tm, seen)``."""
    services = np.asarray(services, dtype=np.float64)
    if services.size == 0:
        return tm, seen
    start = 0
    if not seen:
        tm, seen, start = float(services[0]), True, 1
    tail = services[start:]
    if tail.size and not (float(tail.min()) == tm and float(tail.max()) == tm):
        weights = (1.0 - alpha) ** np.arange(tail.size - 1, -1, -1, dtype=np.float64)
        dot = 0.0
        for i in range(0, tail.size, _CHUNK):
            dot += float(np.dot(weights[i : i + _CHUNK], tail[i : i + _CHUNK]))
        tm = float((1.0 - alpha) ** tail.size * tm + alpha * dot)
    return tm, seen


def _bits(x):
    return np.float64(x).view(np.int64)


#: Batch sizes around the table's doublings and past the length where
#: (1-α)**i underflows to 0.0 (about 14.5k at α = 0.05, 7.1k at 0.1,
#: 1.1k at 0.5).
_EDGE_SIZES = [
    1, 2, 3, 1023, 1024, 1025, 1075, 7065, 7066, 8193, 14511, 14512, 14513, 16384, 16385, 40000
]

_ALPHAS = st.one_of(
    st.sampled_from([0.05, 0.1, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)


def _assert_fold_matches_closed_form(alpha, batches, seed_first=None):
    metrics = MetricsCollector(qos_response_time=0.2)
    reference = MetricsCollector(qos_response_time=0.2)
    m = Monitor(Engine(), metrics, default_service_time=0.105, ewma_alpha=alpha)
    tm, seen = 0.105, False
    if seed_first is not None:
        m.record_response(seed_first, seed_first)
        Monitor(Engine(), reference, default_service_time=0.105).record_response(
            seed_first, seed_first
        )
        tm, seen = seed_first, True
    for services in batches:
        responses = services * 1.5
        m.record_responses(responses, services)
        reference.record_responses(responses, services)
        tm, seen = _closed_form_fold(tm, seen, alpha, services)
        assert _bits(m.mean_service_time()) == _bits(tm), (alpha, services.size)
        assert vars(metrics) == vars(reference)


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.5, 1.0])
@pytest.mark.parametrize("order", ["growing", "shrinking"])
def test_record_responses_weight_table_edges_bit_for_bit(alpha, order):
    rng = np.random.default_rng(7)
    sizes = _EDGE_SIZES if order == "growing" else _EDGE_SIZES[::-1]
    _assert_fold_matches_closed_form(alpha, [rng.exponential(0.1, n) for n in sizes])


@settings(max_examples=60, deadline=None)
@given(
    alpha=_ALPHAS,
    sizes=st.lists(
        st.one_of(st.integers(0, 80), st.sampled_from(_EDGE_SIZES), st.integers(0, 20000)),
        min_size=1,
        max_size=6,
    ),
    seed=st.integers(0, 2**32 - 1),
    jitterless=st.booleans(),
    seeded=st.booleans(),
)
def test_record_responses_matches_closed_form_bit_for_bit(alpha, sizes, seed, jitterless, seeded):
    """One stream split into batches at random (empty ones included):
    T_m and the collector equal the closed form's after every batch,
    whether the first completion seeds T_m inside a batch or before it,
    and on the jitterless skip path (every service equal to T_m)."""
    rng = np.random.default_rng(seed)
    stream = np.full(sum(sizes), 0.25) if jitterless else rng.exponential(0.1, sum(sizes))
    batches = np.split(stream, np.cumsum(sizes)[:-1])
    _assert_fold_matches_closed_form(alpha, batches, seed_first=0.25 if seeded else None)


#: Relative distance allowed between the closed-form fold and the
#: sequential ``record_response`` loop: both round each step, the loop
#: n times over, the dot in blocks (measured below 4e-15 over 300 random
#: streams of up to 12k completions with α >= 0.01).
_FOLD_VS_LOOP_RTOL = 1e-12


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.one_of(
        st.sampled_from([0.05, 0.1, 0.5, 1.0]), st.floats(min_value=0.01, max_value=1.0)
    ),
    sizes=st.lists(st.integers(0, 3000), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_record_responses_tracks_scalar_loop(alpha, sizes, seed):
    services = np.random.default_rng(seed).exponential(0.1, sum(sizes))
    bulk = Monitor(Engine(), MetricsCollector(), default_service_time=0.105, ewma_alpha=alpha)
    loop = Monitor(Engine(), MetricsCollector(), default_service_time=0.105, ewma_alpha=alpha)
    for batch in np.split(services, np.cumsum(sizes)[:-1]):
        bulk.record_responses(batch, batch)
        for s in batch.tolist():
            loop.record_response(s, s)
        expected = loop.mean_service_time()
        assert bulk.mean_service_time() == pytest.approx(expected, rel=_FOLD_VS_LOOP_RTOL)


_FOLD_CHILD = """
import numpy as np
from repro.cloud import Monitor
from repro.metrics import MetricsCollector
from repro.sim import Engine

weights = 0.999 ** np.arange(19_998, -1, -1, dtype=np.float64)
for seed in range(8):
    m = Monitor(Engine(), MetricsCollector(), default_service_time=0.105, ewma_alpha=0.001)
    services = np.random.default_rng(seed).exponential(0.1, 20_000)
    m.record_responses(services, services)
    print(m.mean_service_time().hex(), float(np.dot(weights, services[1:])).hex())
"""


def test_record_responses_fold_is_independent_of_blas_threads():
    """Folds of 20k completions give the same T_m bits with one and with
    two BLAS threads.  OpenBLAS splits a dot of more than 10k entries
    across its threads, which changes its rounding; at α = 0.001 the
    weights stay far from underflow, so a single long dot shows it in
    the last bit of most of these eight folds.  Each child also prints
    that single dot: when its bits do not change with the thread count
    (another BLAS, or one that ignores ``OPENBLAS_NUM_THREADS``) the
    test cannot tell a chunked fold from an unchunked one, and skips."""
    src = str(Path(repro.__file__).resolve().parents[1])
    results = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", _FOLD_CHILD],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        results.append([line.split() for line in out.stdout.splitlines()])
    folds = [[row[0] for row in rows] for rows in results]
    dots = [[row[1] for row in rows] for rows in results]
    if dots[0] == dots[1]:
        pytest.skip("this BLAS gives one long dot the same bits with 1 and 2 threads")
    assert folds[0] == folds[1]


def test_monitor_validation():
    engine = Engine()
    with pytest.raises(ConfigurationError):
        Monitor(engine, MetricsCollector(), default_service_time=0.0)
    with pytest.raises(ConfigurationError):
        Monitor(engine, MetricsCollector(), default_service_time=1.0, ewma_alpha=0.0)
    for interval in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            Monitor(
                engine, MetricsCollector(), default_service_time=1.0, rate_sample_interval=interval
            )
