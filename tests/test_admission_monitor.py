"""Unit tests of admission control and the monitoring service."""

from __future__ import annotations

import pytest

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


def test_monitor_validation():
    engine = Engine()
    with pytest.raises(ConfigurationError):
        Monitor(engine, MetricsCollector(), default_service_time=0.0)
    with pytest.raises(ConfigurationError):
        Monitor(engine, MetricsCollector(), default_service_time=1.0, ewma_alpha=0.0)
    with pytest.raises(ConfigurationError):
        Monitor(
            engine, MetricsCollector(), default_service_time=1.0, rate_sample_interval=0.0
        )
