"""Unit tests of the workload analyzer and the DES control plane."""

from __future__ import annotations

import pytest

from repro.core import (
    ControlPlane,
    PerformanceModeler,
    QoSTarget,
    RecordingActuator,
    WorkloadAnalyzer,
)
from repro.errors import ConfigurationError
from repro.obs import RingBufferSink, TraceBus
from repro.prediction import ArrivalRatePredictor, ScientificModePredictor
from repro.sim import Engine
from repro.workloads import ScientificWorkload

from helpers import make_env


class ConstantPredictor(ArrivalRatePredictor):
    name = "constant"

    def __init__(self, rate: float, change_points=()):
        self.rate = rate
        self._boundaries = list(change_points)
        self.calls = []

    def predict(self, t0, t1):
        self.calls.append((t0, t1))
        return self.rate

    def boundaries(self, t0, t1):
        return [b for b in self._boundaries if t0 < b < t1]


def analyze(pred, horizon, update_interval, lead_time=0.0, monitor=None, engine=None):
    """Run an analyzer over a traced recording plane; return the plane
    and its ``prediction.issued`` events."""
    engine = engine if engine is not None else Engine()
    bus = TraceBus(RingBufferSink())
    plane = ControlPlane(
        modeler=PerformanceModeler(qos=QoSTarget(max_response_time=2.0), capacity=2, max_vms=80),
        actuator=RecordingActuator(0),
        service_time_fn=lambda: 1.0,
        predictor=pred,
        update_interval=update_interval,
        lead_time=lead_time,
        tracer=bus,
    )
    WorkloadAnalyzer(engine, plane, horizon=horizon, monitor=monitor).start()
    engine.run(until=horizon)
    return plane, bus.sink.of_type("prediction.issued")


def test_alerts_on_regular_cadence():
    plane, issued = analyze(ConstantPredictor(5.0), horizon=1000.0, update_interval=100.0)
    assert len(plane.actions) == 10  # t = 0, 100, ..., 900
    assert [e["t"] for e in issued] == [100.0 * i for i in range(10)]


def test_alerts_align_with_boundaries():
    pred = ConstantPredictor(5.0, change_points=[250.0])
    _, issued = analyze(pred, horizon=400.0, update_interval=100.0, lead_time=10.0)
    times = [e["t"] for e in issued]
    # Boundary at 250 adds alerts at 240 (lead) and 250 (exact).
    assert 240.0 in times and 250.0 in times


def test_alert_window_starts_at_alert_time():
    _, issued = analyze(ConstantPredictor(5.0), horizon=300.0, update_interval=100.0, lead_time=30.0)
    first = issued[0]
    assert first["t"] == 0.0
    assert first["window_start"] == 0.0  # window covers the alert's own regime
    assert first["window_end"] == pytest.approx(130.0)  # next alert + lead


def test_reactive_predictor_skips_until_history(streams):
    from repro.prediction import LastValuePredictor

    plane, issued = analyze(LastValuePredictor(), horizon=100.0, update_interval=10.0)
    assert plane.actions == [] and issued == []  # no monitored history was ever supplied


def test_analyzer_feeds_monitor_history_to_predictor():
    from repro.prediction import LastValuePredictor

    env = make_env()
    env.monitor.rate_history.append((1.0, 42.0))
    plane, _ = analyze(
        LastValuePredictor(), horizon=25.0, update_interval=10.0, monitor=env.monitor, engine=env.engine
    )
    assert plane.actions and plane.actions[-1].predicted_rate == 42.0


def test_analyzer_validation():
    engine = Engine()
    plane = ControlPlane(
        modeler=PerformanceModeler(qos=QoSTarget(max_response_time=2.0), capacity=2, max_vms=80),
        actuator=RecordingActuator(0),
        service_time_fn=lambda: 1.0,
        predictor=ConstantPredictor(1.0),
    )
    with pytest.raises(ConfigurationError):
        WorkloadAnalyzer(engine, plane, horizon=0.0)


# ----------------------------------------------------------------------
# provisioner: the control plane over the DES fleet
# ----------------------------------------------------------------------
def des_plane(env, modeler, **kw):
    return ControlPlane(
        modeler=modeler,
        actuator=env.fleet,
        service_time_fn=env.monitor.mean_service_time,
        **kw,
    )


def test_provisioner_scales_fleet_on_estimate():
    env = make_env(capacity=2, service_time=1.0)
    qos = QoSTarget(max_response_time=2.0, min_utilization=0.8)
    modeler = PerformanceModeler(qos=qos, capacity=2, max_vms=80)
    prov = des_plane(env, modeler)
    prov.start()
    prov.on_estimate(env.engine.now, 8.0)  # 8 req/s × 1 s service → ~10 instances
    assert 9 <= env.fleet.serving_count <= 11
    assert len(prov.actions) == 1
    act = prov.actions[0]
    assert act.before == 0
    assert act.after == env.fleet.serving_count
    assert act.decision.meets_qos


def test_provisioner_initial_deployment():
    env = make_env()
    modeler = PerformanceModeler(
        qos=QoSTarget(max_response_time=2.0), capacity=2, max_vms=80
    )
    prov = des_plane(env, modeler, initial_instances=5)
    prov.start()
    assert env.fleet.serving_count == 5


def test_provisioner_scale_down_on_lower_estimate():
    env = make_env(capacity=2, service_time=1.0)
    modeler = PerformanceModeler(
        qos=QoSTarget(max_response_time=2.0, min_utilization=0.8), capacity=2, max_vms=80
    )
    prov = des_plane(env, modeler)
    prov.start()
    prov.on_estimate(env.engine.now, 16.0)
    high = env.fleet.serving_count
    prov.on_estimate(env.engine.now, 4.0)
    low = env.fleet.serving_count
    assert low < high


def test_provisioner_validation():
    env = make_env()
    modeler = PerformanceModeler(
        qos=QoSTarget(max_response_time=2.0), capacity=2, max_vms=80
    )
    with pytest.raises(ConfigurationError):
        des_plane(env, modeler, initial_instances=-1)


# ----------------------------------------------------------------------
# scientific-mode predictor constants (paper §V-B2)
# ----------------------------------------------------------------------
def test_scientific_predictor_peak_rate():
    pred = ScientificModePredictor(ScientificWorkload())
    # 1.309 × 1.2 / 7.379 ≈ 0.2129 tasks/s.
    assert pred.peak_rate == pytest.approx(0.2129, abs=2e-3)


def test_scientific_predictor_regimes():
    sci = ScientificWorkload()
    pred = ScientificModePredictor(sci)
    assert pred.predict(10 * 3600.0, 10.5 * 3600.0) == pred.peak_rate
    assert pred.predict(2 * 3600.0, 2.5 * 3600.0) == pred.offpeak_rate
    # Any overlap with peak predicts peak (conservative).
    assert pred.predict(7.9 * 3600.0, 8.1 * 3600.0) == pred.peak_rate


def test_scientific_predictor_boundaries():
    pred = ScientificModePredictor(ScientificWorkload())
    bs = pred.boundaries(0.0, 86_400.0)
    assert 8 * 3600.0 in bs and 17 * 3600.0 in bs
