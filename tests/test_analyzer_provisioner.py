"""Unit tests of the workload analyzer and the DES control plane."""

from __future__ import annotations

import pytest

from repro.core import (
    ControlPlane,
    PerformanceModeler,
    QoSTarget,
    WorkloadAnalyzer,
)
from repro.errors import ConfigurationError
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


def test_alerts_on_regular_cadence():
    engine = Engine()
    pred = ConstantPredictor(5.0)
    seen = []
    analyzer = WorkloadAnalyzer(
        engine, pred, seen.append, horizon=1000.0, update_interval=100.0, lead_time=0.0
    )
    analyzer.start()
    engine.run(until=1000.0)
    assert len(seen) == 10  # t = 0, 100, ..., 900
    assert [a[0] for a in analyzer.alerts] == [100.0 * i for i in range(10)]


def test_alerts_align_with_boundaries():
    engine = Engine()
    pred = ConstantPredictor(5.0, change_points=[250.0])
    analyzer = WorkloadAnalyzer(
        engine, pred, lambda r: None, horizon=400.0, update_interval=100.0, lead_time=10.0
    )
    analyzer.start()
    engine.run(until=400.0)
    times = [a[0] for a in analyzer.alerts]
    # Boundary at 250 adds alerts at 240 (lead) and 250 (exact).
    assert 240.0 in times and 250.0 in times


def test_alert_window_starts_at_alert_time():
    engine = Engine()
    pred = ConstantPredictor(5.0)
    analyzer = WorkloadAnalyzer(
        engine, pred, lambda r: None, horizon=300.0, update_interval=100.0, lead_time=30.0
    )
    analyzer.start()
    engine.run(until=300.0)
    t0, w0, w1, _ = analyzer.alerts[0]
    assert t0 == 0.0
    assert w0 == 0.0  # window covers the alert's own regime
    assert w1 == pytest.approx(130.0)  # next alert + lead


def test_reactive_predictor_skips_until_history(streams):
    from repro.prediction import LastValuePredictor

    engine = Engine()
    pred = LastValuePredictor()
    seen = []
    analyzer = WorkloadAnalyzer(
        engine, pred, seen.append, horizon=100.0, update_interval=10.0, lead_time=0.0
    )
    analyzer.start()
    engine.run(until=100.0)
    assert seen == []  # no monitored history was ever supplied


def test_analyzer_feeds_monitor_history_to_predictor():
    from repro.prediction import LastValuePredictor

    env = make_env()
    seen = []
    pred = LastValuePredictor()
    analyzer = WorkloadAnalyzer(
        env.engine,
        pred,
        seen.append,
        horizon=100.0,
        update_interval=10.0,
        lead_time=0.0,
        monitor=env.monitor,
    )
    env.monitor.rate_history.append((1.0, 42.0))
    analyzer.start()
    env.engine.run(until=25.0)
    assert seen and seen[-1] == 42.0


def test_analyzer_validation():
    engine = Engine()
    pred = ConstantPredictor(1.0)
    with pytest.raises(ConfigurationError):
        WorkloadAnalyzer(engine, pred, lambda r: None, horizon=10.0, update_interval=0.0)
    for lead_time in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            WorkloadAnalyzer(
                engine, pred, lambda r: None, horizon=10.0, update_interval=1.0, lead_time=lead_time
            )
    with pytest.raises(ConfigurationError):
        WorkloadAnalyzer(engine, pred, lambda r: None, horizon=0.0)


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
