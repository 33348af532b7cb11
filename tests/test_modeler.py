"""Unit tests of Algorithm 1 (the load predictor & performance modeler)."""

from __future__ import annotations

import math

import pytest

from repro.core import PerformanceModeler, QoSTarget
from repro.errors import ConfigurationError
from repro.queueing import MD1KQueue, mm1k_blocking


WEB_QOS = QoSTarget(max_response_time=0.250, min_utilization=0.80)


def modeler(**kw) -> PerformanceModeler:
    defaults = dict(qos=WEB_QOS, capacity=2, max_vms=8000)
    defaults.update(kw)
    return PerformanceModeler(**defaults)


def test_fleet_lands_in_utilization_band():
    m = modeler()
    for lam in (400.0, 800.0, 1200.0):
        d = m.decide(arrival_rate=lam, service_time=0.105, current_instances=100)
        rho = lam * 0.105 / d.instances
        assert 0.78 <= rho <= 0.851, f"lam={lam}: rho={rho} at m={d.instances}"
        assert d.meets_qos


def test_paper_web_peak_fleet_size():
    # λ=1200 req/s, Tm≈105 ms → the paper observes 153 instances.
    d = modeler().decide(1200.0, 0.105, 150)
    assert 148 <= d.instances <= 158


def test_paper_web_trough_fleet_size():
    # Sunday trough λ=400 → the paper observes ~55 instances.
    d = modeler().decide(400.0, 0.105, 150)
    assert 49 <= d.instances <= 56


def test_decision_independent_of_start_point():
    m = modeler()
    sizes = {
        m.decide(800.0, 0.105, start).instances
        for start in (1, 10, 105, 500, 8000)
    }
    # All starts converge into the same narrow band.
    assert max(sizes) - min(sizes) <= math.ceil(0.08 * max(sizes))


def test_monotone_in_arrival_rate():
    m = modeler()
    sizes = [m.decide(lam, 0.105, 100).instances for lam in (100, 300, 600, 900, 1200)]
    assert sizes == sorted(sizes)


def test_zero_arrivals_returns_minimum():
    d = modeler(min_vms=3).decide(0.0, 0.105, 100)
    assert d.instances == 3


def test_max_vms_caps_search():
    d = modeler(max_vms=50).decide(1200.0, 0.105, 10)
    assert d.instances == 50
    assert not d.meets_qos  # QoS unachievable at the quota


def test_terminates_quickly():
    m = modeler()
    for lam in (1.0, 50.0, 1200.0, 1e5):
        d = m.decide(lam, 0.105, 1)
        assert d.iterations <= 120
        assert 1 <= d.instances <= 8000


def test_rejection_tolerance_derived_from_rho_max():
    m = modeler(rho_max=0.85)
    assert m.rejection_tolerance == pytest.approx(mm1k_blocking(0.85, 2))


def test_alternative_instance_model():
    md1k = modeler(instance_model=MD1KQueue)
    mm1k = modeler()
    d_md = md1k.decide(1200.0, 0.105, 100)
    d_mm = mm1k.decide(1200.0, 0.105, 100)
    # Less pessimistic service law never needs a *larger* fleet.
    assert d_md.instances <= d_mm.instances + 1


def test_decision_trace_records_candidates():
    d = modeler().decide(800.0, 0.105, 1)
    assert d.trace[0] == 1
    assert d.trace[-1] == d.instances or d.trace[-1] != d.instances  # trace non-empty
    assert len(d.trace) == d.iterations


def test_predicted_performance_attached():
    d = modeler().decide(800.0, 0.105, 100)
    assert d.predicted.instances == d.instances
    assert d.predicted.per_instance_lambda == pytest.approx(800.0 / d.instances)


def test_validation():
    with pytest.raises(ConfigurationError):
        modeler(capacity=0)
    with pytest.raises(ConfigurationError):
        modeler(max_vms=0)
    with pytest.raises(ConfigurationError):
        modeler(rho_max=1.5)
    with pytest.raises(ConfigurationError):
        modeler().decide(-1.0, 0.1, 1)
    with pytest.raises(ConfigurationError):
        modeler().decide(1.0, 0.0, 1)


def test_scientific_operating_points():
    qos = QoSTarget(max_response_time=700.0, min_utilization=0.80)
    m = PerformanceModeler(qos=qos, capacity=2, max_vms=8000)
    peak = m.decide(0.2129, 315.0, 14)
    off = m.decide(0.0357, 315.0, 82)
    assert 78 <= peak.instances <= 85  # paper: 80
    assert 13 <= off.instances <= 15  # paper: 13
