"""Unit tests of the backend-agnostic control plane (repro.core)."""

from __future__ import annotations

import pytest

from repro.core import QoSTarget
from repro.core.controlplane import (
    ControlPlane,
    FleetActuator,
    RecordingActuator,
    alert_window_end,
    next_alert_time,
)
from repro.core.modeler import PerformanceModeler
from repro.errors import ConfigurationError
from repro.experiments import web_scenario
from repro.experiments.runner import build_context
from repro.prediction import ModelInformedPredictor
from repro.workloads import WebWorkload


# ----------------------------------------------------------------------
# FleetActuator protocol
# ----------------------------------------------------------------------
def test_recording_actuator_is_an_actuator():
    assert isinstance(RecordingActuator(), FleetActuator)


def test_application_fleet_is_an_actuator():
    ctx = build_context(web_scenario(scale=5000.0, horizon=3600.0))
    assert isinstance(ctx.fleet, FleetActuator)


def test_recording_actuator_caps_and_floors():
    act = RecordingActuator(3, max_instances=10)
    assert act.serving_count == 3
    assert act.scale_to(25) == 10
    assert act.scale_to(-5) == 0
    assert act.serving_count == 0
    with pytest.raises(ConfigurationError):
        RecordingActuator(-1)


# ----------------------------------------------------------------------
# cadence helpers
# ----------------------------------------------------------------------
class _Boundaries:
    """Predictor stub exposing fixed rate boundaries."""

    def __init__(self, *bounds):
        self._bounds = bounds

    def boundaries(self, t0, t1):
        return [b for b in self._bounds if t0 < b < t1]

    def predict(self, t0, t1):
        return 1.0


def test_next_alert_regular_cadence():
    assert next_alert_time(_Boundaries(), 0.0, 900.0, 60.0) == 900.0


def test_next_alert_pulled_in_by_boundary():
    # Boundary at 500 alerts both lead_time early and exactly on time.
    pred = _Boundaries(500.0)
    assert next_alert_time(pred, 0.0, 900.0, 60.0) == 440.0
    assert next_alert_time(pred, 440.0, 900.0, 60.0) == 500.0


def test_alert_schedule_covers_horizon():
    # Stepping from each returned time walks the shared cadence.
    plane = _plane(predictor=_Boundaries(500.0))
    times = [0.0]
    while times[-1] < 1900.0:
        times.append(plane.step(times[-1]))
    assert times == [0.0, 440.0, 500.0, 1400.0, 2300.0]
    assert [a.time for a in plane.actions] == times[:-1]


def test_alert_window_end_floor():
    assert alert_window_end(100.0, 900.0, 60.0) == 960.0
    # Degenerate window stays well-posed.
    assert alert_window_end(1000.0, 900.0, 0.0) == pytest.approx(1000.0 + 1e-9)


# ----------------------------------------------------------------------
# ControlPlane
# ----------------------------------------------------------------------
def _plane(**overrides):
    w = WebWorkload(service_jitter=0.0)
    qos = QoSTarget(max_response_time=0.250, min_utilization=0.80)
    kwargs = dict(
        modeler=PerformanceModeler(qos=qos, capacity=2, max_vms=8000),
        actuator=RecordingActuator(0),
        service_time_fn=lambda: w.mean_service_time,
        predictor=ModelInformedPredictor(w, mode="max"),
        update_interval=900.0,
        lead_time=60.0,
    )
    kwargs.update(overrides)
    return ControlPlane(**kwargs)


def test_control_plane_validates_parameters():
    with pytest.raises(ConfigurationError):
        _plane(update_interval=0.0)
    for lead_time in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            _plane(lead_time=lead_time)
    with pytest.raises(ConfigurationError):
        _plane(initial_instances=-1)


def test_step_records_trajectory_and_advances_clock():
    plane = _plane()
    nxt = plane.step(0.0)
    assert nxt == next_alert_time(plane.predictor, 0.0, 900.0, 60.0)
    after = plane.actuator.serving_count
    assert after >= 1
    assert plane.now == 0.0
    assert plane.trajectory == ((0.0, after),)
    assert plane.actions[0].before == 0
    assert plane.actions[0].service_time == pytest.approx(
        WebWorkload(service_jitter=0.0).mean_service_time
    )


def test_self_driving_needs_predictor():
    plane = _plane(predictor=None)
    with pytest.raises(ConfigurationError):
        plane.step(0.0)


def test_start_deploys_initial_fleet():
    plane = _plane(initial_instances=7)
    plane.start()
    assert plane.actuator.serving_count == 7
    # start() is bookkeeping, not a decision: no action recorded.
    assert plane.trajectory == ()


def test_shared_clock_tracks_decisions():
    plane = _plane()
    assert plane.now == 0.0
    plane.step(440.0)
    assert plane.now == 440.0
    plane.on_estimate(500.0, 1.0)
    assert plane.now == 500.0
