"""Cross-backend equivalence: DES and fluid run the SAME control plane.

The refactor's central claim is that the analyzer cadence, the
Algorithm-1 decision, and the actuation bookkeeping are one shared
implementation (:mod:`repro.core.controlplane`) driven by two
execution substrates.  These tests pin that claim down on a shrunk web
scenario with the service-time jitter removed: jitterless service makes
the DES monitor's EWMA estimate of ``T_m`` *exactly* the analytic mean
the fluid backend uses, so every Algorithm-1 input — predicted rate,
``T_m``, current fleet — is bit-identical across backends and the
control trajectories must match exactly, not just approximately.

Aggregates (VM hours, utilization, rejection) still differ by the
stochastic-vs-fluid gap, so they are compared within documented
tolerances: VM hours within 5 % relative, utilization within 0.05
absolute, rejection rate within 0.02 absolute.
"""

from __future__ import annotations

import pytest

from repro.core import AdaptivePolicy
from repro.experiments import run_policy, web_scenario
from repro.obs import RingBufferSink, TraceBus
from repro.workloads import WebWorkload

SCALE = 5000.0
HORIZON = 6 * 3600.0


@pytest.fixture(scope="module")
def scenario():
    # Shrunk web day with deterministic service times: the DES monitor
    # observes exactly the analytic mean service time, removing the
    # only input on which the two backends could legitimately disagree.
    base = web_scenario(scale=SCALE, horizon=HORIZON, track_fleet_series=True)
    return base.with_updates(
        workload=WebWorkload(service_jitter=0.0).scaled(SCALE)
    )


@pytest.fixture(scope="module")
def des(scenario):
    return run_policy(scenario, AdaptivePolicy(), seed=0, backend="des")


@pytest.fixture(scope="module")
def fluid(scenario):
    return run_policy(scenario, AdaptivePolicy(), seed=0, backend="fluid")


def test_backends_report_their_tag(des, fluid):
    assert des.backend == "des"
    assert fluid.backend == "fluid"


def test_control_trajectories_bit_identical(des, fluid):
    assert des.control_series, "DES adaptive run produced no actuations"
    assert des.control_series == fluid.control_series


def test_prediction_events_identical(scenario):
    # Both backends run the same ControlPlane.step, so each alert issues
    # the same prediction at the same time over the same window.
    issued = {}
    for backend in ("des", "fluid"):
        bus = TraceBus(RingBufferSink(), events=("prediction.issued",))
        run_policy(scenario, AdaptivePolicy(), seed=0, backend=backend, trace=bus)
        issued[backend] = [
            (e["t"], e["rate"], e["window_start"], e["window_end"])
            for e in bus.sink.of_type("prediction.issued")
        ]
    assert len(issued["des"]) >= 5
    assert issued["des"] == issued["fluid"]


def test_fluid_fleet_series_is_its_control_series(fluid):
    # The fluid fleet *is* the control trajectory — no boot/drain lag.
    assert fluid.fleet_series == fluid.control_series


def test_trajectory_is_nontrivial(des):
    sizes = {size for _, size in des.control_series}
    assert len(sizes) > 1, "expected the adaptive policy to actually scale"
    assert len(des.control_series) >= 5


def test_aggregates_within_documented_tolerance(des, fluid):
    assert fluid.vm_hours == pytest.approx(des.vm_hours, rel=0.05)
    assert fluid.utilization == pytest.approx(des.utilization, abs=0.05)
    assert abs(fluid.rejection_rate - des.rejection_rate) < 0.02
    assert fluid.total_requests == pytest.approx(des.total_requests, rel=0.05)


def test_single_entry_point_runs_both_backends(scenario):
    # The acceptance smoke: one run_policy call, backend selected by tag.
    for backend in ("des", "fluid"):
        res = run_policy(scenario, AdaptivePolicy(), seed=0, backend=backend)
        assert res.backend == backend
        assert res.max_instances >= res.min_instances >= 1
