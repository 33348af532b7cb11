"""Tests of the fluid (interval-analytical) engine and its DES agreement."""

from __future__ import annotations

import pytest

from repro.core import AdaptivePolicy
from repro.errors import ConfigurationError
from repro.experiments import run_policy, scientific_scenario
from repro.sim.calendar import SECONDS_PER_DAY
from repro.sim.fluid import FluidSimulator
from repro.workloads import PoissonWorkload, ScientificWorkload, WebWorkload
from repro.core import QoSTarget


def test_static_flow_accounting_exact():
    # Constant rate 2/s, service 1 s, 4 instances, no overload.
    w = PoissonWorkload(rate=2.0, base_service_time=1.0, exponential_service=False)
    qos = QoSTarget(max_response_time=3.0)
    fluid = FluidSimulator(w, qos, dt=10.0)
    res = fluid.run_static(4, horizon=1000.0)
    assert res.total_requests == pytest.approx(2000.0)
    assert res.rejected == pytest.approx(0.0)
    assert res.vm_hours == pytest.approx(4 * 1000.0 / 3600.0)
    assert res.utilization == pytest.approx(2.0 * 1.0 / 4.0)


def test_static_overload_rejects_excess_flow():
    w = PoissonWorkload(rate=10.0, base_service_time=1.0, exponential_service=False)
    qos = QoSTarget(max_response_time=3.0)
    fluid = FluidSimulator(w, qos, dt=10.0)
    res = fluid.run_static(5, horizon=100.0)
    # Capacity 5/s against demand 10/s → half rejected.
    assert res.rejection_rate == pytest.approx(0.5, abs=0.01)
    assert res.utilization == pytest.approx(1.0, abs=0.01)


def test_adaptive_fluid_matches_des_fleet_trajectory_scientific():
    scenario = scientific_scenario()
    des = run_policy(scenario, AdaptivePolicy(update_interval=1800.0), seed=0)
    sci = ScientificWorkload()
    fluid = FluidSimulator(sci, scenario.qos)
    control = AdaptivePolicy(update_interval=1800.0).control_plane(
        sci, scenario.qos, capacity=2, max_vms=8000
    )
    res = fluid.run_adaptive(control, horizon=SECONDS_PER_DAY)
    # The control plane is identical, so extremes must agree closely
    # (DES Tm is the monitored EWMA, fluid uses the analytic mean).
    assert abs(res.min_instances - des.min_instances) <= 1
    assert abs(res.max_instances - des.max_instances) <= 3
    assert res.vm_hours == pytest.approx(des.vm_hours, rel=0.05)
    assert res.utilization == pytest.approx(des.utilization, abs=0.05)
    assert res.rejection_rate < 0.02


def test_adaptive_fluid_web_fullscale_headlines():
    # The full-paper-scale web run — infeasible for the DES, instant for
    # the fluid engine.  Check the paper's headline numbers.
    w = WebWorkload()
    qos = QoSTarget(max_response_time=0.250, min_utilization=0.80)
    fluid = FluidSimulator(w, qos, dt=60.0)
    control = AdaptivePolicy().control_plane(w, qos, capacity=2, max_vms=8000)
    res = fluid.run_adaptive(control, horizon=7 * SECONDS_PER_DAY)
    assert 48 <= res.min_instances <= 58  # paper: 55
    assert 148 <= res.max_instances <= 158  # paper: 153
    # VM hours ≈ 111 instances 24/7 (paper) → 111*168 = 18648.
    assert res.vm_hours == pytest.approx(111 * 168, rel=0.06)
    assert res.rejection_rate < 0.005
    assert res.utilization > 0.75


def test_fluid_validation():
    w = PoissonWorkload(rate=1.0, base_service_time=1.0)
    qos = QoSTarget(max_response_time=3.0)
    with pytest.raises(ConfigurationError):
        FluidSimulator(w, qos, dt=0.0)
    fluid = FluidSimulator(w, qos)
    with pytest.raises(ConfigurationError):
        fluid.run_static(0, 100.0)
