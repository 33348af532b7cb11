"""Tests of vertical scaling (variable VM capacity)."""

from __future__ import annotations

import pytest

from repro.core import AdaptivePolicy, ControlPlane, QoSTarget, VerticalScalingPolicy
from repro.core.vertical import VerticalActuator, VerticalModeler
from repro.errors import ConfigurationError
from repro.experiments import build_context, run_policy, web_scenario

from helpers import make_env


# ----------------------------------------------------------------------
# substrate: resize mechanics
# ----------------------------------------------------------------------
def test_resize_reserves_and_releases_cores():
    env = make_env(num_hosts=1)
    env.fleet.scale_to(2)
    inst = env.fleet.active_instances[0]
    assert env.datacenter.free_cores == 6
    assert env.fleet.set_speed(inst, 4)
    assert env.datacenter.free_cores == 3
    assert env.fleet.set_speed(inst, 1)
    assert env.datacenter.free_cores == 6


def test_resize_refused_when_host_full():
    env = make_env(num_hosts=1)
    env.fleet.scale_to(8)  # 8 × 1 core = full host
    inst = env.fleet.active_instances[0]
    assert env.fleet.set_speed(inst, 2) is False
    assert inst.speed == 1.0


def test_vertical_action_reports_the_speed_reached_when_a_resize_is_refused():
    env = make_env(num_hosts=1)  # one 8-core host
    actuator = VerticalActuator(env.fleet, 3)
    modeler = VerticalModeler(
        instances=3, max_speed=8, qos=QoSTarget(max_response_time=2.0), capacity=2
    )
    plane = ControlPlane(
        modeler=modeler,
        actuator=actuator,
        service_time_fn=lambda: env.monitor.mean_service_time() * actuator.speedup(),
    )
    plane.on_estimate(env.engine.now, 10.0)  # ⌈10·1 / (0.85·3)⌉ = 4 cores each
    (action,) = plane.actions
    # The first resize fits (1 + 1 + 4 cores); the host refuses the rest.
    assert sorted(i.speed for i in env.fleet.active_instances) == [1.0, 1.0, 4.0]
    assert action.target == 4
    assert action.after == 1 < action.target
    # Round-robin: the observed T̂m is T_base·mean(1/sᵢ), so the next
    # decision corrects by the harmonic mean, not the target speed.
    assert actuator.speedup() == pytest.approx(3 / (1 / 4 + 1 + 1))
    assert plane.service_time_fn() == pytest.approx(actuator.speedup())


def test_speed_accelerates_service():
    env = make_env(capacity=4, service_time=8.0)
    env.fleet.scale_to(1)
    inst = env.fleet.active_instances[0]
    assert env.fleet.set_speed(inst, 4)
    inst.accept(0.0)
    env.engine.run(until=100.0)
    assert env.metrics.mean_response_time == pytest.approx(2.0)


def test_core_seconds_ledger_tracks_resizes():
    env = make_env(num_hosts=2)
    env.fleet.scale_to(1)
    inst = env.fleet.active_instances[0]
    env.engine.schedule_at(100.0, lambda: env.fleet.set_speed(inst, 4))
    env.engine.schedule_at(200.0, lambda: env.fleet.set_speed(inst, 2))
    env.engine.run(until=300.0)
    # 100 s × 1 + 100 s × 4 + 100 s × 2 = 700 core-seconds.
    assert env.datacenter.core_seconds(300.0) == pytest.approx(700.0)
    # vm_seconds is unchanged by resizing.
    assert env.datacenter.vm_seconds(300.0) == pytest.approx(300.0)


def test_destroyed_vm_core_ledger_closed():
    env = make_env()
    env.fleet.scale_to(1)
    inst = env.fleet.active_instances[0]
    env.fleet.set_speed(inst, 3)
    env.engine.schedule_at(50.0, lambda: env.fleet.scale_to(0))
    env.engine.run(until=200.0)
    assert env.datacenter.core_seconds(200.0) == pytest.approx(150.0)


def test_invalid_speed_rejected():
    env = make_env()
    env.fleet.scale_to(1)
    with pytest.raises(ConfigurationError):
        env.fleet.set_speed(env.fleet.active_instances[0], 0)


# ----------------------------------------------------------------------
# policy
# ----------------------------------------------------------------------
def quick_web(**kw):
    defaults = dict(scale=2000.0, horizon=12 * 3600.0)
    defaults.update(kw)
    return web_scenario(**defaults)


def test_vertical_policy_keeps_fleet_size_fixed():
    r = run_policy(quick_web(), VerticalScalingPolicy(instances=30), seed=0)
    assert r.min_instances == 30 and r.max_instances == 30
    assert r.policy == "Vertical-30"


def test_vertical_policy_meets_qos_on_rising_morning():
    r = run_policy(quick_web(), VerticalScalingPolicy(instances=30), seed=0)
    assert r.rejection_rate < 0.01
    assert r.qos_violations == 0


def test_vertical_core_hours_exceed_adaptive_vm_hours():
    # Coarser actuation granularity (n-core steps + integer speeds)
    # cannot beat one-VM-at-a-time horizontal scaling on cost.
    scenario = quick_web()
    vertical = run_policy(scenario, VerticalScalingPolicy(instances=30), seed=0)
    adaptive = run_policy(scenario, AdaptivePolicy(), seed=0)
    assert vertical.core_hours >= adaptive.core_hours * 0.95
    # Horizontal fleets never resize: core-hours == vm-hours.
    assert adaptive.core_hours == pytest.approx(adaptive.vm_hours)


def test_vertical_speed_tracks_demand():
    ctx = build_context(quick_web(), seed=0)
    VerticalScalingPolicy(instances=30).attach(ctx)
    ctx.source.start()
    ctx.engine.run(until=12 * 3600.0)
    speeds = [a.after for a in ctx.provisioner.actions]
    # Midnight trough needs fewer cores than the noon ramp.
    assert speeds[0] < speeds[-1]
    assert all(1 <= s <= 8 for s in speeds)


def test_vertical_resizes_booting_instances():
    """With a boot delay the fixed fleet is still booting at the first
    decision: the resize must reach it, so the fleet loses no more
    requests to the boot than the horizontal policy does."""
    scenario = web_scenario(scale=2000.0, horizon=12 * 3600.0).with_updates(boot_delay=600.0)
    vertical = run_policy(scenario, VerticalScalingPolicy(instances=20), seed=0)
    adaptive = run_policy(scenario, AdaptivePolicy(), seed=0)
    assert vertical.control_series[0] == (0.0, 4)
    assert 0.0 < vertical.rejection_rate <= adaptive.rejection_rate


def test_vertical_provisioner_validation():
    ctx = build_context(quick_web(), seed=0)
    with pytest.raises(ConfigurationError):
        VerticalScalingPolicy(instances=9000).attach(ctx)  # exceeds MaxVMs
