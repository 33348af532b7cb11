"""Tests of heterogeneous (mixed VM class) provisioning."""

from __future__ import annotations

import pytest

from repro.cloud import InstanceState, VMSpec
from repro.core import MixedFleetPolicy
from repro.core.mixed import MixedFleetActuator
from repro.errors import ConfigurationError
from repro.experiments import build_context, run_policy, web_scenario

from helpers import make_env


LARGE = VMSpec(cores=4, ram_mb=8192, name="large")


# ----------------------------------------------------------------------
# fleet substrate
# ----------------------------------------------------------------------
def test_grow_with_spec_places_large_vm():
    env = make_env(num_hosts=2)
    inst = env.fleet.grow_with_spec(LARGE)
    assert inst is not None
    assert inst.vm.allocated_cores == 4
    assert env.datacenter.free_cores == 12


def test_grow_with_spec_none_when_full():
    env = make_env(num_hosts=1)
    env.fleet.scale_to(8)
    assert env.fleet.grow_with_spec(LARGE) is None


def test_scale_down_specific_instance_idle():
    env = make_env()
    env.fleet.scale_to(3)
    victim = env.fleet.active_instances[1]
    env.fleet.scale_down_instance(victim)
    assert victim.state is InstanceState.DESTROYED
    assert env.fleet.active_count == 2


def test_scale_down_specific_instance_busy_drains():
    env = make_env(service_time=50.0)
    env.fleet.scale_to(2)
    victim = env.fleet.active_instances[0]
    victim.accept(0.0)
    env.fleet.scale_down_instance(victim)
    assert victim.state is InstanceState.DRAINING
    env.engine.run(until=100.0)
    assert victim.state is InstanceState.DESTROYED


def test_large_instance_serves_faster_with_larger_queue():
    env = make_env(capacity=2, service_time=8.0)
    inst = env.fleet.grow_with_spec(LARGE)
    inst.speed = 4.0
    inst.capacity = env.fleet.capacity * 4
    for _ in range(8):  # k·c = 8 requests fit
        inst.accept(0.0)
    assert inst.is_full
    env.engine.run(until=100.0)
    # 8 back-to-back services at 2 s each → mean response 9 s, max 16 s
    # — the same 8·(8/4)=16 s bound as k=2 on a small instance (k·Tr).
    assert env.metrics.completed == 8
    assert env.metrics.mean_response_time == pytest.approx(9.0)


# ----------------------------------------------------------------------
# planner
# ----------------------------------------------------------------------
def planner(**kw):
    env = make_env(num_hosts=64)
    defaults = dict(large_cores=4, large_threshold=8)
    defaults.update(kw)
    return env, MixedFleetActuator(env.fleet, **defaults)


def test_plan_small_below_threshold():
    _, prov = planner()
    assert prov.plan(1) == (0, 1)
    assert prov.plan(7) == (0, 7)


def test_plan_packs_large_above_threshold():
    _, prov = planner()
    assert prov.plan(8) == (2, 0)
    assert prov.plan(10) == (2, 2)
    assert prov.plan(129) == (32, 1)


def test_plan_zero_cores_keeps_one_small():
    _, prov = planner()
    assert prov.plan(0) == (0, 1)


def test_provisioner_validation():
    with pytest.raises(ConfigurationError):
        planner(large_cores=1)
    with pytest.raises(ConfigurationError):
        planner(large_cores=4, large_threshold=2)


# ----------------------------------------------------------------------
# end-to-end policy
# ----------------------------------------------------------------------
def test_mixed_policy_meets_qos_on_web_day():
    scenario = web_scenario(scale=1000.0, horizon=86_400.0)
    r = run_policy(scenario, MixedFleetPolicy(), seed=0)
    assert r.rejection_rate < 0.01
    assert r.qos_violations == 0
    # Core-hours comparable to the homogeneous adaptive fleet (within
    # the packing slack of 4-core granularity).
    from repro.core import AdaptivePolicy

    adaptive = run_policy(scenario, AdaptivePolicy(), seed=0)
    assert r.core_hours <= adaptive.core_hours * 1.15


def test_mixed_policy_actually_mixes_classes():
    scenario = web_scenario(scale=1000.0, horizon=8 * 3600.0)
    ctx = build_context(scenario, seed=0)
    MixedFleetPolicy().attach(ctx)
    ctx.source.start()
    ctx.engine.run(until=scenario.horizon)
    cores = sorted({inst.vm.allocated_cores for inst in ctx.fleet.active_instances})
    assert cores == [1, 4] or cores == [4]
    large = [i for i in ctx.fleet.active_instances if i.vm.allocated_cores == 4]
    assert len(large) >= 1


def test_mixed_actuator_counts_booting_instances():
    """Cores still booting count toward the target, as booting VMs do
    for the horizontal fleet: the first decision reaches the same cores
    with or without a boot delay, and the delay grows no extra VMs."""
    delayed = web_scenario(scale=2000.0, horizon=12 * 3600.0).with_updates(boot_delay=600.0)
    late = run_policy(delayed, MixedFleetPolicy(), seed=0)
    instant = run_policy(delayed.with_updates(boot_delay=0.0), MixedFleetPolicy(), seed=0)
    assert late.control_series[0] == instant.control_series[0]
    assert late.control_series[0][1] > 0
    assert late.max_instances <= instant.max_instances
