"""Unit tests of fleet lifecycle mechanics (paper §IV-C).

The tests that only count run on both data planes (:func:`each_plane`):
the lifecycle is one implementation, and these pin that both fleets
reach it.  Tests that seat requests on a named instance are scalar.
"""

from __future__ import annotations

import pytest

from repro.cloud import InstanceState
from repro.errors import ConfigurationError

from helpers import make_env


def each_plane(**kwargs):
    """One wired env per data plane: ``des``, then ``des-vec``."""
    return [make_env(vectorized=vectorized, **kwargs) for vectorized in (False, True)]


def test_scale_up_creates_vms():
    for env in each_plane():
        assert env.fleet.scale_to(5) == 5
        assert env.fleet.active_count == 5
        assert env.datacenter.live_vms == 5


def test_scale_down_destroys_idle_immediately():
    for env in each_plane():
        env.fleet.scale_to(5)
        env.fleet.scale_to(2)
        assert env.fleet.live_count == 2
        assert env.datacenter.live_vms == 2


def test_scale_down_drains_busiest_last():
    env = make_env(capacity=3, service_time=100.0)
    env.fleet.scale_to(3)
    a, b, c = env.fleet.active_instances
    a.accept(0.0)
    a.accept(0.0)
    b.accept(0.0)
    # Shrink to 1: c is idle (killed), b has fewer in progress than a →
    # b drains; a survives as the serving instance.
    env.fleet.scale_to(1)
    assert env.fleet.active_instances == [a]
    assert b.state is InstanceState.DRAINING
    assert c.state is InstanceState.DESTROYED


def test_scale_up_revives_draining_before_creating():
    env = make_env(capacity=3, service_time=100.0)
    env.fleet.scale_to(2)
    a, b = env.fleet.active_instances
    a.accept(0.0)
    b.accept(0.0)
    env.fleet.scale_to(1)
    drained = b if b.state is InstanceState.DRAINING else a
    vms_before = env.datacenter.live_vms
    env.fleet.scale_to(2)
    assert drained.state is InstanceState.ACTIVE
    assert env.datacenter.live_vms == vms_before  # no new VM created


def test_boot_delay_defers_activation():
    for env in each_plane(boot_delay=30.0):
        env.fleet.scale_to(2)
        assert env.fleet.active_count == 0
        assert env.fleet.serving_count == 2
        env.engine.run(until=30.0)
        assert env.fleet.active_count == 2


def test_scale_down_cancels_booting_first():
    for env in each_plane(boot_delay=30.0):
        env.fleet.scale_to(2)
        env.fleet.scale_to(0)
        assert env.fleet.live_count == 0
        env.engine.run(until=60.0)  # boot events are no-ops after cancellation
        assert env.fleet.active_count == 0
        assert env.datacenter.live_vms == 0


def test_growth_capped_by_datacenter():
    for env in each_plane(num_hosts=1):  # max 8 VMs
        reached = env.fleet.scale_to(20)
        assert reached == 8
        assert env.fleet.active_count == 8


def test_dispatch_false_when_empty():
    env = make_env()
    assert env.admission.submit(0.0) is False


def test_dispatch_false_when_all_full():
    env = make_env(capacity=1)
    env.fleet.scale_to(2)
    assert env.admission.submit(0.0)
    assert env.admission.submit(0.0)
    assert env.admission.submit(0.0) is False


def test_fleet_size_metrics_recorded():
    for env in each_plane(track_fleet_series=True):
        env.fleet.scale_to(4)
        env.fleet.scale_to(1)
        assert env.metrics.max_instances == 4
        assert env.metrics.min_instances == 1


def test_negative_target_rejected():
    for env in each_plane():
        with pytest.raises(ConfigurationError):
            env.fleet.scale_to(-1)


def test_vm_hours_match_lifetimes():
    for env in each_plane():
        env.fleet.scale_to(2)
        env.engine.schedule_at(3600.0, lambda: env.fleet.scale_to(1))
        env.engine.run(until=7200.0)
        # 2 VMs for 1 h, then 1 VM for 1 h → 3 VM-hours.
        assert env.datacenter.vm_hours(7200.0) == pytest.approx(3.0)


@pytest.mark.parametrize("vectorized", [False, True], ids=["des", "des-vec"])
@pytest.mark.parametrize("boot_delay", [float("nan"), float("inf"), -1.0])
def test_bad_boot_delay_rejected(vectorized, boot_delay):
    with pytest.raises(ConfigurationError, match="boot delay"):
        make_env(boot_delay=boot_delay, vectorized=vectorized)


def test_drained_instance_destroyed_after_completion():
    env = make_env(service_time=10.0)
    env.fleet.scale_to(1)
    inst = env.fleet.active_instances[0]
    inst.accept(0.0)
    env.fleet.scale_to(0)
    env.engine.run(until=100.0)
    assert inst.state is InstanceState.DESTROYED
    # Destroyed exactly when its request finished (t = 10 s).
    assert env.datacenter.vm_seconds(100.0) == pytest.approx(10.0)
