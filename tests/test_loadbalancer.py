"""Unit tests of the dispatch strategies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud import (
    LeastConnectionsBalancer,
    RandomBalancer,
    RoundRobinBalancer,
)

from helpers import make_env


def fleet_with(n, capacity=2, balancer=None):
    env = make_env(capacity=capacity, balancer=balancer)
    env.fleet.scale_to(n)
    return env


def test_round_robin_cycles():
    env = fleet_with(3)
    ids = []
    for _ in range(6):
        lb = env.fleet.balancer
        inst = lb.select(env.fleet.active_instances)
        ids.append(inst.instance_id)
        inst.accept(0.0)
    assert ids == [0, 1, 2, 0, 1, 2]


def test_round_robin_skips_full_instances():
    env = fleet_with(3, capacity=1)
    active = env.fleet.active_instances
    active[0].accept(0.0)  # fill instance 0
    lb = RoundRobinBalancer()
    picked = lb.select(active)
    assert picked.instance_id == 1


def test_round_robin_none_when_all_full():
    env = fleet_with(2, capacity=1)
    for inst in env.fleet.active_instances:
        inst.accept(0.0)
    assert RoundRobinBalancer().select(env.fleet.active_instances) is None


def test_round_robin_empty_list():
    assert RoundRobinBalancer().select([]) is None


def test_round_robin_membership_change_resets_pointer():
    lb = RoundRobinBalancer()
    lb._next = 5
    lb.notify_membership_change(3)
    assert lb._next == 2
    lb.notify_membership_change(0)
    assert lb._next == 0


def test_least_connections_picks_min_occupancy():
    env = fleet_with(3, capacity=3)
    active = env.fleet.active_instances
    active[0].accept(0.0)
    active[0].accept(0.0)
    active[1].accept(0.0)
    picked = LeastConnectionsBalancer().select(active)
    assert picked.instance_id == 2


def test_least_connections_skips_full():
    env = fleet_with(2, capacity=1)
    active = env.fleet.active_instances
    active[0].accept(0.0)
    picked = LeastConnectionsBalancer().select(active)
    assert picked.instance_id == 1
    active[1].accept(0.0)
    assert LeastConnectionsBalancer().select(active) is None


def test_random_balancer_only_non_full():
    env = fleet_with(3, capacity=1)
    active = env.fleet.active_instances
    active[1].accept(0.0)
    rng = np.random.default_rng(0)
    lb = RandomBalancer(rng)
    picks = {lb.select(active).instance_id for _ in range(50)}
    assert picks <= {0, 2}
    assert len(picks) == 2


def test_random_balancer_none_when_all_full():
    env = fleet_with(2, capacity=1)
    for inst in env.fleet.active_instances:
        inst.accept(0.0)
    assert RandomBalancer(np.random.default_rng(0)).select(env.fleet.active_instances) is None


def test_balancers_spread_load_evenly_under_symmetric_traffic():
    for balancer in (RoundRobinBalancer(), LeastConnectionsBalancer()):
        env = make_env(capacity=4, balancer=balancer, service_time=10.0)
        env.fleet.scale_to(4)
        for _ in range(8):
            assert env.admission.submit(0.0)
        occ = [inst.occupancy for inst in env.fleet.active_instances]
        assert occ == [2, 2, 2, 2]
