"""Unit tests of the M/D/1/K approximation and the Figure-2 network."""

from __future__ import annotations

import pytest

from repro.errors import QueueingModelError
from repro.queueing import (
    MD1KQueue,
    MM1KQueue,
    NetworkPerformance,
    ProvisioningNetwork,
    mm1k_blocking,
)


# ----------------------------------------------------------------------
# M/D/1/K approximation
# ----------------------------------------------------------------------
def test_md1k_blocking_below_mm1k_at_moderate_load():
    for rho in (0.4, 0.7, 0.9):
        approx = MD1KQueue(lam=rho, mu=1.0, capacity=2)
        assert approx.blocking_probability < mm1k_blocking(rho, 2)


def test_md1k_overload_blocking_matches_flow_excess():
    q = MD1KQueue(lam=2.0, mu=1.0, capacity=2)
    assert q.blocking_probability >= 1.0 - 1.0 / 2.0


@pytest.mark.parametrize("k", [2, 3])
def test_md1k_response_time_rises_with_load_below_mm1k(k):
    # Less service variance can only shorten the wait, and more load can
    # only lengthen it: over ρ ∈ [0.1, 1.2] the mean response time never
    # falls and never exceeds M/M/1/K's.
    times = []
    for step in range(10, 121):
        rho = step / 100
        approx = MD1KQueue(lam=rho, mu=1.0, capacity=k).mean_response_time
        assert approx <= MM1KQueue(lam=rho, mu=1.0, capacity=k).mean_response_time, rho
        times.append(approx)
    assert all(b >= a for a, b in zip(times, times[1:]))


def test_md1k_no_distribution():
    q = MD1KQueue(lam=0.5, mu=1.0, capacity=2)
    with pytest.raises(QueueingModelError):
        q.state_probability(0)


# ----------------------------------------------------------------------
# Figure-2 provisioning network
# ----------------------------------------------------------------------
def test_network_even_split():
    net = ProvisioningNetwork(service_time=0.1, capacity=2)
    perf = net.evaluate(arrival_rate=1200.0, instances=150)
    assert perf.per_instance_lambda == pytest.approx(8.0)
    assert perf.rho == pytest.approx(0.8)
    station = MM1KQueue(lam=8.0, mu=10.0, capacity=2)
    assert perf.blocking_probability == pytest.approx(station.blocking_probability)
    assert perf.response_time == pytest.approx(station.mean_response_time)
    assert perf.throughput == pytest.approx(1200.0 * (1 - station.blocking_probability))


def test_network_more_instances_less_blocking():
    net = ProvisioningNetwork(service_time=0.1, capacity=2)
    blocks = [net.evaluate(1000.0, m).blocking_probability for m in (50, 100, 150, 200)]
    assert blocks == sorted(blocks, reverse=True)


def test_network_custom_instance_model():
    net = ProvisioningNetwork(service_time=0.1, capacity=2, instance_model=MD1KQueue)
    perf = net.evaluate(1000.0, 120)
    mm = ProvisioningNetwork(service_time=0.1, capacity=2).evaluate(1000.0, 120)
    assert perf.blocking_probability < mm.blocking_probability


def test_network_input_validation():
    net = ProvisioningNetwork(service_time=0.1, capacity=2)
    with pytest.raises(QueueingModelError):
        net.evaluate(100.0, 0)
    with pytest.raises(QueueingModelError):
        net.evaluate(-1.0, 10)
    with pytest.raises(QueueingModelError):
        ProvisioningNetwork(service_time=0.0, capacity=2)


def test_network_performance_is_frozen():
    perf = ProvisioningNetwork(service_time=0.1, capacity=2).evaluate(10.0, 2)
    assert isinstance(perf, NetworkPerformance)
    with pytest.raises(AttributeError):
        perf.instances = 5  # type: ignore[misc]
