"""Unit tests of the M/M/c/K model."""

from __future__ import annotations

import math

import pytest

from repro.errors import QueueingModelError
from repro.queueing import MM1KQueue, MMCKQueue


def test_c1_matches_mm1k():
    for rho in (0.3, 0.8, 1.5):
        pooled = MMCKQueue(lam=rho, mu=1.0, servers=1, capacity=3)
        single = MM1KQueue(lam=rho, mu=1.0, capacity=3)
        assert pooled.blocking_probability == pytest.approx(
            single.blocking_probability, rel=1e-10
        )
        assert pooled.mean_number_in_system == pytest.approx(
            single.mean_number_in_system, rel=1e-10
        )


def test_k_equals_c_matches_erlang_b():
    # M/M/c/c loss system blocking is Erlang B, by its recurrence
    # B(0) = 1, B(n) = a·B(n−1) / (n + a·B(n−1)).
    c, a = 4, 3.0
    b = 1.0
    for n in range(1, c + 1):
        b = a * b / (n + a * b)
    q = MMCKQueue(lam=a, mu=1.0, servers=c, capacity=c)
    assert q.blocking_probability == pytest.approx(b, rel=1e-10)


@pytest.mark.parametrize("c", [1, 2, 5, 10])
@pytest.mark.parametrize("a", [0.1, 1.0, 3.0, 9.5])
def test_loss_system_matches_direct_erlang_b(c, a):
    # M/M/c/c blocking against the factorial form of Erlang B.
    direct = (a**c / math.factorial(c)) / sum(a**j / math.factorial(j) for j in range(c + 1))
    q = MMCKQueue(lam=a, mu=1.0, servers=c, capacity=c)
    assert q.blocking_probability == pytest.approx(direct, rel=1e-12)


def test_distribution_normalized():
    q = MMCKQueue(lam=20.0, mu=10.0, servers=3, capacity=9)
    total = sum(q.state_probability(n) for n in range(q.capacity + 1))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_balance_equations():
    q = MMCKQueue(lam=20.0, mu=10.0, servers=3, capacity=9)
    for n in range(q.capacity):
        lhs = q.lam * q.state_probability(n)
        rhs = min(n + 1, q.servers) * q.mu * q.state_probability(n + 1)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_large_fleet_numerically_stable():
    # The web scenario's pooled equivalent: 150 servers, k*150 slots.
    q = MMCKQueue(lam=1200.0, mu=10.0, servers=150, capacity=300)
    assert 0.0 <= q.blocking_probability < 0.05
    assert 0.0 < q.utilization <= 1.0


def test_pooled_blocking_below_split_blocking():
    # Pooling m instances with capacity k each reduces blocking versus
    # m independent M/M/1/k queues at the same total load.
    m, k, rho = 10, 2, 0.8
    split = MM1KQueue(lam=rho, mu=1.0, capacity=k)
    pooled = MMCKQueue(lam=rho * m, mu=1.0, servers=m, capacity=m * k)
    assert pooled.blocking_probability < split.blocking_probability


def test_mean_busy_servers_vs_throughput():
    q = MMCKQueue(lam=20.0, mu=10.0, servers=3, capacity=6)
    # Work conservation: E[busy] * mu = accepted throughput.
    assert q.mean_busy_servers * q.mu == pytest.approx(q.effective_arrival_rate, rel=1e-9)


def test_capacity_below_servers_rejected():
    with pytest.raises(QueueingModelError):
        MMCKQueue(lam=1.0, mu=1.0, servers=3, capacity=2)


def test_zero_arrivals():
    q = MMCKQueue(lam=0.0, mu=1.0, servers=2, capacity=4)
    assert q.state_probability(0) == 1.0
    assert q.blocking_probability == 0.0
