"""Unit tests of the M/M/1/K model — the paper's per-instance station."""

from __future__ import annotations

import math

import pytest

from repro.errors import QueueingModelError
from repro.queueing import MM1KQueue, mm1k_blocking, mm1k_mean_number


def brute_force_distribution(rho: float, K: int):
    """Unnormalized birth-death weights, normalized by direct summation."""
    weights = [rho**n for n in range(K + 1)]
    total = sum(weights)
    return [w / total for w in weights]


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.8, 0.95, 1.2, 2.0])
@pytest.mark.parametrize("K", [1, 2, 5, 10])
def test_distribution_matches_brute_force(rho, K):
    q = MM1KQueue(lam=rho, mu=1.0, capacity=K)
    expected = brute_force_distribution(rho, K)
    for n, p in enumerate(expected):
        assert q.state_probability(n) == pytest.approx(p, rel=1e-10)
    assert q.blocking_probability == pytest.approx(expected[K], rel=1e-10)


@pytest.mark.parametrize("K", [1, 2, 5])
def test_rho_equals_one_is_uniform(K):
    q = MM1KQueue(lam=3.0, mu=3.0, capacity=K)
    for n in range(K + 1):
        assert q.state_probability(n) == pytest.approx(1.0 / (K + 1))
    assert q.mean_number_in_system == pytest.approx(K / 2.0)


def test_blocking_near_rho_one_is_continuous():
    K = 3
    below = mm1k_blocking(1.0 - 1e-7, K)
    at = mm1k_blocking(1.0, K)
    above = mm1k_blocking(1.0 + 1e-7, K)
    assert below == pytest.approx(at, rel=1e-4)
    assert above == pytest.approx(at, rel=1e-4)


def test_paper_web_operating_point():
    # k = 2, rho = 0.8: blocking = 0.64*0.2/(1-0.512) = 0.262295...
    assert mm1k_blocking(0.8, 2) == pytest.approx(0.262295, abs=1e-6)


def test_mean_number_brute_force():
    rho, K = 0.7, 4
    probs = brute_force_distribution(rho, K)
    expected = sum(n * p for n, p in enumerate(probs))
    assert mm1k_mean_number(rho, K) == pytest.approx(expected, rel=1e-10)


def test_littles_law_on_accepted_traffic():
    q = MM1KQueue(lam=8.0, mu=10.0, capacity=3)
    lam_eff = q.lam * (1.0 - q.blocking_probability)
    assert q.mean_response_time == pytest.approx(q.mean_number_in_system / lam_eff)


def test_response_time_bounded_by_k_services():
    for rho in (0.3, 0.9, 1.5, 5.0):
        q = MM1KQueue(lam=rho * 10.0, mu=10.0, capacity=4)
        assert q.mean_response_time <= q.capacity / q.mu + 1e-12


def test_utilization_is_one_minus_p0():
    q = MM1KQueue(lam=8.0, mu=10.0, capacity=2)
    assert q.utilization == pytest.approx(1.0 - q.state_probability(0))


def test_blocking_monotone_in_rho():
    K = 2
    values = [mm1k_blocking(r, K) for r in (0.1, 0.3, 0.5, 0.8, 1.0, 1.5, 3.0)]
    assert values == sorted(values)
    assert all(0.0 <= v <= 1.0 for v in values)


def test_blocking_decreases_with_capacity():
    rho = 0.8
    values = [mm1k_blocking(rho, K) for K in (1, 2, 4, 8, 16)]
    assert values == sorted(values, reverse=True)


def test_overload_blocking_approaches_excess_fraction():
    # For rho >> 1, blocking → 1 - 1/rho (the carried flow saturates mu).
    assert mm1k_blocking(10.0, 5) == pytest.approx(1.0 - 1.0 / 10.0, abs=0.01)


def test_state_beyond_capacity_is_zero():
    q = MM1KQueue(lam=1.0, mu=1.0, capacity=2)
    assert q.state_probability(3) == 0.0


def test_invalid_capacity_rejected():
    with pytest.raises(QueueingModelError):
        MM1KQueue(lam=1.0, mu=1.0, capacity=0)
    with pytest.raises(QueueingModelError):
        mm1k_blocking(0.5, 2.5)  # type: ignore[arg-type]


def test_zero_arrivals_idle_queue():
    q = MM1KQueue(lam=0.0, mu=1.0, capacity=2)
    assert q.blocking_probability == 0.0
    assert q.mean_number_in_system == 0.0
    assert q.state_probability(0) == 1.0
