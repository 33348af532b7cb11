"""Tests of the M/M/1/K response-time distribution."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import QueueingModelError
from repro.queueing import MM1KQueue


# ----------------------------------------------------------------------
# M/M/1/K response-time distribution
# ----------------------------------------------------------------------
def test_mm1k_cdf_k1_is_exponential():
    # K=1: accepted requests always enter an empty system.
    q = MM1KQueue(lam=5.0, mu=10.0, capacity=1)
    for t in (0.01, 0.1, 0.5):
        assert q.response_time_cdf(t) == pytest.approx(1.0 - math.exp(-10.0 * t), rel=1e-9)


def test_mm1k_cdf_monotone_and_bounded():
    q = MM1KQueue(lam=8.0, mu=10.0, capacity=3)
    ts = np.linspace(0.0, 2.0, 50)
    cdf = [q.response_time_cdf(float(t)) for t in ts]
    assert all(0.0 <= c <= 1.0 for c in cdf)
    assert all(b >= a - 1e-12 for a, b in zip(cdf, cdf[1:]))
    assert q.response_time_cdf(0.0) == 0.0
    assert q.response_time_cdf(100.0) == pytest.approx(1.0, abs=1e-9)


def test_mm1k_quantile_inverts_cdf():
    q = MM1KQueue(lam=8.0, mu=10.0, capacity=3)
    for p in (0.1, 0.5, 0.9, 0.99):
        t = q.response_time_quantile(p)
        assert q.response_time_cdf(t) == pytest.approx(p, abs=1e-6)


def test_mm1k_mean_consistent_with_cdf():
    # E[T] from the distribution matches the closed-form mean response.
    q = MM1KQueue(lam=8.0, mu=10.0, capacity=2)
    ts = np.linspace(0.0, 5.0, 20_000)
    survival = np.array([1.0 - q.response_time_cdf(float(t)) for t in ts])
    mean_from_cdf = float(np.trapezoid(survival, ts)) if hasattr(np, "trapezoid") else float(np.trapz(survival, ts))
    assert mean_from_cdf == pytest.approx(q.mean_response_time, rel=1e-3)


def test_mm1k_quantile_validation():
    q = MM1KQueue(lam=1.0, mu=2.0, capacity=2)
    with pytest.raises(QueueingModelError):
        q.response_time_quantile(1.0)
    assert q.response_time_quantile(0.0) == 0.0


def test_percentile_qos_sizing_use_case():
    # "95% of accepted requests within Ts" needs a lower rho than the
    # mean-based check: the p95 sojourn exceeds the mean sojourn.
    q = MM1KQueue(lam=8.5, mu=10.0, capacity=2)
    assert q.response_time_quantile(0.95) > q.mean_response_time
    assert q.response_time_quantile(0.95) <= q.capacity / q.mu * 3  # sanity
