"""Property-based tests (hypothesis) of the queueing library."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queueing import MM1KQueue, MMCKQueue, mm1k_blocking

loads = st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False)
capacities = st.integers(min_value=1, max_value=64)


@given(rho=loads, K=capacities)
def test_mm1k_blocking_is_probability(rho, K):
    b = mm1k_blocking(rho, K)
    assert 0.0 <= b <= 1.0


@given(rho=loads, K=capacities)
def test_mm1k_distribution_normalized(rho, K):
    q = MM1KQueue(lam=rho, mu=1.0, capacity=K)
    total = sum(q.state_probability(n) for n in range(K + 1))
    assert math.isclose(total, 1.0, rel_tol=1e-9)


@given(rho=loads, K=capacities)
def test_mm1k_mean_number_within_bounds(rho, K):
    q = MM1KQueue(lam=rho, mu=1.0, capacity=K)
    assert 0.0 <= q.mean_number_in_system <= K + 1e-9


@given(rho=st.floats(min_value=1e-3, max_value=50.0), K=capacities)
def test_mm1k_littles_law_holds(rho, K):
    q = MM1KQueue(lam=rho, mu=1.0, capacity=K)
    lam_eff = q.effective_arrival_rate
    if lam_eff > 1e-12:
        assert math.isclose(
            q.mean_response_time, q.mean_number_in_system / lam_eff, rel_tol=1e-9
        )


@given(rho=loads, K1=capacities, K2=capacities)
def test_mm1k_blocking_monotone_in_capacity(rho, K1, K2):
    lo, hi = min(K1, K2), max(K1, K2)
    assert mm1k_blocking(rho, hi) <= mm1k_blocking(rho, lo) + 1e-12


@settings(max_examples=50)
@given(c=st.integers(min_value=1, max_value=16), extra=st.integers(min_value=0, max_value=32), a=loads)
def test_mmck_blocking_is_probability(c, extra, a):
    q = MMCKQueue(lam=a, mu=1.0, servers=c, capacity=c + extra)
    assert 0.0 <= q.blocking_probability <= 1.0
    assert 0.0 <= q.utilization <= 1.0 + 1e-12
