"""Integration: the DES must reproduce the analytical queueing formulas.

With genuinely Poisson arrivals and exponential service, each
application instance is a true M/M/1/k queue, so simulated blocking and
sojourn must converge to the closed forms — this pins the entire
request path (broker → admission → balancer → instance → monitor →
metrics) against theory.  With constant service the instance is an
M/D/1/k queue, which the M/D/1/K approximation and M/M/1/K bracket.
"""

from __future__ import annotations

import pytest

from repro.cloud import WorkloadSource
from repro.queueing import MD1KQueue, MM1KQueue, MMCKQueue
from repro.workloads import PoissonWorkload

from helpers import make_env


def run_poisson_system(
    instances: int, rate: float, capacity: int, horizon: float, seed=0, exponential_service=True
):
    env = make_env(
        capacity=capacity,
        service_time=1.0,
        exponential_service=exponential_service,
        num_hosts=64,
        seed=seed,
    )
    env.fleet.scale_to(instances)
    from repro.sim import RandomStreams

    workload = PoissonWorkload(rate=rate, base_service_time=1.0, window=500.0)
    source = WorkloadSource(
        env.engine,
        workload,
        RandomStreams(seed).get("arrivals"),
        env.admission,
        horizon=horizon,
    )
    source.start()
    env.engine.run(until=horizon)
    env.metrics.finalize(env.engine.now, env.datacenter.vm_hours(env.engine.now))
    return env.metrics


def test_single_instance_matches_mm1k():
    # One instance, k=2, rho=0.7.
    metrics = run_poisson_system(instances=1, rate=0.7, capacity=2, horizon=200_000.0)
    theory = MM1KQueue(lam=0.7, mu=1.0, capacity=2)
    assert metrics.rejection_rate == pytest.approx(
        theory.blocking_probability, rel=0.05
    )
    assert metrics.mean_response_time == pytest.approx(
        theory.mean_response_time, rel=0.05
    )


def test_single_instance_overload_blocking():
    metrics = run_poisson_system(instances=1, rate=2.0, capacity=2, horizon=100_000.0)
    theory = MM1KQueue(lam=2.0, mu=1.0, capacity=2)
    assert metrics.rejection_rate == pytest.approx(theory.blocking_probability, rel=0.04)


@pytest.mark.parametrize("rho, k", [(0.5, 2), (0.7, 2), (0.85, 3)])
def test_single_instance_deterministic_service_bracketed(rho, k):
    # Constant service has less variance than exponential, so a real
    # M/D/1/k loses and delays less than M/M/1/k; the M/D/1/K
    # approximation (blocking about half of M/M/1/K's) is optimistic.
    metrics = run_poisson_system(
        instances=1, rate=rho, capacity=k, horizon=100_000.0, exponential_service=False
    )
    approx = MD1KQueue(lam=rho, mu=1.0, capacity=k)
    markov = MM1KQueue(lam=rho, mu=1.0, capacity=k)
    assert approx.blocking_probability < metrics.rejection_rate < markov.blocking_probability
    assert approx.mean_response_time < metrics.mean_response_time < markov.mean_response_time


def test_fleet_blocking_bracketed_by_pooled_and_independent_models():
    # Round-robin that skips full instances loses an arrival only when
    # every slot is full (like the pooled M/M/m/mk), but a queued
    # request stays bound to its instance even if another goes idle —
    # so its blocking lies strictly between the pooled lower bound and
    # the independent-M/M/1/k upper bound the paper's modeler uses.
    m, k, rho = 4, 2, 0.85
    metrics = run_poisson_system(
        instances=m, rate=rho * m, capacity=k, horizon=100_000.0
    )
    pooled = MMCKQueue(lam=rho * m, mu=1.0, servers=m, capacity=m * k)
    independent = MM1KQueue(lam=rho, mu=1.0, capacity=k)
    assert pooled.blocking_probability - 0.005 < metrics.rejection_rate
    assert metrics.rejection_rate < independent.blocking_probability + 0.005


def test_utilization_matches_carried_load():
    m, rate = 3, 1.8
    metrics = run_poisson_system(instances=m, rate=rate, capacity=2, horizon=100_000.0)
    carried = rate * (1 - metrics.rejection_rate) / m
    assert metrics.utilization == pytest.approx(carried, rel=0.03)


def test_littles_law_in_des():
    metrics = run_poisson_system(instances=2, rate=1.2, capacity=3, horizon=100_000.0)
    # L = lambda_eff * W, where L is inferred from busy time + waiting:
    # here check throughput consistency instead: completed ≈ accepted.
    assert metrics.completed == pytest.approx(metrics.accepted, rel=0.001)
    lam_eff = metrics.completed / metrics.horizon
    expected_rate = 1.2 * (1 - metrics.rejection_rate)
    assert lam_eff == pytest.approx(expected_rate, rel=0.02)
