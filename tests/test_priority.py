"""Tests of priority-aware (trunk-reservation) admission."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud import Monitor, WorkloadSource
from repro.cloud.priority import HIGH, LOW, PriorityAdmissionControl
from repro.core import StaticPolicy
from repro.errors import ConfigurationError
from repro.experiments import build_context, web_scenario

from helpers import make_env


def make_priority_env(instances=2, capacity=2, reserved=0, service_time=100.0):
    env = make_env(capacity=capacity, service_time=service_time)
    env.fleet.scale_to(instances)
    pac = PriorityAdmissionControl(
        env.fleet, env.monitor, reserved_slots=reserved
    )
    return env, pac


def test_zero_reservation_equals_plain_admission():
    env, pac = make_priority_env(instances=1, capacity=2)
    assert pac.submit(0.0, LOW)
    assert pac.submit(0.0, LOW)
    assert not pac.submit(0.0, LOW)  # queue-length gate
    assert pac.per_class[LOW].accepted == 2
    assert pac.per_class[LOW].rejected == 1


def test_reservation_holds_slots_for_high_priority():
    env, pac = make_priority_env(instances=2, capacity=2, reserved=2)
    # 4 slots total; low-priority may use slots while > 2 remain free.
    assert pac.submit(0.0, LOW)
    assert pac.submit(0.0, LOW)
    assert not pac.submit(0.0, LOW)  # 2 free <= 2 reserved
    # High priority still gets the reserved slots.
    assert pac.submit(0.0, HIGH)
    assert pac.submit(0.0, HIGH)
    assert not pac.submit(0.0, HIGH)  # now genuinely full
    assert pac.per_class[LOW].rejection_rate == pytest.approx(1 / 3)
    assert pac.per_class[HIGH].rejection_rate == pytest.approx(1 / 3)


def test_rate_sampling_counts_every_class_of_arrival():
    # Reserved-out, gate-rejected and admitted requests are all arrivals.
    env = make_env(capacity=2, service_time=100.0)
    env.fleet.scale_to(1)
    monitor = Monitor(env.engine, env.metrics, default_service_time=100.0, rate_sample_interval=60.0)
    pac = PriorityAdmissionControl(env.fleet, monitor, reserved_slots=1)
    outcomes = [pac.submit(0.0, klass) for klass in (LOW, LOW, HIGH, HIGH)]
    assert outcomes == [True, False, True, False]
    assert monitor._arrivals_in_window == 4


def test_custom_privileged_class_is_the_only_one_exempt():
    """With ``privileged=("gold",)`` every other class, ``HIGH``
    included, faces the reservation; gold alone may take the reserved
    slots."""
    env = make_env(capacity=2, service_time=100.0)
    env.fleet.scale_to(2)
    pac = PriorityAdmissionControl(
        env.fleet, env.monitor, reserved_slots=2, privileged=("gold",)
    )
    assert pac.submit(0.0, "bronze")
    assert pac.submit(0.0, "bronze")
    assert not pac.submit(0.0, "bronze")  # 2 free <= 2 reserved
    assert not pac.submit(0.0, HIGH)  # HIGH is no longer privileged
    assert pac.submit(0.0, "gold")
    assert pac.submit(0.0, "gold")
    assert not pac.submit(0.0, "gold")  # now genuinely full
    assert (pac.per_class["gold"].accepted, pac.per_class["gold"].rejected) == (2, 1)
    assert (pac.per_class["bronze"].accepted, pac.per_class["bronze"].rejected) == (2, 1)
    assert (pac.per_class[HIGH].accepted, pac.per_class[HIGH].rejected) == (0, 1)
    assert env.metrics.accepted == 4
    assert env.metrics.rejected == 3


def test_free_slots_accounting():
    env, pac = make_priority_env(instances=3, capacity=2)
    assert pac.free_slots() == 6
    pac.submit(0.0, HIGH)
    assert pac.free_slots() == 5


@pytest.mark.parametrize("reserved", range(7))
def test_low_priority_gate_matches_free_slots_at_every_fill(reserved):
    """The gate stops summing early, but decides as ``free_slots() >
    reserved_slots`` would at every fleet fill level."""
    for fill in range(7):
        env, pac = make_priority_env(instances=3, capacity=2, reserved=reserved)
        for _ in range(fill):
            pac.submit(0.0, HIGH)
        expected = pac.free_slots() > reserved
        assert pac.submit(0.0, LOW) is expected, (fill, reserved)


def test_global_metrics_still_recorded():
    env, pac = make_priority_env(instances=1, capacity=1, reserved=0)
    pac.submit(0.0, LOW)
    pac.submit(0.0, LOW)
    assert env.metrics.accepted == 1
    assert env.metrics.rejected == 1


def test_validation():
    env = make_env()
    with pytest.raises(ConfigurationError):
        PriorityAdmissionControl(env.fleet, env.monitor, reserved_slots=-1)


def test_differentiated_loss_under_contention():
    """Under sustained overload, high-priority loss << low-priority loss."""
    env, pac = make_priority_env(instances=4, capacity=2, reserved=3, service_time=1.0)
    rng = np.random.default_rng(0)
    engine = env.engine

    counts = {"offered": 0}

    def arrival():
        klass = HIGH if rng.random() < 0.3 else LOW
        pac.submit(engine.now, klass)
        counts["offered"] += 1
        # Offered load ~2x capacity (8 slots, service 1 s, 16 req/s).
        engine.schedule(float(rng.exponential(1 / 16.0)), arrival)

    engine.schedule(0.0, arrival)
    engine.run(until=2000.0)

    high = pac.per_class[HIGH]
    low = pac.per_class[LOW]
    assert high.total > 1000 and low.total > 1000
    assert high.rejection_rate < 0.5 * low.rejection_rate
    assert low.rejection_rate > 0.5  # overload really bites the low class


def test_rebuilt_source_routes_every_arrival_through_the_priority_gate():
    """Regression: the priority benchmark and the SLA example rewired the
    front door by writing ``ctx.source._admission``, which the source
    never reads (its arrival stream keeps the gate it was built with),
    so no class ever saw an arrival.  That write now fails; a source
    built with ``admission=`` carries all the traffic."""
    scenario = web_scenario(scale=5000.0, horizon=2 * 3600.0)
    ctx = build_context(scenario, seed=0)
    StaticPolicy(2).attach(ctx)  # undersized: rejects at any hour
    pac = PriorityAdmissionControl(ctx.fleet, ctx.monitor, reserved_slots=1)
    rng = ctx.streams.get("priority.classes")

    class FrontDoor:
        def submit(self, arrival_time: float) -> bool:
            return pac.submit(arrival_time, HIGH if rng.random() < 0.3 else LOW)

    with pytest.raises(AttributeError):
        ctx.source._admission = FrontDoor()
    source = WorkloadSource(
        engine=ctx.engine,
        workload=scenario.workload,
        rng=ctx.streams.get("arrivals"),
        admission=FrontDoor(),
        horizon=scenario.horizon,
    )
    source.start()
    ctx.engine.run(until=scenario.horizon)

    m = ctx.metrics
    classes = pac.per_class.values()
    assert pac.per_class[HIGH].total > 0
    assert pac.per_class[LOW].total > 0
    assert sum(c.accepted for c in classes) == m.accepted
    assert sum(c.rejected for c in classes) == m.rejected > 0
    assert m.total_requests == source.generated
