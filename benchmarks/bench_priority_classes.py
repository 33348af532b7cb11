"""Extension experiment — priority classes under resource contention.

§VII: "high-priority requests are served first in case of intense
competition for resources and limited resource availability".  An
undersized static fleet (intense competition) serves a 30/70
high/low-priority mix through the trunk-reservation admission gate.
Expected shape: with reservation, high-priority loss collapses while
low-priority absorbs the shortfall; without reservation both classes
lose equally; total throughput is essentially unchanged (reservation
redistributes loss, it does not create capacity).
"""

from __future__ import annotations

import numpy as np

from repro.cloud import WorkloadSource
from repro.cloud.priority import HIGH, LOW, PriorityAdmissionControl
from repro.core import StaticPolicy
from repro.experiments import build_context, web_scenario
from repro.metrics import format_table


def run_mix(reserved_slots: int, seed: int = 0):
    scenario = web_scenario(scale=1000.0, horizon=12 * 3600.0)
    ctx = build_context(scenario, seed=seed)
    StaticPolicy(80).attach(ctx)  # undersized: noon needs ~128
    pac = PriorityAdmissionControl(
        ctx.fleet, ctx.monitor, reserved_slots=reserved_slots
    )
    rng = ctx.streams.get("priority.classes")

    class _PriorityFrontDoor:
        def submit(self, arrival_time: float) -> bool:
            klass = HIGH if rng.random() < 0.3 else LOW
            return pac.submit(arrival_time, klass)

    # Route the arrivals through the priority gate with a 30 % HIGH mix.
    # A source's front door is fixed at construction, so build one and
    # start it instead of the context's: an engine takes one stream.
    source = WorkloadSource(
        engine=ctx.engine,
        workload=scenario.workload,
        rng=ctx.streams.get("arrivals"),
        admission=_PriorityFrontDoor(),
        horizon=scenario.horizon,
    )
    source.start()
    ctx.engine.run(until=scenario.horizon)
    return pac, ctx.metrics


def test_priority_reservation(benchmark):
    def run_both():
        return {
            "no reservation": run_mix(0),
            "reserve 40 slots": run_mix(40),
        }

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    headers = ["policy", "high rejection", "low rejection", "overall rejection"]
    rows = []
    for name, (pac, metrics) in results.items():
        rows.append(
            [
                name,
                pac.per_class[HIGH].rejection_rate,
                pac.per_class[LOW].rejection_rate,
                metrics.rejection_rate,
            ]
        )
    print()
    print(format_table(headers, rows, title="Priority classes on an undersized fleet"))

    flat_pac, flat_metrics = results["no reservation"]
    resv_pac, resv_metrics = results["reserve 40 slots"]

    # Without reservation the classes are indistinguishable.
    assert flat_pac.per_class[HIGH].rejection_rate == pytest_approx(
        flat_pac.per_class[LOW].rejection_rate, rel=0.25
    )

    # With reservation, high-priority loss collapses.
    assert resv_pac.per_class[HIGH].rejection_rate < 0.02
    assert (
        resv_pac.per_class[LOW].rejection_rate
        > 3 * resv_pac.per_class[HIGH].rejection_rate
    )

    # Reservation redistributes loss, it does not create capacity.
    assert abs(resv_metrics.rejection_rate - flat_metrics.rejection_rate) < 0.08


def pytest_approx(value, rel):
    import pytest

    return pytest.approx(value, rel=rel)
