"""Fluid replications share seed-independent work (FluidBackend.run_seeds).

A fluid run reads its seed only through a Spot policy's revocation
schedule.  ``run_replications(..., backend="fluid")`` therefore runs one
control pass per call and copies results across seeds with equal
schedules.  Every result must still equal its own per-seed
``run_policy`` call.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import AdaptivePolicy, StaticPolicy
from repro.core.controlplane import ControlPlane
from repro.economy import PricingModel, ProfitPolicy, SpotPolicy
from repro.experiments import (
    PolicySpec,
    run_policy,
    run_replications,
    scientific_scenario,
    web_scenario,
)
from repro.obs.bus import TraceConfig
from repro.obs.metrics import MetricsConfig

SEEDS = (0, 1, 2, 3)
PRICING = PricingModel(
    revenue_per_request=0.002,
    cost_per_core_hour=0.1,
    sla_penalty=0.05,
    spot_mtbf=1800.0,
)
HORIZON = 6 * 3600.0


def _web():
    return web_scenario(scale=5000.0, horizon=HORIZON, pricing=PRICING)


CASES = {
    "static": (_web, PolicySpec(StaticPolicy, 20)),
    "adaptive": (_web, PolicySpec(AdaptivePolicy)),
    "profit": (_web, PolicySpec(ProfitPolicy, pricing=PRICING)),
    "spot": (_web, PolicySpec(SpotPolicy, 0.3, pricing=PRICING)),
    "scientific": (lambda: scientific_scenario(horizon=HORIZON), PolicySpec(AdaptivePolicy)),
}


def _zero_wall(result):
    return dataclasses.replace(result, wall_seconds=0.0)


@pytest.fixture
def step_calls(monkeypatch):
    """Count ``ControlPlane.step`` calls (one per alert of a control pass)."""
    calls = []
    step = ControlPlane.step

    def counting(self, now):
        calls.append(now)
        return step(self, now)

    monkeypatch.setattr(ControlPlane, "step", counting)
    return calls


@pytest.mark.parametrize("case", sorted(CASES))
def test_replications_equal_per_seed_runs(case):
    build, factory = CASES[case]
    scenario = build()
    shared = run_replications(scenario, factory, seeds=SEEDS, backend="fluid")
    alone = [run_policy(scenario, factory(), seed=s, backend="fluid") for s in SEEDS]
    assert [r.seed for r in shared] == list(SEEDS)
    assert [_zero_wall(r) for r in shared] == [_zero_wall(r) for r in alone]
    assert [r.profile["counters"] for r in shared] == [r.profile["counters"] for r in alone]
    # A copied result gets its own profile, never an alias.
    assert len({id(r.profile) for r in shared}) == len(SEEDS)


def test_spot_seeds_share_one_control_pass(step_calls):
    scenario = _web()
    factory = PolicySpec(SpotPolicy, 0.3, pricing=PRICING)
    run_policy(scenario, factory(), seed=0, backend="fluid")
    one_run = len(step_calls)
    assert one_run > 0
    del step_calls[:]
    results = run_replications(scenario, factory, seeds=SEEDS, backend="fluid")
    assert len(step_calls) == one_run
    # Each seed still folds in its own revocations.
    assert all(r.revocations > 0 for r in results)
    assert len({r.revocations for r in results}) > 1
    assert len({r.fleet_series for r in results}) == len(SEEDS)
    # ... on top of the one shared control trajectory.
    assert len({r.control_series for r in results}) == 1


def test_shared_run_ignores_workers(step_calls):
    scenario = _web()
    factory = PolicySpec(AdaptivePolicy)
    run_policy(scenario, factory(), seed=0, backend="fluid")
    one_run = len(step_calls)
    del step_calls[:]
    pooled = run_replications(scenario, factory, seeds=SEEDS, workers=2, backend="fluid")
    assert len(step_calls) == one_run
    assert [r.seed for r in pooled] == list(SEEDS)


def test_traced_and_metered_replications_match_per_seed_runs(tmp_path, step_calls):
    scenario = _web()
    factory = PolicySpec(SpotPolicy, 0.3, pricing=PRICING)
    shared = run_replications(
        scenario,
        factory,
        seeds=SEEDS,
        backend="fluid",
        trace=TraceConfig(path=f"{tmp_path}/shared/trace/"),
        metrics=MetricsConfig(path=f"{tmp_path}/shared/metrics/"),
    )
    shared_steps = len(step_calls)
    alone = [
        run_policy(
            scenario,
            factory(),
            seed=s,
            backend="fluid",
            trace=TraceConfig(path=f"{tmp_path}/alone/trace/"),
            metrics=MetricsConfig(path=f"{tmp_path}/alone/metrics/"),
        )
        for s in SEEDS
    ]
    # Traced or metered seeds each run their own control pass.
    assert shared_steps == len(step_calls) - shared_steps > 0
    assert [r.telemetry for r in shared] == [r.telemetry for r in alone]
    assert [_zero_wall(r) for r in shared] == [_zero_wall(r) for r in alone]
    for kind in ("trace", "metrics"):
        files = sorted(p.name for p in (tmp_path / "alone" / kind).iterdir())
        assert len(files) == len(SEEDS)
        for name in files:
            ours = (tmp_path / "shared" / kind / name).read_bytes()
            assert ours == (tmp_path / "alone" / kind / name).read_bytes()

