"""Ablation — proactive (model-informed) vs reactive predictors.

The paper positions its mechanism as *proactive* against reactive
schemes (Chieu et al., Claudia; §VI).  This ablation swaps predictors
inside the identical control plane and hits them with a 4× load spike:
the model-informed analyzer provisions *before* the spike (it sees the
boundary), while reactive predictors can only chase it and lose
requests until their next update.
"""

from __future__ import annotations

from typing import Callable

from repro.core import AdaptivePolicy, QoSTarget
from repro.experiments import run_policy
from repro.experiments.scenario import ScenarioConfig
from repro.metrics import format_table
from repro.prediction import (
    ARXPredictor,
    EWMAPredictor,
    LastValuePredictor,
    ModelInformedPredictor,
    OraclePredictor,
)
from repro.workloads import PiecewiseRateWorkload


def spike_scenario() -> ScenarioConfig:
    """Rate 5/s for 4 h, then a 4× spike to 20/s for 4 h."""
    workload = PiecewiseRateWorkload(
        [(0.0, 5.0), (4 * 3600.0, 20.0)],
        base_service_time=1.0,
        service_jitter=0.10,
        window=60.0,
    )
    return ScenarioConfig(
        name="spike",
        workload=workload,
        qos=QoSTarget(max_response_time=3.0, min_utilization=0.80),
        horizon=8 * 3600.0,
        update_interval=900.0,
        lead_time=60.0,
        rate_sample_interval=60.0,
    )


class _SpikeAwareModelPredictor(ModelInformedPredictor):
    """Model-informed predictor that also knows the spike boundary."""

    def boundaries(self, t0: float, t1: float):
        return [b for b in (4 * 3600.0,) if t0 < b < t1]


PREDICTORS: dict = {
    "model-informed": lambda ctx: _SpikeAwareModelPredictor(ctx.workload, mode="max"),
    "oracle": lambda ctx: OraclePredictor(ctx.workload, mode="max"),
    "last-value": lambda ctx: LastValuePredictor(safety_factor=1.1),
    "ewma": lambda ctx: EWMAPredictor(alpha=0.5, safety_factor=1.1),
    "arx": lambda ctx: ARXPredictor(order=2, history=64, safety_factor=1.1),
}


def run_all() -> dict:
    scenario = spike_scenario()
    results = {}
    for name, factory in PREDICTORS.items():
        policy = AdaptivePolicy(
            update_interval=900.0,
            lead_time=60.0,
            predictor_factory=factory,
            initial_instances=8,
        )
        results[name] = run_policy(scenario, policy, seed=0)
    return results


def test_predictor_ablation(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    headers = ["predictor", "rejection", "utilization", "VM hours", "max inst"]
    rows = [
        [name, r.rejection_rate, r.utilization, r.vm_hours, r.max_instances]
        for name, r in results.items()
    ]
    print()
    print(format_table(headers, rows, title="Predictor ablation under a 4x load spike"))

    # Proactive predictors absorb the spike.
    assert results["model-informed"].rejection_rate < 0.005
    assert results["oracle"].rejection_rate < 0.005

    # Reactive predictors lose requests while chasing it.
    for reactive in ("last-value", "ewma"):
        assert results[reactive].rejection_rate > results["model-informed"].rejection_rate
        assert results[reactive].rejection_rate > 0.005

    # Everyone eventually provisions a comparable peak fleet.
    peak = results["model-informed"].max_instances
    for r in results.values():
        assert r.max_instances >= 0.7 * peak
