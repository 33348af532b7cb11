"""Robustness experiment — deviation feedback vs a blind predictor.

§I motivates the mechanism with "estimation error": operators
mis-estimate their needs.  Here the analyzer's predictor is *maximally
wrong* — it predicts the pre-spike rate forever — and an unannounced 4×
spike arrives.  Without feedback the deployment drowns; with
deviation-triggered corrective alerts (watching the monitored arrival
rate) the analyzer overrides the predictor within two monitoring
samples and QoS survives.
"""

from __future__ import annotations

from repro.core import AdaptivePolicy, QoSTarget
from repro.experiments import run_policy
from repro.experiments.scenario import ScenarioConfig
from repro.metrics import format_table
from repro.prediction import ArrivalRatePredictor
from repro.workloads import PiecewiseRateWorkload


class BlindPredictor(ArrivalRatePredictor):
    name = "blind"

    def predict(self, t0, t1):
        return 5.0  # never learns about the spike


def scenario() -> ScenarioConfig:
    workload = PiecewiseRateWorkload(
        [(0.0, 5.0), (2 * 3600.0, 20.0)],
        base_service_time=1.0,
        service_jitter=0.10,
        window=60.0,
    )
    return ScenarioConfig(
        name="surprise-spike",
        workload=workload,
        qos=QoSTarget(max_response_time=3.5, min_utilization=0.80),
        horizon=6 * 3600.0,
        update_interval=900.0,
        lead_time=60.0,
        rate_sample_interval=60.0,
    )


def run_both() -> dict:
    results = {}
    for label, threshold in (("blind predictor", None), ("with deviation feedback", 0.3)):
        policy = AdaptivePolicy(
            update_interval=900.0,
            predictor_factory=lambda ctx: BlindPredictor(),
            initial_instances=8,
            deviation_threshold=threshold,
        )
        results[label] = run_policy(scenario(), policy, seed=0)
    return results


def test_deviation_feedback(benchmark):
    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    headers = ["analyzer", "rejection", "max inst", "VM hours", "violations"]
    rows = [
        [n, r.rejection_rate, r.max_instances, r.vm_hours, r.qos_violations]
        for n, r in results.items()
    ]
    print()
    print(format_table(headers, rows, title="Unannounced 4x spike vs a blind predictor"))

    blind = results["blind predictor"]
    corrected = results["with deviation feedback"]
    assert blind.rejection_rate > 0.3
    assert corrected.rejection_rate < 0.02
    assert corrected.max_instances > 2.5 * blind.max_instances
    assert corrected.qos_violations == 0
