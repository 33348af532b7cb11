"""Tests of deviation-triggered corrective alerts (monitoring feedback)."""

from __future__ import annotations

import pytest

from repro.core import AdaptivePolicy, QoSTarget
from repro.errors import ConfigurationError
from repro.experiments import build_context, run_policy, web_scenario
from repro.obs import RingBufferSink, TraceBus, TraceConfig
from repro.experiments.scenario import ScenarioConfig
from repro.prediction import ArrivalRatePredictor
from repro.workloads import PiecewiseRateWorkload


class WrongConstantPredictor(ArrivalRatePredictor):
    """Deliberately blind: always predicts the pre-spike rate."""

    name = "wrong-constant"

    def __init__(self, rate: float):
        self.rate = rate

    def predict(self, t0, t1):
        return self.rate


def surprise_scenario(**overrides) -> ScenarioConfig:
    # 5 req/s, then an *unannounced* 4x spike the predictor never sees.
    workload = PiecewiseRateWorkload(
        [(0.0, 5.0), (2 * 3600.0, 20.0)],
        base_service_time=1.0,
        service_jitter=0.10,
        window=60.0,
    )
    defaults = dict(
        name="surprise-spike",
        workload=workload,
        qos=QoSTarget(max_response_time=3.5, min_utilization=0.80),
        horizon=4 * 3600.0,
        update_interval=900.0,
        lead_time=60.0,
        rate_sample_interval=60.0,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def adaptive(deviation):
    return AdaptivePolicy(
        update_interval=900.0,
        predictor_factory=lambda ctx: WrongConstantPredictor(5.0),
        initial_instances=8,
        deviation_threshold=deviation,
    )


def test_blind_predictor_without_feedback_rejects_heavily():
    r = run_policy(surprise_scenario(), adaptive(None), seed=0)
    # Fleet sized for 5 req/s faces 20 req/s for two hours.
    assert r.rejection_rate > 0.3


def test_deviation_feedback_rescues_blind_predictor():
    blind = run_policy(surprise_scenario(), adaptive(None), seed=0)
    corrected = run_policy(surprise_scenario(), adaptive(0.3), seed=0)
    assert corrected.rejection_rate < 0.05
    assert corrected.rejection_rate < blind.rejection_rate / 5
    assert corrected.max_instances > blind.max_instances


def test_corrections_fire_only_after_the_spike():
    ctx = build_context(surprise_scenario(), seed=0)
    adaptive(0.3).attach(ctx)
    ctx.source.start()
    ctx.engine.run(until=4 * 3600.0)
    corrections = ctx.analyzer.corrections
    assert corrections, "the spike must trigger at least one correction"
    # First correction lands within two sample intervals of the spike.
    assert 2 * 3600.0 <= corrections[0] <= 2 * 3600.0 + 121.0
    # No corrections during the correctly-predicted first two hours.
    assert all(t >= 2 * 3600.0 for t in corrections)


def test_no_spurious_corrections_when_prediction_is_right():
    scenario = surprise_scenario(
        workload=PiecewiseRateWorkload(
            [(0.0, 5.0)], base_service_time=1.0, service_jitter=0.10, window=60.0
        ),
        name="steady",
    )
    ctx = build_context(scenario, seed=0)
    adaptive(0.5).attach(ctx)
    ctx.source.start()
    ctx.engine.run(until=scenario.horizon)
    assert ctx.analyzer.corrections == []


def test_downward_deviation_releases_capacity():
    # Predictor stuck HIGH on a low workload: the corrective alert
    # shrinks the fleet toward the observed demand.
    scenario = surprise_scenario(
        workload=PiecewiseRateWorkload(
            [(0.0, 5.0)], base_service_time=1.0, service_jitter=0.10, window=60.0
        ),
        name="overestimated",
        horizon=2 * 3600.0,
    )
    stuck_high = AdaptivePolicy(
        update_interval=7200.0,  # the cadence alone would never correct
        predictor_factory=lambda ctx: WrongConstantPredictor(40.0),
        initial_instances=8,
        deviation_threshold=0.5,
    )
    r = run_policy(scenario, stuck_high, seed=0)
    # Without correction the fleet would sit at ~50 for two hours
    # (100 VM-hours); the downward corrections release most of it.
    assert r.vm_hours < 60.0
    assert r.rejection_rate < 0.05


def test_deviation_requires_rate_sampling():
    # A deviation watch needs a monitor that samples the arrival rate.
    with pytest.raises(ConfigurationError, match="rate sampling"):
        adaptive(0.3).validate(surprise_scenario(rate_sample_interval=None))
    adaptive(0.3).validate(surprise_scenario())
    adaptive(None).validate(surprise_scenario(rate_sample_interval=None))


@pytest.mark.parametrize("backend", ["des", "des-vec"])
def test_deviation_without_rate_sampling_fails_before_any_trace_event(backend, tmp_path):
    web = web_scenario(scale=2000.0, horizon=3600.0)
    bus = TraceBus(RingBufferSink())
    with pytest.raises(ConfigurationError, match="rate sampling"):
        run_policy(web, AdaptivePolicy(deviation_threshold=0.3), backend=backend, trace=bus)
    assert len(bus.sink) == 0
    path = tmp_path / "trace.jsonl"
    with pytest.raises(ConfigurationError, match="rate sampling"):
        run_policy(
            web,
            AdaptivePolicy(deviation_threshold=0.3),
            backend=backend,
            trace=TraceConfig(sink="jsonl", path=str(path)),
        )
    assert list(tmp_path.iterdir()) == []


def test_deviation_validation():
    ctx = build_context(surprise_scenario(), seed=0)
    with pytest.raises(ConfigurationError):
        AdaptivePolicy(
            deviation_threshold=-0.1,
            predictor_factory=lambda c: WrongConstantPredictor(5.0),
        ).attach(ctx)


@pytest.mark.parametrize("backend", ["des", "des-vec"])
def test_rate_sampling_alone_observes_real_arrivals(backend):
    # Rate sampling counts arrivals by itself: a deviation watch sees the
    # real rate, not 0 req/s, and so leaves the predicted fleet alone.
    web = web_scenario(scale=2000.0, horizon=6 * 3600.0, rate_sample_interval=60.0)
    r = run_policy(web, AdaptivePolicy(deviation_threshold=0.3), seed=0, backend=backend)
    assert r.rejection_rate < 0.01


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(rho_max=0.0),
        dict(rho_max=1.5),
        dict(min_instances=0),
        dict(max_instances=0),
        dict(initial_instances=-1),
        dict(deviation_threshold=-1.0),
        dict(deviation_safety=0.0),
    ],
)
def test_bad_adaptive_input_fails_at_construction(kwargs):
    with pytest.raises(ConfigurationError):
        AdaptivePolicy(**kwargs)


def test_fluid_rejects_deviation_watch_before_any_trace_event():
    policy = AdaptivePolicy(deviation_threshold=0.3)
    assert policy.backends == {"des", "des-vec"}
    bus = TraceBus(RingBufferSink())
    with pytest.raises(ConfigurationError):
        run_policy(surprise_scenario(), policy, backend="fluid", trace=bus)
    assert len(bus.sink) == 0
