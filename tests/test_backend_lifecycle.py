"""Conformance of every backend to the one run lifecycle.

:meth:`repro.backends.base.ExecutionBackend.run` owns the trace bus,
the profile phases and the metrics stream for all three backends; these
tests pin that contract on each of them, including the ``finally``
path of a run that fails mid-flight, and pin the metrics registry as a
view of state the run already reports.
"""

from __future__ import annotations

import json

import pytest

from repro.backends import FluidBackend, resolve_backend
from repro.cloud.loadbalancer import RoundRobinBalancer
from repro.core import AdaptivePolicy, StaticPolicy
from repro.core.policies import default_predictor
from repro.economy import PricingModel, ProfitPolicy
from repro.errors import ConfigurationError
from repro.experiments import web_scenario
from repro.obs.bus import JsonlSink, RingBufferSink, TraceBus, TraceConfig
from repro.obs.metrics import MetricsConfig
from repro.obs.schema import load_trace
from repro.prediction.base import ArrivalRatePredictor

BACKENDS = ("des", "des-vec", "fluid")
HORIZON = 4 * 3600.0


def small_scenario():
    return web_scenario(scale=5000.0, horizon=HORIZON, track_fleet_series=False)


@pytest.fixture
def built_buses(monkeypatch):
    """Every bus a :class:`TraceConfig` builds during the test."""
    buses = []
    build = TraceConfig.build

    def recording_build(self, scenario, policy, seed):
        bus = build(self, scenario, policy, seed)
        buses.append(bus)
        return bus

    monkeypatch.setattr(TraceConfig, "build", recording_build)
    return buses


class FailsAfterThird(ArrivalRatePredictor):
    """Delegates the first three predictions, then raises."""

    name = "fails-after-third"

    def __init__(self, inner: ArrivalRatePredictor) -> None:
        self.inner = inner
        self.calls = 0

    def predict(self, t0: float, t1: float) -> float:
        self.calls += 1
        if self.calls > 3:
            raise RuntimeError("predictor failed")
        return self.inner.predict(t0, t1)


@pytest.mark.parametrize("backend", BACKENDS)
def test_owned_bus_is_closed_and_ends_in_run_end(backend, tmp_path, built_buses):
    trace = TraceConfig(sink="jsonl", path=str(tmp_path) + "/")
    resolve_backend(backend).run(small_scenario(), AdaptivePolicy(), trace=trace)
    (bus,) = built_buses
    assert bus.sink._fh.closed
    events = load_trace(bus.sink.path)
    assert events[0]["type"] == "run.start"
    assert events[-1]["type"] == "run.end"
    assert len(events) == bus.emitted


@pytest.mark.parametrize("backend", BACKENDS)
def test_callers_bus_is_left_open(backend, tmp_path):
    sink = JsonlSink(tmp_path / "trace.jsonl")
    bus = TraceBus(sink)
    resolve_backend(backend).run(small_scenario(), StaticPolicy(10), trace=bus)
    assert not sink._fh.closed
    bus.close()
    assert load_trace(sink.path)[-1]["type"] == "run.end"


@pytest.mark.parametrize("backend", BACKENDS)
def test_failed_run_closes_bus_and_publishes_partial_stream(
    backend, tmp_path, built_buses
):
    policy = AdaptivePolicy(
        predictor_factory=lambda ctx: FailsAfterThird(default_predictor(ctx))
    )
    trace = TraceConfig(sink="jsonl", path=str(tmp_path / "trace") + "/")
    metrics = MetricsConfig(path=str(tmp_path / "metrics") + "/")
    with pytest.raises(RuntimeError, match="predictor failed"):
        resolve_backend(backend).run(
            small_scenario(), policy, trace=trace, metrics=metrics
        )
    (bus,) = built_buses
    assert bus.sink._fh.closed
    types = [e["type"] for e in load_trace(bus.sink.path)]
    assert types[0] == "run.start" and "run.end" not in types
    (stream,) = (tmp_path / "metrics").iterdir()
    assert stream.suffix == ".jsonl"
    snapshots = [json.loads(line) for line in stream.read_text().splitlines()]
    assert all(s["t"] < HORIZON for s in snapshots)
    # The DES backends sample while the run advances; the fluid engine
    # samples its grid only after the whole control pass, so a failed
    # decision leaves its published stream empty.
    assert bool(snapshots) == (backend != "fluid")
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("backend", BACKENDS)
def test_profile_phases_and_trace_event_count(backend):
    bus = TraceBus(RingBufferSink(maxlen=500_000))
    result = resolve_backend(backend).run(small_scenario(), AdaptivePolicy(), trace=bus)
    assert {"build", "run", "finalize"} <= set(result.profile["phase_seconds"])
    assert result.profile["counters"]["trace_events"] == bus.emitted
    assert result.backend == backend


def test_fluid_rejects_balancer_before_building_a_trace(tmp_path, built_buses):
    trace = TraceConfig(sink="jsonl", path=str(tmp_path) + "/")
    with pytest.raises(ConfigurationError, match="load balancers"):
        FluidBackend().run(
            small_scenario(), StaticPolicy(5), balancer=RoundRobinBalancer(), trace=trace
        )
    assert built_buses == []
    assert not list(tmp_path.iterdir())


#: Instruments every metrics-enabled run reports.
BASE_METRICS = {
    "requests.arrived", "requests.accepted", "requests.rejected",
    "requests.completed", "qos.violations", "qos.response_time",
    "control.cache_hits", "control.cache_misses", "fleet.size",
}
ECONOMY_FIELDS = ("revenue", "cost", "penalty", "profit", "spot_vm_hours", "revocations")
PRICING = PricingModel(revenue_per_request=0.02, cost_per_core_hour=0.3)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "policy, priced",
    [(AdaptivePolicy, False), (lambda: StaticPolicy(20), False),
     (lambda: ProfitPolicy(pricing=PRICING), True)],
    ids=["Adaptive", "Static-20", "Profit-priced"],
)
def test_registry_is_a_view_of_the_run(backend, policy, priced):
    scenario = small_scenario()
    if priced:
        scenario = scenario.with_updates(pricing=PRICING)
    policy = policy()
    result = resolve_backend(backend).run(scenario, policy, metrics=MetricsConfig())
    reg = result.telemetry["registry"]
    value = {name: m.get("value") for name, m in reg.items()}

    expected = set(BASE_METRICS)
    controlled = not isinstance(policy, StaticPolicy)
    if controlled:
        expected |= {"control.decisions", "fleet.target"}
    if backend == "des-vec":
        expected |= {"batch.spans", "batch.flushed_requests"}
    if priced:
        expected |= {f"economy.{f}" for f in ECONOMY_FIELDS}
    assert set(reg) == expected

    assert value["requests.arrived"] == result.total_requests
    assert value["requests.completed"] == result.completed
    assert value["qos.violations"] == result.qos_violations
    if controlled:
        assert value["control.decisions"] == len(result.control_series)
        assert value["fleet.size"] == value["fleet.target"] == result.control_series[-1][1]
    else:
        assert value["fleet.size"] == policy.instances
    if backend == "des-vec":
        counters = result.profile["counters"]
        assert value["batch.spans"] == counters["spans"]
        flushed = value["batch.flushed_requests"]
        assert flushed == counters["arrivals"] + counters["completions"]
        assert flushed == result.total_requests + result.completed
    for f in ECONOMY_FIELDS if priced else ():
        assert value[f"economy.{f}"] == getattr(result, f)
    # The one live instrument observes every recorded response.
    observed = reg["qos.response_time"]["count"]
    assert observed == (0 if backend == "fluid" else result.completed)
