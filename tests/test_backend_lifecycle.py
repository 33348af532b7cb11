"""Conformance of every backend to the one run lifecycle.

:meth:`repro.backends.base.ExecutionBackend.run` owns the trace bus,
the profile phases and the metrics stream for all three backends; these
tests pin that contract on each of them, including the ``finally``
path of a run that fails mid-flight.
"""

from __future__ import annotations

import json

import pytest

from repro.backends import FluidBackend, resolve_backend
from repro.cloud.loadbalancer import RoundRobinBalancer
from repro.core import AdaptivePolicy, StaticPolicy
from repro.core.policies import default_predictor
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


class FailsAfterFirst(ArrivalRatePredictor):
    """Delegates the first prediction, then raises."""

    name = "fails-after-first"

    def __init__(self, inner: ArrivalRatePredictor) -> None:
        self.inner = inner
        self.calls = 0

    def predict(self, t0: float, t1: float) -> float:
        self.calls += 1
        if self.calls > 1:
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
        predictor_factory=lambda ctx: FailsAfterFirst(default_predictor(ctx))
    )
    trace = TraceConfig(sink="jsonl", path=str(tmp_path / "trace") + "/")
    metrics = MetricsConfig(
        interval=60.0, history=False, path=str(tmp_path / "metrics") + "/"
    )
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
