"""Tests of the execution-backend layer (repro.backends)."""

from __future__ import annotations

import pytest

from repro.backends import (
    DESBackend,
    FluidBackend,
    RunMetrics,
    resolve_backend,
)
from repro.cloud.loadbalancer import RoundRobinBalancer
from repro.core import AdaptivePolicy, StaticPolicy
from repro.core.vertical import VerticalScalingPolicy
from repro.economy import PricingModel, ProfitPolicy, SpotPolicy
from repro.errors import ConfigurationError
from repro.experiments import (
    run_policy,
    run_replications,
    scientific_scenario,
    web_scenario,
)
from repro.obs.bus import RingBufferSink, TraceBus, TraceConfig
from repro.obs.metrics import MetricsConfig
from repro.obs.audit import DecisionAuditLog
from repro.obs.schema import load_trace, validate_event, validate_trace


# ----------------------------------------------------------------------
# resolve_backend
# ----------------------------------------------------------------------
def test_resolve_backend_specs():
    assert isinstance(resolve_backend(None), DESBackend)
    assert isinstance(resolve_backend("des"), DESBackend)
    assert isinstance(resolve_backend("fluid"), FluidBackend)


def test_resolve_backend_passes_instances_through():
    backend = FluidBackend(dt=30.0)
    assert resolve_backend(backend) is backend


def test_resolve_backend_rejects_unknown_spec():
    with pytest.raises(ConfigurationError):
        resolve_backend("quantum")
    with pytest.raises(ConfigurationError):
        resolve_backend(42)


# ----------------------------------------------------------------------
# RunMetrics
# ----------------------------------------------------------------------
def _metrics(**overrides) -> RunMetrics:
    base = dict(
        scenario="s",
        policy="p",
        seed=0,
        total_requests=10.0,
        accepted=10.0,
        completed=10.0,
        rejected=0.0,
        rejection_rate=0.0,
        mean_response_time=1.0,
        response_time_std=0.0,
        qos_violations=0,
        min_instances=1,
        max_instances=2,
        vm_hours=1.0,
        core_hours=8.0,
        failures=0,
        lost_requests=0,
        utilization=0.5,
        wall_seconds=0.1,
        events=100,
    )
    base.update(overrides)
    return RunMetrics(**base)


def test_runmetrics_defaults():
    m = _metrics()
    assert m.backend == "des"
    assert m.control_series == ()
    assert m.cache_hits == 0 and m.cache_misses == 0
    assert m.profile == {}


def test_runmetrics_profile_excluded_from_equality():
    assert _metrics(profile={"a": 1}) == _metrics(profile={"b": 2})
    assert _metrics(backend="des") != _metrics(backend="fluid")


# ----------------------------------------------------------------------
# fluid backend behaviour
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sci_fluid():
    return run_policy(
        scientific_scenario(), AdaptivePolicy(update_interval=1800.0), backend="fluid"
    )


def test_fluid_adaptive_warm_cache_counters(sci_fluid):
    # The scientific day revisits the same (rate, T_m, fleet) operating
    # points, so a warmed Algorithm-1 decision cache must show hits —
    # the fluid path reports the same hot-path diagnostics as the DES.
    assert sci_fluid.cache_misses > 0
    assert sci_fluid.cache_hits > 0


def test_fluid_reports_run_diagnostics(sci_fluid):
    assert sci_fluid.wall_seconds > 0.0
    assert sci_fluid.events > 0  # integration intervals
    phases = sci_fluid.profile.get("phase_seconds", {})
    assert {"build", "run", "finalize"} <= set(phases)
    assert sci_fluid.profile.get("counters", {}).get("intervals") == sci_fluid.events


def test_fluid_trace_validates_against_schema(tmp_path):
    scenario = web_scenario(scale=5000.0, horizon=2 * 3600.0)
    trace = TraceConfig(sink="jsonl", path=str(tmp_path))
    run_policy(scenario, AdaptivePolicy(), backend="fluid", trace=trace)
    (trace_file,) = sorted(tmp_path.glob("*.jsonl"))
    events = load_trace(trace_file)
    assert validate_trace(events) == len(events)
    kinds = {e["type"] for e in events}
    assert {
        "run.start",
        "prediction.issued",
        "decision",
        "scaling.actuated",
        "fluid.interval",
        "run.end",
    } <= kinds


def test_fluid_rejects_load_balancers():
    scenario = web_scenario(scale=5000.0, horizon=3600.0)
    with pytest.raises(ConfigurationError):
        run_policy(
            scenario, StaticPolicy(5), backend="fluid", balancer=RoundRobinBalancer()
        )


def test_fluid_rejects_unsupported_policies():
    class OddPolicy(StaticPolicy.__bases__[0]):  # ProvisioningPolicy
        name = "odd"

        def attach(self, ctx):  # pragma: no cover - never attached
            pass

    scenario = web_scenario(scale=5000.0, horizon=3600.0)
    with pytest.raises(ConfigurationError):
        run_policy(scenario, OddPolicy(), backend="fluid")


_MATRIX_PRICING = PricingModel(
    revenue_per_request=0.002, cost_per_core_hour=0.1, sla_penalty=0.05, spot_mtbf=1800.0
)

#: label → (policy factory, priced scenario?, backends that reject it)
_POLICY_MATRIX = {
    "Static": (lambda: StaticPolicy(20), False, ()),
    "Adaptive": (AdaptivePolicy, False, ()),
    "Profit": (lambda: ProfitPolicy(pricing=_MATRIX_PRICING), True, ()),
    "Spot": (lambda: SpotPolicy(0.3, pricing=_MATRIX_PRICING), True, ()),
    "Vertical": (lambda: VerticalScalingPolicy(20), False, ("des-vec", "fluid")),
}


@pytest.mark.parametrize("backend", ["des", "des-vec", "fluid"])
@pytest.mark.parametrize("label", list(_POLICY_MATRIX))
def test_policy_backend_matrix_runs_or_fails_at_the_boundary(label, backend, tmp_path):
    """Every (policy, backend) pair either runs or raises a
    ConfigurationError naming both, never an error deep in the run.
    A rejected pair leaves no trace file, telemetry file or event."""
    factory, priced, rejects = _POLICY_MATRIX[label]
    scenario = web_scenario(scale=2000.0, horizon=2 * 3600.0)
    if priced:
        scenario = scenario.with_updates(pricing=_MATRIX_PRICING)
    policy = factory()
    if backend in rejects:
        with pytest.raises(ConfigurationError) as excinfo:
            run_policy(
                scenario,
                policy,
                backend=backend,
                trace=TraceConfig(path=f"{tmp_path}/"),
                metrics=MetricsConfig(path=f"{tmp_path}/"),
            )
        assert type(policy).__name__ in str(excinfo.value)
        assert backend in str(excinfo.value)
        assert list(tmp_path.iterdir()) == []
        bus = TraceBus(RingBufferSink())
        with pytest.raises(ConfigurationError):
            run_policy(scenario, factory(), backend=backend, trace=bus)
        assert bus.emitted == 0 and len(bus.sink) == 0
        return
    result = run_policy(scenario, policy, backend=backend)
    assert result.backend == backend
    assert result.policy == policy.name
    assert result.total_requests > 0


@pytest.mark.parametrize("label", ["Vertical"])
def test_core_resizing_policy_decisions_reach_the_trace(label):
    """Vertical scaling decides through the control plane, so a traced
    des run explains each actuation like any adaptive run's."""
    bus = TraceBus(RingBufferSink(maxlen=1 << 20))
    scenario = web_scenario(scale=2000.0, horizon=6 * 3600.0)
    result = run_policy(scenario, _POLICY_MATRIX[label][0](), trace=bus)
    events = list(bus.sink.events)
    for event in events:
        validate_event(event)
    assert {"prediction.issued", "decision", "scaling.actuated"} <= {
        e["type"] for e in events
    }
    assert len(DecisionAuditLog.from_trace(events)) == len(result.control_series) > 0
    actuated = bus.sink.of_type("scaling.actuated")
    assert [(e["t"], e["after"]) for e in actuated] == list(result.control_series)


def test_fluid_replications_deterministic_across_seeds():
    scenario = web_scenario(scale=5000.0, horizon=2 * 3600.0)
    results = run_replications(
        scenario, lambda: StaticPolicy(10), seeds=(0, 1), backend="fluid"
    )
    assert [r.seed for r in results] == [0, 1]
    # Without a Spot policy the seed is bookkeeping only on the
    # analytical backend.
    a, b = results
    assert (a.total_requests, a.vm_hours, a.rejection_rate) == (
        b.total_requests,
        b.vm_hours,
        b.rejection_rate,
    )
    # A Spot policy on a priced scenario reads its seed through the
    # revocation schedule, so its seeds differ.
    pricing = PricingModel(spot_mtbf=1800.0)
    priced = web_scenario(scale=5000.0, horizon=2 * 3600.0, pricing=pricing)
    a, b = run_replications(
        priced, lambda: SpotPolicy(0.3, pricing=pricing), seeds=(0, 1), backend="fluid"
    )
    assert a.revocations > 0 and b.revocations > 0
    assert (a.revocations, a.vm_hours, a.fleet_series) != (
        b.revocations,
        b.vm_hours,
        b.fleet_series,
    )
