"""Coverage tests for remaining API surfaces and cross-cutting paths."""

from __future__ import annotations

import pytest

import repro
from repro.errors import (
    CapacityError,
    ConfigurationError,
    EngineStateError,
    PlacementError,
    PredictionError,
    QueueingModelError,
    ReproError,
    SchedulingInPastError,
    SimulationError,
    WorkloadError,
)


def test_error_hierarchy():
    # One base class catches everything the library raises.
    for exc in (
        SimulationError,
        SchedulingInPastError,
        EngineStateError,
        CapacityError,
        PlacementError,
        ConfigurationError,
        QueueingModelError,
        WorkloadError,
        PredictionError,
    ):
        assert issubclass(exc, ReproError)
    assert issubclass(SchedulingInPastError, SimulationError)
    assert issubclass(PlacementError, CapacityError)


def test_scheduling_error_carries_times():
    err = SchedulingInPastError(now=10.0, when=5.0)
    assert err.now == 10.0 and err.when == 5.0
    assert "t=5.0" in str(err) and "t=10.0" in str(err)


def test_public_api_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_version_is_exposed():
    assert repro.__version__.count(".") == 2


def test_scaled_scientific_adaptive_run():
    """Exercises the _ScaledPredictor wrapper: the paper's mode-based
    analyzer must rescale its constants with the workload."""
    from repro import AdaptivePolicy, run_policy, scientific_scenario

    scenario = scientific_scenario(scale=4.0)
    r = run_policy(scenario, AdaptivePolicy(update_interval=1800.0), seed=0)
    # Fleet trajectory is scale-invariant: same 14 → ~82 sweep.
    assert 11 <= r.min_instances <= 16
    assert 70 <= r.max_instances <= 90
    assert r.rejection_rate < 0.03
    # Normalized response times land back in paper units.
    assert 300.0 <= r.mean_response_time <= 700.0


@pytest.mark.parametrize("lead_time", [float("nan"), float("inf"), -1.0])
def test_bad_lead_time_rejected_before_any_run(lead_time):
    """An infinite lead time used to hang the alert walk, and NaN to fail
    deep in the run; both now fail where they are given."""
    from repro import AdaptivePolicy, web_scenario

    with pytest.raises(ConfigurationError, match="lead time"):
        AdaptivePolicy(lead_time=lead_time)
    with pytest.raises(ConfigurationError, match="lead_time"):
        web_scenario(scale=400.0, lead_time=lead_time)


@pytest.mark.parametrize(
    "field, value",
    [
        ("boot_delay", float("nan")),
        ("boot_delay", float("inf")),
        ("boot_delay", -1.0),
        ("num_hosts", 0),
        ("cores_per_host", 0),
        ("ram_per_host_mb", 0),
        ("num_hosts", float("nan")),
        ("num_hosts", float("inf")),
        ("num_hosts", 2.5),
        ("cores_per_host", 2.5),
        ("ram_per_host_mb", True),
        ("scale", float("nan")),
        ("scale", float("inf")),
        ("scale", 0.0),
        ("rate_sample_interval", float("nan")),
        ("rate_sample_interval", float("inf")),
        ("rate_sample_interval", 0.0),
        ("rate_sample_interval", -1.0),
    ],
)
def test_scenario_rejects_bad_boot_delay_and_geometry(field, value):
    """Bad values fail at construction.  A NaN sampling cadence or a
    non-integer host count used to fail mid-run, and a non-finite scale
    to report a NaN or zero response time."""
    from repro import web_scenario

    with pytest.raises(ConfigurationError, match=field):
        web_scenario(scale=400.0).with_updates(**{field: value})


def test_event_handle_layout_constants():
    from repro.sim import Engine
    from repro.sim.events import CALLBACK, CANCELLED, PRIORITY, SEQ, TIME

    eng = Engine()
    cb = lambda: None
    handle = eng.schedule_at(5.0, cb, priority=2)
    assert handle[TIME] == 5.0
    assert handle[PRIORITY] == 2
    assert isinstance(handle[SEQ], int)
    assert handle[CALLBACK] is cb
    assert handle[CANCELLED] is False
    Engine.cancel(handle)
    assert handle[CANCELLED] is True


def test_run_result_is_frozen():
    from repro import StaticPolicy, run_policy, web_scenario

    r = run_policy(web_scenario(scale=5000.0, horizon=3600.0), StaticPolicy(5), seed=0)
    with pytest.raises(Exception):
        r.seed = 99  # type: ignore[misc]


def test_cli_run_fig4_smoke(capsys):
    from repro.experiments.cli import main

    assert main(["run", "fig4"]) == 0
    out = capsys.readouterr().out
    assert "Figure 4" in out


def test_cli_workload_analysis_smoke(capsys):
    from repro.experiments.cli import main

    assert main(["run", "workload-analysis"]) == 0
    out = capsys.readouterr().out
    assert "characterization" in out


def test_context_carries_capacity():
    from repro.experiments import build_context, web_scenario

    ctx = build_context(web_scenario(scale=5000.0, horizon=3600.0), seed=0)
    assert ctx.capacity == 2
    assert ctx.horizon == 3600.0
    assert ctx.provisioner is None and ctx.analyzer is None


def test_repr_smoke():
    """Debug reprs must never raise (they run under debuggers)."""
    from repro.queueing import MM1KQueue
    from repro.sim import Engine, RandomStreams

    assert "M/M/1/K" in repr(MM1KQueue(1.0, 2.0, 2))
    assert "Engine" in repr(Engine())
    assert "RandomStreams" in repr(RandomStreams(1))
