"""End-to-end observability tests: traced runs, parallel JSONL, trace CLI."""

from __future__ import annotations

import dataclasses

from repro.core import AdaptivePolicy, StaticPolicy
from repro.experiments import (
    PolicySpec,
    run_policy,
    run_replications,
    web_scenario,
)
from repro.experiments.cli import main as cli_main
import pytest

from repro.obs import (
    CONTROL_EVENTS,
    REQUEST_EVENTS,
    RingBufferSink,
    TraceBus,
    TraceConfig,
    load_trace,
    validate_trace,
)


def small_scenario(**overrides):
    defaults = dict(scale=5000.0, horizon=4 * 3600.0, track_fleet_series=False)
    defaults.update(overrides)
    return web_scenario(**defaults)


def strip_wall(result):
    return dataclasses.replace(result, wall_seconds=0.0)


# ----------------------------------------------------------------------
# traced adaptive run (in-memory bus)
# ----------------------------------------------------------------------
def test_traced_adaptive_run_emits_schema_valid_closed_loop():
    sc = small_scenario()
    sink = RingBufferSink(maxlen=500_000)
    bus = TraceBus(sink)
    result = run_policy(sc, AdaptivePolicy(), seed=0, trace=bus)
    events = list(sink.events)
    assert validate_trace(events) == len(events) == bus.emitted
    types = {e["type"] for e in events}
    # The full closed loop left its trail.
    assert {
        "run.start",
        "run.end",
        "window.generated",
        "prediction.issued",
        "decision",
        "scaling.actuated",
        "vm.created",
        "request.admitted",
        "request.completed",
    } <= types
    # Run bracketing: first/last events, with the end totals matching.
    assert events[0]["type"] == "run.start"
    assert events[0]["policy"] == "Adaptive"
    end = events[-1]
    assert end["type"] == "run.end"
    assert end["events"] == result.events
    # Every analyzer alert drove exactly one decision and one actuation.
    n_pred = sum(1 for e in events if e["type"] == "prediction.issued")
    n_dec = sum(1 for e in events if e["type"] == "decision")
    n_act = sum(1 for e in events if e["type"] == "scaling.actuated")
    assert n_pred == n_dec == n_act > 0
    # Decision-cache counters agree between trace and RunMetrics.
    hits = sum(1 for e in events if e["type"] == "decision" and e["cache_hit"])
    assert hits == result.cache_hits
    assert n_dec == result.cache_hits + result.cache_misses


def test_tracing_does_not_change_run_results():
    sc = small_scenario()
    plain = run_policy(sc, AdaptivePolicy(), seed=0)
    traced = run_policy(
        sc, AdaptivePolicy(), seed=0, trace=TraceBus(RingBufferSink(maxlen=500_000))
    )
    assert strip_wall(plain) == strip_wall(traced)


def test_event_filter_limits_jsonl_to_control_plane(tmp_path):
    sc = small_scenario()
    cfg = TraceConfig(
        sink="jsonl",
        path=str(tmp_path) + "/",
        events=tuple(sorted(CONTROL_EVENTS)),
    )
    run_policy(sc, StaticPolicy(10), seed=0, trace=cfg)
    (path,) = tmp_path.glob("*.jsonl")
    events = load_trace(path)
    assert validate_trace(events) == len(events)
    types = {e["type"] for e in events}
    assert "request.admitted" not in types
    assert "request.completed" not in types
    assert "vm.created" in types


@pytest.mark.parametrize("backend", ["des", "des-vec"])
@pytest.mark.parametrize(
    "events",
    [CONTROL_EVENTS, REQUEST_EVENTS, {"admission.state"}, {"request.completed", "vm.created"}],
    ids=["control", "requests", "admission-state", "completed-and-created"],
)
def test_event_filter_yields_the_full_trace_filtered(backend, events):
    """Components drop filtered event types when they are wired, not
    per emit; the trace must not notice."""
    sc = small_scenario(horizon=2 * 3600.0)
    full = TraceBus(RingBufferSink(maxlen=500_000))
    run_policy(sc, StaticPolicy(3), seed=0, backend=backend, trace=full)
    want = [e for e in full.sink.events if e["type"] in events]
    assert any(e["type"] == "admission.state" for e in full.sink.events)
    filtered = TraceBus(RingBufferSink(maxlen=500_000), events=events)
    run_policy(sc, StaticPolicy(3), seed=0, backend=backend, trace=filtered)
    assert list(filtered.sink.events) == want
    assert filtered.emitted == len(want) > 0


# ----------------------------------------------------------------------
# parallel replications
# ----------------------------------------------------------------------
def test_parallel_traced_replications_write_one_file_per_seed(tmp_path):
    sc = small_scenario()
    cfg = TraceConfig(
        sink="jsonl",
        path=str(tmp_path) + "/",
        events=tuple(sorted(CONTROL_EVENTS)),
    )
    seq = run_replications(sc, PolicySpec(AdaptivePolicy), seeds=(0, 1), workers=1)
    par = run_replications(
        sc, PolicySpec(AdaptivePolicy), seeds=(0, 1), workers=2, trace=cfg
    )
    assert [strip_wall(r) for r in seq] == [strip_wall(r) for r in par]
    files = sorted(p.name for p in tmp_path.glob("*.jsonl"))
    assert len(files) == 2
    assert files[0].endswith("-s0.jsonl") and files[1].endswith("-s1.jsonl")
    for p in tmp_path.glob("*.jsonl"):
        events = load_trace(p)
        assert validate_trace(events) == len(events)
        assert events[-1]["type"] == "run.end"


def test_worker_counters_survive_the_pool():
    # Cache and event counters must come back from worker processes
    # inside the pickled RunMetrics.
    sc = small_scenario()
    seq = run_replications(sc, PolicySpec(AdaptivePolicy), seeds=(0, 1), workers=1)
    par = run_replications(sc, PolicySpec(AdaptivePolicy), seeds=(0, 1), workers=2)
    assert [(r.cache_hits, r.cache_misses, r.events) for r in seq] == [
        (r.cache_hits, r.cache_misses, r.events) for r in par
    ]
    for r in par:
        assert r.profile["counters"]["events"] == r.events
        assert r.profile["phase_seconds"]["run"] > 0.0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_run_trace_and_render_roundtrip(tmp_path, capsys):
    traces = tmp_path / "traces"
    out = cli_main(
        [
            "run",
            "fig5",
            "--quick",
            "--scale",
            "5000",
            "--seeds",
            "0",
            "--trace",
            str(traces) + "/",
        ]
    )
    assert out == 0
    files = sorted(traces.glob("*.jsonl"))
    assert len(files) == 6  # Adaptive + 5 static sizes
    capsys.readouterr()
    adaptive = next(p for p in files if "Adaptive" in p.name)
    assert (
        cli_main(
            ["trace", str(adaptive), "--validate", "--timeline", "5", "--explain", "0"]
        )
        == 0
    )
    rendered = capsys.readouterr().out
    assert "conform to the trace schema" in rendered
    assert "run.start" in rendered
    assert "Algorithm-1 decision" in rendered
    assert "more event(s) not shown" in rendered
    # Directory mode covers every file.
    assert cli_main(["trace", str(traces), "--validate"]) == 0
    assert capsys.readouterr().out.count("== ") == 6


def test_cli_trace_rejects_invalid_and_missing(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"t": 0.0, "type": "mystery"}\n')
    assert cli_main(["trace", str(bad), "--validate"]) == 1
    assert "INVALID" in capsys.readouterr().out
    # Explaining a decision that is not there fails politely.
    empty = tmp_path / "empty.jsonl"
    empty.write_text('{"t": 0.0, "type": "request.admitted"}\n')
    assert cli_main(["trace", str(empty), "--explain", "0"]) == 1
    assert "0 decision event(s)" in capsys.readouterr().out
