"""Unit + property tests of the run telemetry (repro.obs.metrics).

Covers the response-time histogram (scalar/bulk bucketing, the
hypothesis-checked Chan-moment associativity and percentile-bound
exactness guarantees), the picklable :class:`MetricsConfig`, snapshot
fields, the finalized registry, the live snapshot file, the Prometheus
exposition round-trip, and the interrupt-safety contract of the trace
sinks (flush/close + context managers) the JSONL streams rely on.
"""

from __future__ import annotations

import copy
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs.bus import JsonlSink, RingBufferSink, TraceBus
from repro.obs.exporters import load_snapshots, parse_prometheus_text, snapshot_to_prometheus
from repro.obs.metrics import (
    METRIC_NAMES,
    Histogram,
    MetricsConfig,
    RunTelemetry,
    log_bucket_bounds,
    response_time_bounds,
)

# ---------------------------------------------------------------------------
# bucket boundaries
# ---------------------------------------------------------------------------


def test_log_bucket_bounds_are_deterministic_and_cover_range():
    a = log_bucket_bounds(1e-3, 1e2, per_decade=8)
    b = log_bucket_bounds(1e-3, 1e2, per_decade=8)
    assert a == b  # pure function — bitwise identical every call
    assert a[0] == 1e-3
    assert a[-1] >= 1e2
    assert all(x < y for x, y in zip(a, a[1:]))


def test_log_bucket_bounds_validation():
    with pytest.raises(ConfigurationError):
        log_bucket_bounds(0.0, 1.0)
    with pytest.raises(ConfigurationError):
        log_bucket_bounds(2.0, 1.0)
    with pytest.raises(ConfigurationError):
        log_bucket_bounds(1.0, 2.0, per_decade=0)


def test_response_time_bounds_bracket_the_qos_target():
    ts = 0.25
    bounds = response_time_bounds(ts)
    assert bounds[0] == pytest.approx(ts / 1000.0)
    assert bounds[-1] >= ts * 100.0
    assert any(abs(b - ts) / ts < 0.01 for b in bounds)  # Ts is ~a boundary


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------


def test_histogram_scalar_and_bulk_bucket_identically():
    bounds = log_bucket_bounds(1e-2, 1e2)
    values = np.array([0.005, 0.01, 0.37, 1.0, 42.0, 500.0])
    scalar = Histogram(bounds)
    for v in values.tolist():
        scalar.observe(v)
    bulk = Histogram(bounds)
    bulk.observe_many(values)
    assert scalar.counts == bulk.counts
    assert scalar.count == bulk.count == values.size
    s, b = scalar.to_dict(), bulk.to_dict()
    assert s["mean"] == pytest.approx(b["mean"])
    assert s["m2"] == pytest.approx(b["m2"])
    # boundary landing: a value exactly on a bound goes to the bucket
    # above it on both paths (bisect_right == searchsorted side="right")
    assert scalar.counts[0] == 1  # 0.005 < bounds[0]
    assert scalar.counts[-1] == 1  # 500 >= bounds[-1] → overflow


def test_histogram_counts_returns_a_copy():
    hist = Histogram(log_bucket_bounds(1e-2, 1e2))
    hist.observe(0.5)
    leaked = hist.counts
    leaked[0] += 99
    leaked.append(1)
    assert sum(hist.counts) == hist.count == 1


def test_histogram_copies_observe_into_their_own_buffer():
    hist = Histogram([1.0, 2.0])
    hist.observe(0.5)
    for clone in (copy.deepcopy(hist), pickle.loads(pickle.dumps(hist))):
        clone.observe(1.5)
        assert (clone.count, clone.counts) == (2, [1, 1, 0])
    assert (hist.count, hist.counts) == (1, [1, 0, 0])


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ConfigurationError):
        Histogram([])
    with pytest.raises(ConfigurationError):
        Histogram([1.0, 1.0, 2.0])


@settings(max_examples=60, deadline=None)
@given(
    chunks=st.lists(
        st.lists(
            st.floats(min_value=1e-4, max_value=1e3, allow_nan=False),
            max_size=40,
        ),
        min_size=2,
        max_size=5,
    )
)
def test_histogram_merge_is_associative(chunks):
    """Chan-combining batches is associative: a chunk-by-chunk feed,
    (first chunk + the rest as one batch) and one flat batch agree —
    counts exactly, moments up to float associativity."""
    bounds = log_bucket_bounds(1e-3, 1e3, per_decade=4)

    def hist_of(*batches):
        h = Histogram(bounds)
        for batch in batches:
            h.observe_many(np.array(batch, dtype=np.float64))
        return h.to_dict()

    left = hist_of(*chunks)
    right = hist_of(chunks[0], [v for chunk in chunks[1:] for v in chunk])
    flat = hist_of([v for chunk in chunks for v in chunk])

    assert left["counts"] == right["counts"] == flat["counts"]  # exact
    assert left["count"] == right["count"] == flat["count"]
    assert left["mean"] == pytest.approx(right["mean"], rel=1e-9, abs=1e-12)
    assert left["mean"] == pytest.approx(flat["mean"], rel=1e-9, abs=1e-9)
    assert left["m2"] == pytest.approx(flat["m2"], rel=1e-6, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=1e-4, max_value=1e3, allow_nan=False),
        min_size=1,
        max_size=60,
    ),
    q=st.sampled_from([0.5, 0.9, 0.95, 0.99, 1.0]),
)
def test_percentile_bound_exactly_brackets_the_rank_statistic(values, q):
    """percentile_bound(q) is an exact bracket of the ⌈q·n⌉-th smallest
    observation: lower bound ≤ v < upper bound."""
    bounds = log_bucket_bounds(1e-3, 1e3, per_decade=4)
    h = Histogram(bounds)
    for v in values:
        h.observe(v)
    rank = max(1, math.ceil(q * len(values)))
    v = sorted(values)[rank - 1]
    upper = h.percentile_bound(q)
    if math.isinf(upper):
        assert v >= bounds[-1]
    else:
        assert v < upper
        i = bounds.index(upper)
        lower = bounds[i - 1] if i > 0 else 0.0
        assert v >= lower


def test_percentile_bound_edges():
    h = Histogram([1.0, 2.0])
    assert h.percentile_bound(0.95) == 0.0  # empty
    with pytest.raises(ConfigurationError):
        h.percentile_bound(0.0)
    h.observe(10.0)  # overflow bucket
    assert math.isinf(h.percentile_bound(0.95))


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_metrics_config_is_picklable():
    cfg = MetricsConfig(path="tel/")
    clone = pickle.loads(pickle.dumps(cfg))
    assert clone == cfg


def test_metrics_config_resolve_path(tmp_path):
    cfg = MetricsConfig(path=str(tmp_path) + "/")
    p = cfg.resolve_path("web@1/5000", "Adaptive", 3)
    assert p.name == "web@1_5000-Adaptive-s3.jsonl"  # '/' sanitized
    cfg2 = MetricsConfig(path=str(tmp_path / "{scenario}-{policy}-{seed}.jsonl"))
    p2 = cfg2.resolve_path("web", "Static-60", 1)
    assert p2.name == "web-Static-60-1.jsonl"


def test_run_telemetry_centers_histogram_on_qos_target():
    tel = RunTelemetry(0.25, interval=100.0)
    assert tel.response_time.bounds == response_time_bounds(0.25)
    with pytest.raises(ConfigurationError):
        RunTelemetry(0.25, interval=0.0)


# ---------------------------------------------------------------------------
# RunTelemetry snapshots
# ---------------------------------------------------------------------------


class _FakeCollector:
    def __init__(self):
        self.completed = 0
        self.accepted = 0
        self.rejected = 0
        self.violations = 0


def _telemetry(collector, **kwargs):
    return RunTelemetry(1.0, interval=100.0, collector=collector, **kwargs)


def test_snapshot_fields_are_integer_ratios():
    m = _FakeCollector()
    tel = _telemetry(m, fleet_size_fn=lambda: 7)
    m.accepted, m.rejected, m.completed, m.violations = 90, 10, 80, 8
    snap = tel.sample(100.0)
    assert snap["type"] == "metrics.snapshot"
    assert snap["total"] == 100
    assert snap["rejection_rate"] == 10 / 100
    assert snap["violation_fraction"] == 8 / 80
    assert snap["fleet"] == 7
    # burn rate: first window = all completions; budget = 1 - 0.95
    assert snap["burn_rate"] == pytest.approx((8 / 80) / 0.05)
    # window deltas reset between samples
    m.completed, m.violations = 160, 8
    snap2 = tel.sample(200.0)
    assert snap2["window_completed"] == 80
    assert snap2["window_violations"] == 0
    assert snap2["burn_rate"] == 0.0


def test_finalize_syncs_registry_and_dumps_history(tmp_path):
    m = _FakeCollector()
    path = tmp_path / "tel.jsonl"
    tel = _telemetry(m, cache_fn=lambda: (5, 3), path=path)
    m.accepted = m.completed = 10
    tel.sample(100.0)
    fields = dict(
        total_requests=12, accepted=10, rejected=2, completed=10,
        qos_violations=1, cache_hits=5, cache_misses=3,
    )
    out = tel.finalize(fields, fleet=4)
    tel.close()
    reg = out["registry"]
    assert out["version"] == 1
    assert out["slo_quantile"] == 0.95
    assert reg["requests.arrived"] == {"kind": "counter", "value": 12}
    assert reg["qos.violations"]["value"] == 1
    assert reg["control.cache_hits"]["value"] == 5
    assert reg["fleet.size"] == {"kind": "gauge", "value": 4}
    # No control plane, batch plane or pricing: none of their instruments.
    assert list(reg) == [
        "control.cache_hits", "control.cache_misses", "fleet.size",
        "qos.response_time", "qos.violations", "requests.accepted",
        "requests.arrived", "requests.completed", "requests.rejected",
    ]
    assert len(out["snapshots"]) == 1

    snapshots = load_snapshots(path)  # schema-validates every line
    assert snapshots == out["snapshots"]
    assert snapshots[0]["cache_hits"] == 5


def test_every_declared_metric_kind_is_buildable():
    """A priced, batched, controlled run reports every declared metric,
    each with its declared kind."""
    tel = _telemetry(_FakeCollector())
    fields = dict(
        total_requests=12, accepted=10, rejected=2, completed=10,
        qos_violations=1, cache_hits=5, cache_misses=3, revenue=1.0,
        cost=0.5, penalty=0.0, profit=0.5, spot_vm_hours=2.0, revocations=1,
    )
    action = type("Action", (), {"target": 6})()
    reg = tel.finalize(fields, fleet=4, actions=[action], batch=(3, 40))["registry"]
    assert list(reg) == sorted(METRIC_NAMES)
    assert {name: v["kind"] for name, v in reg.items()} == {
        name: kind for name, (kind, _help) in METRIC_NAMES.items()
    }
    assert reg["fleet.target"]["value"] == 6
    assert reg["batch.flushed_requests"]["value"] == 40


def test_snapshots_stream_to_path_as_taken(tmp_path):
    """Each snapshot is on disk at the final path the moment it is
    taken, and still kept in memory."""
    path = tmp_path / "tel.jsonl"
    tel = _telemetry(_FakeCollector(), path=path)
    tel.sample(50.0)
    assert [s["t"] for s in load_snapshots(path)] == [50.0]
    tel.sample(100.0)
    assert [s["t"] for s in load_snapshots(path)] == [50.0, 100.0]
    assert load_snapshots(path) == tel.snapshots
    tel.close()
    tel.close()  # idempotent
    assert not list(tmp_path.glob("*.tmp"))


def test_close_keeps_partial_series_on_interrupt(tmp_path):
    path = tmp_path / "tel.jsonl"
    tel = _telemetry(_FakeCollector(), path=path)
    tel.sample(50.0)
    # The backend's finally path: close without finalize.
    tel.close()
    assert [s["t"] for s in load_snapshots(path)] == [50.0]


# ---------------------------------------------------------------------------
# Prometheus exposition round-trip
# ---------------------------------------------------------------------------


def test_prometheus_round_trip_validates():
    m = _FakeCollector()
    tel = _telemetry(m)
    hist = tel.response_time
    for v in (0.01, 0.5, 0.9, 1.5, 200.0):
        hist.observe(v)
    m.accepted, m.completed, m.violations = 5, 5, 1
    snap = tel.sample(100.0)

    text = snapshot_to_prometheus(snap)
    families = parse_prometheus_text(text)
    assert families["repro_requests_accepted_total"]["type"] == "counter"
    hist_fam = families["repro_response_time_scenario_seconds"]
    buckets = [s for s in hist_fam["samples"] if s[0].endswith("_bucket")]
    assert buckets[-1][1]["le"] == "+Inf"
    assert buckets[-1][2] == 5  # +Inf bucket == count


def test_prometheus_parser_rejects_non_cumulative_buckets():
    bad = "\n".join(
        [
            "# TYPE h histogram",
            '# HELP h broken',
            'h_bucket{le="1"} 5',
            'h_bucket{le="+Inf"} 3',
        ]
    )
    with pytest.raises(ConfigurationError):
        parse_prometheus_text(bad)


# ---------------------------------------------------------------------------
# sink interrupt-safety (flush/close + context managers)
# ---------------------------------------------------------------------------


def test_jsonl_sink_flush_makes_tail_events_durable(tmp_path):
    path = tmp_path / "t.jsonl"
    sink = JsonlSink(path)
    bus = TraceBus(sink)
    bus.emit("sim.started", 0.0, scenario="s", policy="p", seed=0, horizon=1.0)
    bus.flush()  # the interrupt path: flush without close
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["type"] == "sim.started"
    bus.close()


def test_trace_bus_context_manager_closes_sink(tmp_path):
    path = tmp_path / "t.jsonl"
    with TraceBus(JsonlSink(path)) as bus:
        bus.emit("sim.started", 0.0, scenario="s", policy="p", seed=0, horizon=1.0)
    assert len(path.read_text().strip().splitlines()) == 1
    # ring-buffer sinks support the same protocol (no-op flush/close)
    with TraceBus(RingBufferSink()) as bus:
        bus.emit("sim.started", 0.0, scenario="s", policy="p", seed=0, horizon=1.0)
        assert bus.emitted == 1
