"""Tests of the decision audit log, run profiling, and structured logging."""

from __future__ import annotations

import logging

import pytest

from repro.core import AdaptivePolicy
from repro.obs import (
    DecisionAuditLog,
    DecisionRecord,
    RingBufferSink,
    RunProfile,
    TraceBus,
    aggregate_profiles,
    explain_record,
    get_logger,
    kv,
)
from repro.experiments import run_policy, web_scenario


def small_scenario(**overrides):
    defaults = dict(scale=5000.0, horizon=4 * 3600.0, track_fleet_series=False)
    defaults.update(overrides)
    return web_scenario(**defaults)


# ----------------------------------------------------------------------
# audit log
# ----------------------------------------------------------------------
def test_audit_log_rebuilt_from_trace():
    sc = small_scenario()
    bus = TraceBus(RingBufferSink())
    result = run_policy(sc, AdaptivePolicy(), seed=0, trace=bus)
    audit = DecisionAuditLog.from_trace(bus.sink.events)
    assert len(audit) == result.cache_hits + result.cache_misses > 0
    # Every record is a full Algorithm-1 trajectory ending at chosen m.
    for rec in audit:
        assert rec.path[-1] == rec.chosen
        assert rec.iterations >= 1


def test_explain_record_narrates_grow_and_shrink_steps():
    rec = DecisionRecord(
        time=900.0,
        arrival_rate=12.5,
        service_time=0.105,
        current=4,
        chosen=6,
        iterations=4,
        meets_qos=True,
        cache_hit=False,
        path=(4, 8, 6, 6),
        rho=0.81,
        blocking=0.002,
        response=0.12,
    )
    text = explain_record(rec)
    assert "t=900s" in text
    assert "full search" in text
    assert "m=4 fails QoS" in text and "grow to m=8" in text
    assert "bisect down to m=6" in text
    assert "m=6 stable → converged" in text
    assert "chosen m=6 after 4 iteration(s)" in text
    assert "meets QoS" in text


def test_explain_record_flags_cache_hit_and_qos_miss():
    rec = DecisionRecord(
        time=0.0,
        arrival_rate=1.0,
        service_time=1.0,
        current=1,
        chosen=10,
        iterations=2,
        meets_qos=False,
        cache_hit=True,
        path=(1, 10),
        rho=1.2,
        blocking=0.4,
        response=9.0,
    )
    text = explain_record(rec)
    assert "cache hit" in text
    assert "does NOT meet QoS" in text


# ----------------------------------------------------------------------
# run profile
# ----------------------------------------------------------------------
def test_profile_phases_accumulate_and_round_trip():
    p = RunProfile()
    with p.phase("build"):
        pass
    with p.phase("build"):
        pass
    with p.phase("run"):
        pass
    p.count("events", 10)
    p.count("events", 5)
    assert set(p.phase_seconds) == {"build", "run"}
    assert all(v >= 0.0 for v in p.phase_seconds.values())
    assert p.counters == {"events": 15}
    clone = RunProfile.from_dict(p.to_dict())
    assert clone.phase_seconds == p.phase_seconds
    assert clone.counters == p.counters


def test_profile_phase_records_time_even_on_exception():
    p = RunProfile()
    with pytest.raises(RuntimeError):
        with p.phase("run"):
            raise RuntimeError("boom")
    assert "run" in p.phase_seconds


def test_aggregate_profiles_sums_serialized_blobs():
    blobs = [
        {"phase_seconds": {"run": 1.0}, "counters": {"events": 10}},
        {"phase_seconds": {"run": 2.0, "build": 0.5}, "counters": {"events": 7}},
        {},  # a policy without a profile contributes nothing
    ]
    total = aggregate_profiles(blobs)
    assert total.phase_seconds == {"run": 3.0, "build": 0.5}
    assert total.counters == {"events": 17}


def test_run_result_carries_profile_and_compactions():
    sc = small_scenario()
    r = run_policy(sc, AdaptivePolicy(), seed=0)
    assert r.profile["phase_seconds"].keys() >= {"build", "run", "finalize"}
    assert r.profile["counters"]["events"] == r.events
    assert r.profile["counters"]["compactions"] == r.compactions
    assert r.compactions >= 0


# ----------------------------------------------------------------------
# structured logging
# ----------------------------------------------------------------------
def test_get_logger_namespaces_everything_under_repro():
    assert get_logger().name == "repro"
    assert get_logger("repro.backends.pool").name == "repro.backends.pool"
    assert get_logger("outsider").name == "repro.outsider"
    # Importing the library must not emit to stderr: NullHandler on root.
    assert any(
        isinstance(h, logging.NullHandler)
        for h in logging.getLogger("repro").handlers
    )


def test_kv_formats_structured_fields():
    assert kv(reason="pool-unavailable", workers=4) == "reason=pool-unavailable workers=4"
    assert kv(hint="use PolicySpec") == "hint='use PolicySpec'"
