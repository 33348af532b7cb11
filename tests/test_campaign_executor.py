"""Executor semantics: skip-if-cached, resume, retry, prescreen, events."""

from __future__ import annotations

import logging

import pytest

from repro.campaigns import CampaignSpec, ResultStore, run_campaign
from repro.campaigns.report import campaign_report, campaign_status_rows
from repro.obs.bus import RingBufferSink, TraceBus
from repro.obs.schema import validate_trace


def _spec(**execution):
    return CampaignSpec.from_dict(
        {
            "campaign": {"name": "exec-test"},
            "execution": execution,
            "scenarios": [
                {
                    "scenario": "web",
                    "scale": 5000.0,
                    "horizon": 21600.0,
                    "policies": ["adaptive", "static-60"],
                    "backends": ["fluid"],
                    "seeds": "0-2",
                }
            ],
        }
    )


def test_cold_run_executes_everything_and_caches(tmp_path):
    spec = _spec()
    store = ResultStore(tmp_path)
    result = run_campaign(spec, store=store, workers=1)
    assert result.counts()["executed"] == 6
    assert all(store.has(c) for c in spec.expanded())
    warm = run_campaign(spec, store=store, workers=1)
    assert warm.counts() == {**warm.counts(), "cached": 6, "executed": 0}
    # Warm runs are served purely from disk — no simulation at all.
    assert warm.wall_seconds < result.wall_seconds or warm.wall_seconds < 0.5


def test_interrupted_campaign_resumes_only_missing_cells(tmp_path):
    spec = _spec()
    store = ResultStore(tmp_path)
    # "Kill" the campaign after two cells.
    partial = run_campaign(spec, store=store, workers=1, max_cells=2)
    assert len(partial.executed) == 2
    assert len(partial.skipped) == 4
    done_keys = {c.key() for c in partial.executed}
    # Resume: exactly the four missing cells execute, nothing re-runs.
    resumed = run_campaign(spec, store=store, workers=1)
    assert len(resumed.cached) == 2
    assert {c.key() for c in resumed.cached} == done_keys
    assert len(resumed.executed) == 4
    assert {c.key() for c in resumed.executed}.isdisjoint(done_keys)


def test_deleting_one_artifact_reexecutes_exactly_that_cell(tmp_path):
    spec = _spec()
    store = ResultStore(tmp_path)
    run_campaign(spec, store=store, workers=1)
    victim = spec.expanded()[3]
    store.delete(victim)
    resumed = run_campaign(spec, store=store, workers=1)
    assert [c.key() for c in resumed.executed] == [victim.key()]
    assert len(resumed.cached) == 5


def test_resumed_results_identical_to_uninterrupted(tmp_path):
    import dataclasses

    spec = _spec()
    a, b = ResultStore(tmp_path / "a"), ResultStore(tmp_path / "b")
    run_campaign(spec, store=a, workers=1)
    run_campaign(spec, store=b, workers=1, max_cells=3)
    run_campaign(spec, store=b, workers=1)
    for cell in spec.expanded():
        # wall_seconds is wall-clock timing, the one nondeterministic field.
        assert dataclasses.replace(a.get(cell), wall_seconds=0.0) == dataclasses.replace(
            b.get(cell), wall_seconds=0.0
        )


def test_worker_failure_retries_then_marks_failed(tmp_path):
    # Static-5000 cannot be placed in a 3-host data center: every
    # attempt raises, so the adaptive group succeeds and the static
    # group exhausts its retries and is recorded as failed.
    spec = CampaignSpec.from_dict(
        {
            "campaign": {"name": "fail-test"},
            "execution": {"retries": 1},
            "scenarios": [
                {
                    "scenario": "web",
                    "scale": 5000.0,
                    "horizon": 3600.0,
                    "num_hosts": 3,
                    "policies": ["adaptive", "static-5000"],
                    "backends": ["des"],
                    "seeds": "0",
                }
            ],
        }
    )
    store = ResultStore(tmp_path)
    bus = TraceBus(RingBufferSink())
    result = run_campaign(spec, store=store, workers=1, trace=bus)
    assert len(result.executed) == 1
    assert len(result.failed) == 1
    (failed,) = result.failed
    assert failed.policy == "static-5000"
    assert store.status_of(failed) == "failed"
    assert "ConfigurationError" in store.manifest()[failed.key()]["error"]
    assert len(bus.sink.of_type("campaign.cell.failed")) == 1
    # The failure does not poison the store: a later run retries it.
    again = run_campaign(spec, store=store, workers=1)
    assert len(again.failed) == 1 and len(again.cached) == 1


def test_fluid_prescreen_skips_hopeless_des_cells(tmp_path):
    spec = CampaignSpec.from_dict(
        {
            "campaign": {"name": "screen-test"},
            "execution": {"prescreen": True, "prescreen_max_rejection": 0.2},
            "scenarios": [
                {
                    "scenario": "web",
                    "scale": 5000.0,
                    "horizon": 21600.0,
                    # Static-20 drops ~75 % of arrivals analytically;
                    # adaptive passes the screen.
                    "policies": ["adaptive", "static-20"],
                    "backends": ["des"],
                    "seeds": "0",
                }
            ],
        }
    )
    store = ResultStore(tmp_path)
    result = run_campaign(spec, store=store, workers=1)
    assert [c.policy for c in result.executed] == ["adaptive"]
    assert [c.policy for c in result.screened] == ["static-20"]
    (screened,) = result.screened
    assert store.status_of(screened) == "screened"
    # The fluid twin itself was cached as an ordinary cell.
    import dataclasses

    twin = dataclasses.replace(screened, backend="fluid")
    assert store.has(twin)
    # Re-running re-screens instantly from the cached twin.
    warm = run_campaign(spec, store=store, workers=1)
    assert [c.policy for c in warm.screened] == ["static-20"]
    assert not warm.executed


def test_trace_events_validate_against_schema(tmp_path):
    spec = _spec()
    store = ResultStore(tmp_path)
    bus = TraceBus(RingBufferSink())
    run_campaign(spec, store=store, workers=1, max_cells=2, trace=bus)
    run_campaign(spec, store=store, workers=1, trace=bus)
    events = list(bus.sink.events)
    assert validate_trace(events) == len(events) > 0
    types = {e["type"] for e in events}
    assert {"campaign.cell.start", "campaign.cell.done", "campaign.cell.cached"} <= types


def test_parallel_pool_matches_sequential(tmp_path, caplog):
    # Fluid groups run in-process whatever `workers` says, so the pool
    # is exercised with small des-vec cells.
    spec = CampaignSpec.from_dict(
        {
            "campaign": {"name": "pool-test"},
            "scenarios": [
                {
                    "scenario": "web",
                    "scale": 5000.0,
                    "horizon": 7200.0,
                    "policies": ["adaptive", "static-20"],
                    "backends": ["des-vec"],
                    "seeds": "0-1",
                }
            ],
        }
    )
    seq, par = ResultStore(tmp_path / "seq"), ResultStore(tmp_path / "par")
    run_campaign(spec, store=seq, workers=1)
    with caplog.at_level(logging.WARNING, logger="repro.backends.pool"):
        run_campaign(spec, store=par, workers=2)
    # No fallback record: the pool really ran.
    assert [r for r in caplog.records if r.name == "repro.backends.pool"] == []
    for cell in spec.expanded():
        a, b = seq.get(cell), par.get(cell)
        # wall_seconds is the one nondeterministic field RunMetrics compares;
        # normalize it before asserting bit-identical results.
        import dataclasses

        assert dataclasses.replace(a, wall_seconds=0.0) == dataclasses.replace(
            b, wall_seconds=0.0
        )


def test_report_and_status_cover_incomplete_grids(tmp_path):
    spec = _spec()
    store = ResultStore(tmp_path)
    run_campaign(spec, store=store, workers=1, max_cells=3)
    headers, rows, counts = campaign_status_rows(spec, store)
    assert counts == {"cached": 3, "missing": 3}
    assert len(rows) == 6
    data = campaign_report(spec, store)
    assert [r[3] for r in data.rows] == ["3/3", "0/3"]
    assert data.rows[1][4:] == ["-"] * 10


def test_a_cold_group_writes_the_manifest_once_before_any_release(tmp_path, monkeypatch):
    from repro.campaigns import store as store_module

    spec = CampaignSpec.from_dict(
        {
            "campaign": {"name": "batch-test"},
            "scenarios": [
                {
                    "scenario": "web",
                    "scale": 5000.0,
                    "horizon": 21600.0,
                    "policies": ["adaptive"],
                    "backends": ["fluid"],
                    "seeds": "0-3",
                }
            ],
        }
    )
    store = ResultStore(tmp_path)
    events = []
    write, release = store_module._atomic_write, ResultStore.release

    def logged_write(path, data, durable=True):
        if path == store.manifest_path:
            events.append("manifest")
        write(path, data, durable)

    def logged_release(self, key, owner):
        released = release(self, key, owner)
        if released:
            events.append(key)
        return released

    monkeypatch.setattr(store_module, "_atomic_write", logged_write)
    monkeypatch.setattr(ResultStore, "release", logged_release)
    result = run_campaign(spec, store=store, workers=1)
    assert result.counts()["executed"] == 4
    # One write indexes the group, and every lease is released after it.
    assert events[0] == "manifest"
    assert sorted(events[1:]) == sorted(c.key() for c in spec.expanded())
    assert store.active_leases() == []
