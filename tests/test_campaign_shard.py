"""Lease-based campaign scheduler: shards, work stealing, crash recovery.

The acceptance contract of the multi-worker refactor, as tests:

* ``--shard i/N`` statically partitions the grid with no overlap;
* two concurrent ``run_campaign`` processes on one store execute every
  cell exactly once between them (per-worker traces are the witness);
* a SIGKILLed worker's stale lease is stolen and its cell completed;
* a cell that raises (or is interrupted) under its lease leaves no
  lease behind, on the batch path and on the prescreen-twin path, and
  the heartbeat keeps a slow cell's lease from an impatient peer;
* however the grid was executed — sequentially, sharded, or by racing
  workers — the final manifest is byte-identical and the cell
  artifacts are identical modulo the wall-clock diagnostic fields
  (``wall_seconds``, ``profile.phase_seconds``).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing as mp
import os
import signal
import time
from pathlib import Path

import pytest

from repro.campaigns import (
    CampaignSpec,
    ResultStore,
    default_owner,
    parse_shard,
    run_campaign,
)
from repro.campaigns import executor
from repro.errors import ConfigurationError
from repro.obs.bus import JsonlSink, RingBufferSink, TraceBus
from repro.obs.schema import load_trace

SMOKE = Path(__file__).resolve().parent.parent / "campaigns" / "smoke.toml"


def _smoke_spec() -> CampaignSpec:
    return CampaignSpec.load(SMOKE)


def _store_fingerprint(root) -> tuple:
    """(manifest bytes, artifact digests modulo timing diagnostics)."""
    store = ResultStore(root)
    manifest = store.manifest_path.read_bytes()
    cells = {}
    for path in sorted(store.root.glob("cells/*/*.json")):
        doc = json.loads(path.read_text())
        for result in doc["results"]:
            result["data"]["wall_seconds"] = 0.0
            profile = result["data"].get("profile")
            if profile:
                profile["phase_seconds"] = {}
        digest = hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode()
        ).hexdigest()
        cells[path.name] = digest
    return manifest, cells


def _worker(root: str, trace_path: str, shard) -> None:
    bus = TraceBus(JsonlSink(Path(trace_path)))
    try:
        run_campaign(_smoke_spec(), store=root, workers=1, trace=bus, shard=shard)
    finally:
        bus.close()


def _squatter(root: str, key: str, owner: str) -> None:
    """Claim one cell and hang forever — the SIGKILL victim."""
    store = ResultStore(root)
    spec = _smoke_spec()
    cell = next(c for c in spec.expanded() if c.key() == key)
    assert store.claim(cell, owner, ttl=3600.0).acquired
    time.sleep(3600.0)


def _backdate(path: Path, seconds: float) -> None:
    stat = path.stat()
    os.utime(path, (stat.st_atime - seconds, stat.st_mtime - seconds))


# ---------------------------------------------------------------------------
# static sharding
# ---------------------------------------------------------------------------


def test_parse_shard_accepts_i_slash_n():
    assert parse_shard("0/2") == (0, 2)
    assert parse_shard("1/2") == (1, 2)
    for bad in ("2/2", "-1/2", "0/0", "x/2", "1", "1/2/3"):
        with pytest.raises(ConfigurationError):
            parse_shard(bad)


def test_shards_partition_the_grid_exactly(tmp_path):
    spec = _smoke_spec()
    cells = spec.expanded()
    store = ResultStore(tmp_path / "store")
    executed = []
    for index in range(2):
        result = run_campaign(spec, store=store, workers=1, shard=(index, 2))
        executed.append({c.key() for c in result.executed})
        # Off-shard cells are skipped, never touched.
        assert {c.key() for c in result.skipped} == {
            c.key() for i, c in enumerate(cells) if i % 2 != index
        }
    assert executed[0] & executed[1] == set()
    assert executed[0] | executed[1] == {c.key() for c in cells}


def test_sharded_store_matches_sequential(tmp_path):
    spec = _smoke_spec()
    run_campaign(spec, store=tmp_path / "seq", workers=1)
    for index in range(2):
        run_campaign(spec, store=tmp_path / "sharded", workers=1, shard=(index, 2))
    seq_manifest, seq_cells = _store_fingerprint(tmp_path / "seq")
    sharded_manifest, sharded_cells = _store_fingerprint(tmp_path / "sharded")
    assert sharded_manifest == seq_manifest  # byte-identical
    assert sharded_cells == seq_cells


# ---------------------------------------------------------------------------
# concurrent work-stealing workers
# ---------------------------------------------------------------------------


def test_two_processes_execute_every_cell_exactly_once(tmp_path):
    spec = _smoke_spec()
    run_campaign(spec, store=tmp_path / "seq", workers=1)

    ctx = mp.get_context("fork")
    traces = [tmp_path / f"worker{i}.jsonl" for i in range(2)]
    procs = [
        ctx.Process(
            target=_worker, args=(str(tmp_path / "conc"), str(traces[i]), None)
        )
        for i in range(2)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
    assert all(proc.exitcode == 0 for proc in procs)

    # Every cell executed exactly once across the two workers: their
    # schema-valid traces carry one campaign.cell.done per key, total.
    done = []
    claim_events = 0
    for trace_path in traces:
        events = load_trace(trace_path)  # validates every event
        done += [e["key"] for e in events if e["type"] == "campaign.cell.done"]
        claim_events += sum(
            1 for e in events if e["type"].startswith("campaign.claim.")
        )
    assert sorted(done) == sorted({c.key() for c in spec.expanded()})
    assert claim_events > 0  # the lease protocol actually ran

    seq_manifest, seq_cells = _store_fingerprint(tmp_path / "seq")
    conc_manifest, conc_cells = _store_fingerprint(tmp_path / "conc")
    assert conc_manifest == seq_manifest  # byte-identical
    assert conc_cells == seq_cells
    # No leases survive a completed campaign.
    assert ResultStore(tmp_path / "conc").active_leases() == []


def test_sigkilled_workers_lease_is_stolen_and_completed(tmp_path):
    spec = _smoke_spec()
    store = ResultStore(tmp_path / "store")
    victim_cell = spec.expanded()[0]

    ctx = mp.get_context("fork")
    victim = ctx.Process(
        target=_squatter,
        args=(str(store.root), victim_cell.key(), "victim:squatter"),
    )
    victim.start()
    deadline = time.monotonic() + 30.0
    while store.lease_of(victim_cell) is None:
        assert time.monotonic() < deadline, "victim never claimed its cell"
        time.sleep(0.01)
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=30)

    # The kill leaves the lease orphaned; age it past the TTL so the
    # steal is deterministic (no heartbeats are renewing it — the
    # owner is dead).
    lease = store.lease_of(victim_cell)
    assert lease is not None and lease.owner == "victim:squatter"
    _backdate(lease.path, 10.0)

    bus = TraceBus(RingBufferSink())
    result = run_campaign(
        spec, store=store, workers=1, trace=bus, lease_ttl=5.0
    )
    assert len(result.executed) == len(spec.expanded())
    stolen = bus.sink.of_type("campaign.claim.stolen")
    assert len(stolen) == 1
    assert stolen[0]["key"] == victim_cell.key()
    assert stolen[0]["previous_owner"] == "victim:squatter"
    assert store.status_of(victim_cell) == "cached"
    assert store.active_leases() == []


def test_fresh_peer_lease_defers_cell_as_claimed(tmp_path):
    spec = _smoke_spec()
    store = ResultStore(tmp_path / "store")
    held = spec.expanded()[0]
    assert store.claim(held, "peer:alive", ttl=3600.0).acquired

    result = run_campaign(spec, store=store, workers=1, lease_ttl=3600.0)
    assert [c.key() for c in result.claimed] == [held.key()]
    assert len(result.executed) == len(spec.expanded()) - 1
    assert store.status_of(held) == "claimed"
    assert "1 claimed" in result.summary_line()
    # The peer's lease was not disturbed.
    assert store.lease_of(held).owner == "peer:alive"


# ---------------------------------------------------------------------------
# lease release and renewal under faults
# ---------------------------------------------------------------------------


def _prescreened_spec() -> CampaignSpec:
    """One DES cell whose fluid twin runs (and is claimed) first."""
    return CampaignSpec.from_dict(
        {
            "campaign": {"name": "lease-fault"},
            "execution": {"prescreen": True, "retries": 0},
            "scenarios": [
                {
                    "scenario": "web",
                    "scale": 5000.0,
                    "horizon": 3600.0,
                    "policies": ["adaptive"],
                    "backends": ["des"],
                    "seeds": "0",
                }
            ],
        }
    )


@pytest.mark.parametrize(
    "exc", [RuntimeError("cell blew up"), KeyboardInterrupt()], ids=["error", "interrupt"]
)
@pytest.mark.parametrize("path", ["batch", "prescreen-twin"])
def test_cell_raising_under_its_lease_leaves_no_lease(tmp_path, monkeypatch, path, exc):
    # The batch path raises in the scheduler's claimed group; the
    # prescreen path raises in the fluid twin the executor claimed.
    spec = _smoke_spec() if path == "batch" else _prescreened_spec()
    target = None if path == "batch" else "fluid"
    store = ResultStore(tmp_path / "store")
    real = executor.run_replications
    raised = []

    def failing(*args, **kwargs):
        if target is None or kwargs.get("backend") == target:
            assert store.active_leases(), "the cell must run under a lease"
            raised.append(exc)
            raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(executor, "run_replications", failing)
    if isinstance(exc, KeyboardInterrupt):
        with pytest.raises(KeyboardInterrupt):
            run_campaign(spec, store=store, workers=1)
    else:
        run_campaign(spec, store=store, workers=1)
    assert raised
    assert store.active_leases() == []


def test_heartbeat_keeps_a_slow_cells_lease_from_a_peer(tmp_path, monkeypatch):
    # With a 1 s TTL the heartbeat renews every 0.25 s.  A peer that
    # tries to claim 2.5 s into a 3 s cell must find a fresh lease; a
    # lease nobody renewed would be 2.5 s old and stolen.
    spec = _smoke_spec()
    store = ResultStore(tmp_path / "store")
    cell = spec.expanded()[0]
    real = executor.run_replications
    peer_claims = []

    def slow(*args, **kwargs):
        if not peer_claims:
            time.sleep(2.5)
            peer = ResultStore(store.root)
            peer_claims.append(peer.claim(cell, "peer:impatient", ttl=1.0))
            time.sleep(0.5)
        return real(*args, **kwargs)

    monkeypatch.setattr(executor, "run_replications", slow)
    result = run_campaign(spec, store=store, workers=1, lease_ttl=1.0)
    (claim,) = peer_claims
    assert not claim.acquired
    assert claim.owner == default_owner()
    assert len(result.executed) == len(spec.expanded())
    assert store.active_leases() == []
