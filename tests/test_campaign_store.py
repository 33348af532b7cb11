"""Content-addressed result store: round-trip, cache hits, manifest, leases."""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaigns import CampaignSpec, ResultStore, run_campaign
from repro.campaigns.report import campaign_report
from repro.campaigns.spec import CAMPAIGN_SCHEMA_VERSION
from repro.campaigns.store import _MANIFEST_FORMAT, _MANIFEST_VERSION
from repro.core import AdaptivePolicy
from repro.errors import ConfigurationError
from repro.experiments import web_scenario
from repro.experiments.persist import result_to_dict
from repro.experiments.runner import run_policy
from repro.metrics.report import format_table
from repro.obs.metrics import MetricsConfig


@pytest.fixture(scope="module")
def spec() -> CampaignSpec:
    return CampaignSpec.from_dict(
        {
            "campaign": {"name": "store-test"},
            "scenarios": [
                {
                    "scenario": "web",
                    "scale": 5000.0,
                    "horizon": 21600.0,
                    "policies": ["adaptive", "static-60"],
                    "backends": ["fluid"],
                    "seeds": "0-1",
                }
            ],
        }
    )


@pytest.fixture(scope="module")
def metrics(spec):
    cell = spec.expanded()[0]
    return run_policy(
        cell.build_scenario(), cell.policy_factory()(), seed=cell.seed, backend="fluid"
    )


def test_round_trip_and_cache_hit(tmp_path, spec, metrics):
    store = ResultStore(tmp_path)
    cell = spec.expanded()[0]
    assert not store.has(cell)
    assert store.get(cell) is None
    path = store.put(cell, metrics)
    assert path.is_file()
    assert store.has(cell)
    loaded = store.get(cell)
    # RunMetrics equality ignores only the profile timings.
    assert loaded == metrics
    assert store.status_of(cell) == "cached"


def test_artifact_is_a_versioned_persist_document(tmp_path, spec, metrics):
    store = ResultStore(tmp_path)
    cell = spec.expanded()[0]
    doc = json.loads(store.put(cell, metrics).read_text())
    assert doc["format"] == "repro-results"
    assert doc["cell"] == cell.config()
    # Readable by the plain persist loader too.
    from repro.experiments.persist import load_results

    assert load_results(store.path_for(cell)) == [metrics]


def test_delete_causes_exact_cache_miss(tmp_path, spec, metrics):
    store = ResultStore(tmp_path)
    cells = spec.expanded()
    for cell in cells:
        store.put(cell, dataclasses.replace(metrics, seed=cell.seed))
    assert store.delete(cells[1])
    assert [store.has(c) for c in cells] == [True, False, True, True]
    assert store.status_of(cells[1]) == "missing"
    assert not store.delete(cells[1])  # idempotent


def test_manifest_tracks_statuses(tmp_path, spec, metrics):
    store = ResultStore(tmp_path)
    a, b, c, d = spec.expanded()
    store.put(a, metrics)
    store.mark_failed(b, "boom")
    store.mark_screened(c, rejection_rate=0.75)
    manifest = store.manifest()
    assert manifest[a.key()]["status"] == "cached"
    assert manifest[a.key()]["file"].startswith("cells/")
    assert manifest[b.key()]["status"] == "failed"
    assert manifest[b.key()]["error"] == "boom"
    assert manifest[c.key()]["status"] == "screened"
    assert manifest[c.key()]["rejection_rate"] == 0.75
    assert store.status_of(b) == "failed"
    assert store.status_of(c) == "screened"
    assert store.status_of(d) == "missing"
    doc = json.loads((tmp_path / "manifest.json").read_text())
    assert doc["format"] == _MANIFEST_FORMAT


def test_manifest_copies_do_not_alias_the_store(tmp_path, spec, metrics):
    store = ResultStore(tmp_path)
    a, b = spec.expanded()[:2]
    store.mark_screened(a, rejection_rate=0.5)
    store.put(b, metrics)
    store.manifest()[a.key()]["status"] = "failed"
    store.manifest()[a.key()]["params"]["scale"] = -1.0
    assert store.status_of(a) == "screened"
    assert store.manifest()[a.key()]["params"] == a.config()["params"]
    store.refresh_manifest([a, b])[b.key()]["status"] = "failed"
    assert store.status_of(b) == "cached"
    assert store.manifest()[b.key()]["status"] == "cached"


def test_refresh_manifest_heals_after_crash(tmp_path, spec, metrics):
    store = ResultStore(tmp_path)
    cells = spec.expanded()
    store.put(cells[0], metrics)
    store.put(cells[1], metrics)
    # Simulate a crash between artifact write and manifest update: drop
    # the manifest entirely, then delete one artifact out from under it.
    (tmp_path / "manifest.json").unlink()
    store2 = ResultStore(tmp_path)
    assert store2.manifest() == {}
    healed = store2.refresh_manifest(cells)
    assert healed[cells[0].key()]["status"] == "cached"
    assert healed[cells[1].key()]["status"] == "cached"
    assert cells[2].key() not in healed
    # And the reverse: stale cached entry whose artifact vanished.
    store2.path_for(cells[1]).unlink()
    healed = store2.refresh_manifest(cells)
    assert cells[1].key() not in healed


def test_foreign_manifest_rejected(tmp_path, spec):
    (tmp_path / "manifest.json").write_text(json.dumps({"format": "other"}))
    store = ResultStore(tmp_path)
    with pytest.raises(ConfigurationError, match="not a campaign manifest"):
        store.manifest()


# ---------------------------------------------------------------------------
# lease protocol (work claiming)
# ---------------------------------------------------------------------------


def _backdate(path, seconds: float) -> None:
    """Age a lease by pushing its mtime into the past (deterministic
    staleness without sleeping)."""
    stat = path.stat()
    os.utime(path, (stat.st_atime - seconds, stat.st_mtime - seconds))


def test_claim_is_exclusive_and_reentrant(tmp_path, spec):
    store = ResultStore(tmp_path)
    cell = spec.expanded()[0]
    first = store.claim(cell, "alice:1", ttl=60.0)
    assert first.acquired and first.owner == "alice:1"
    assert first.stolen_from is None
    # Another worker is refused and told who holds the lease.
    other = store.claim(cell, "bob:2", ttl=60.0)
    assert not other.acquired and other.owner == "alice:1"
    # Re-claiming your own lease renews it instead of failing.
    again = store.claim(cell, "alice:1", ttl=60.0)
    assert again.acquired
    lease = store.lease_of(cell)
    assert lease is not None and lease.owner == "alice:1"
    assert lease.age_seconds < 60.0


def test_release_only_by_owner(tmp_path, spec):
    store = ResultStore(tmp_path)
    cell = spec.expanded()[0]
    store.claim(cell, "alice:1", ttl=60.0)
    assert not store.release(cell.key(), "bob:2")
    assert store.lease_of(cell) is not None
    assert store.release(cell.key(), "alice:1")
    assert store.lease_of(cell) is None
    assert not store.release(cell.key(), "alice:1")  # idempotent


def test_renew_heartbeats_only_held_leases(tmp_path, spec):
    store = ResultStore(tmp_path)
    cell = spec.expanded()[0]
    store.claim(cell, "alice:1", ttl=60.0)
    _backdate(store.lease_path(cell.key()), 120.0)
    assert store.lease_of(cell).age_seconds >= 120.0
    assert store.renew(cell.key(), "alice:1")
    assert store.lease_of(cell).age_seconds < 60.0
    assert not store.renew(cell.key(), "bob:2")
    assert not store.renew("no-such-key", "alice:1")


def test_stale_lease_is_stolen_fresh_one_is_not(tmp_path, spec):
    store = ResultStore(tmp_path)
    cell = spec.expanded()[0]
    store.claim(cell, "dead:1", ttl=30.0)
    # Fresh lease: protected.
    refused = store.claim(cell, "bob:2", ttl=30.0)
    assert not refused.acquired
    # Past the TTL: stolen, and the thief learns whose it was.
    _backdate(store.lease_path(cell.key()), 31.0)
    stolen = store.claim(cell, "bob:2", ttl=30.0)
    assert stolen.acquired
    assert stolen.stolen_from == "dead:1"
    assert store.lease_of(cell).owner == "bob:2"


def test_status_of_reports_claimed_until_ttl(tmp_path, spec):
    store = ResultStore(tmp_path)
    cell = spec.expanded()[0]
    assert store.status_of(cell) == "missing"
    store.claim(cell, "alice:1", ttl=60.0)
    assert store.status_of(cell) == "claimed"
    # With a TTL in hand the status heals itself: stale -> reclaimable.
    _backdate(store.lease_path(cell.key()), 120.0)
    assert store.status_of(cell, lease_ttl=60.0) == "missing"
    # Without one, any lease on disk counts as in flight.
    assert store.status_of(cell) == "claimed"


def test_artifact_wins_over_lease(tmp_path, spec, metrics):
    """A lease is never a result: a stored artifact is cached even
    while its (orphaned) lease is still on disk."""
    store = ResultStore(tmp_path)
    cell = spec.expanded()[0]
    store.claim(cell, "alice:1", ttl=60.0)
    store.put(cell, metrics)
    assert store.status_of(cell) == "cached"


def test_refresh_manifest_prunes_orphan_leases(tmp_path, spec, metrics):
    store = ResultStore(tmp_path)
    cells = spec.expanded()
    # Worker died after writing the artifact but before releasing.
    store.put(cells[0], metrics)
    store.claim(cells[0], "dead:1", ttl=60.0)
    # Worker died before writing anything: lease must survive as
    # reclaimable work, never become a result.
    store.claim(cells[1], "dead:1", ttl=60.0)
    healed = store.refresh_manifest(cells)
    assert store.lease_of(cells[0]) is None  # pruned: artifact exists
    assert store.lease_of(cells[1]).owner == "dead:1"  # kept: no artifact
    assert healed[cells[0].key()]["status"] == "cached"
    assert cells[1].key() not in healed


def test_active_leases_lists_every_owner(tmp_path, spec):
    store = ResultStore(tmp_path)
    assert store.active_leases() == []
    a, b = spec.expanded()[:2]
    store.claim(a, "alice:1", ttl=60.0)
    store.claim(b, "bob:2", ttl=60.0)
    owners = sorted(lease.owner for lease in store.active_leases())
    assert owners == ["alice:1", "bob:2"]


def test_durable_write_leaves_no_tmp_files(tmp_path, spec, metrics):
    store = ResultStore(tmp_path)
    cell = spec.expanded()[0]
    store.put(cell, metrics)
    strays = [p for p in tmp_path.rglob("*") if ".tmp" in p.name]
    assert strays == []


# ---------------------------------------------------------------------------
# on-disk layout: every file is json.dumps(doc, indent=1, sort_keys=True)
# ---------------------------------------------------------------------------
def _reference_manifest(cells: dict) -> str:
    doc = {
        "format": _MANIFEST_FORMAT,
        "version": _MANIFEST_VERSION,
        "campaign_schema": CAMPAIGN_SCHEMA_VERSION,
        "cells": cells,
    }
    return json.dumps(doc, indent=1, sort_keys=True)


_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**40), 2**40)
    | st.floats(allow_nan=False)
    | st.text(max_size=12)
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_entries = st.dictionaries(st.text(max_size=8), _json_values, max_size=5)
# Hex-like keys, as the store writes them, plus awkward ones.
_keys = st.sampled_from(["00ab", "00ac", "ff", "k\u00e9y", 'q"uote', "back\\slash"])


@settings(max_examples=60, deadline=None)
@given(rounds=st.lists(st.dictionaries(_keys, _entries, max_size=4), min_size=1, max_size=4))
def test_manifest_text_is_the_reference_encoding(rounds):
    """Each write equals a whole-document encode, memo hits included.

    Consecutive rounds share keys, so entries are rewritten both
    unchanged and changed; the next test pins type-only changes.
    """
    with tempfile.TemporaryDirectory() as root:
        store = ResultStore(root)
        for cells in rounds:
            store._write_manifest(copy.deepcopy(cells))
            assert store.manifest_path.read_text() == _reference_manifest(cells)
            # The same entries re-parsed from disk take the memo path.
            store._write_manifest(json.loads(store.manifest_path.read_text())["cells"])
            assert store.manifest_path.read_text() == _reference_manifest(cells)


def test_manifest_memo_tells_equal_values_of_other_types_apart(tmp_path):
    store = ResultStore(tmp_path)
    for value in (1, 1.0, True, 0.0, -0.0, 0, False):
        store._write_manifest({"k": {"v": value}})
        assert store.manifest_path.read_text() == _reference_manifest({"k": {"v": value}})
    store._write_manifest({})
    assert store.manifest_path.read_text() == _reference_manifest({})


_errors = st.text(
    alphabet=st.sampled_from(list('ab \n\t"\\/\u00e9\u4e2d\U0001f600\r')), max_size=10
)
_store_ops = st.lists(
    st.tuples(
        st.integers(0, 1),  # which of two stores on one root
        st.integers(0, 3),  # which cell
        st.one_of(
            st.just(("put",)),
            st.just(("delete",)),
            st.tuples(st.just("failed"), _errors),
            st.tuples(st.just("screened"), st.floats(0.0, 1.0) | st.sampled_from([0, 1])),
        ),
    ),
    max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(ops=_store_ops)
def test_two_stores_taking_turns_write_the_reference_manifest(spec, metrics, ops):
    """Two ``ResultStore`` instances on one root interleave updates of
    the same and of different keys; after every step the manifest on
    disk is the reference encoding of the merged entries."""
    cells = spec.expanded()
    with tempfile.TemporaryDirectory() as root:
        stores = (ResultStore(root), ResultStore(root))
        expected: dict = {}
        for which, index, op in ops:
            store, cell = stores[which], cells[index]
            key = cell.key()
            if op[0] == "delete":
                store.delete(cell)
                expected.pop(key, None)
            else:
                entry = dict(cell.config())
                if op[0] == "put":
                    store.put(cell, metrics)
                    entry.update(status="cached", file=str(store.path_for(cell).relative_to(root)))
                elif op[0] == "failed":
                    store.mark_failed(cell, op[1])
                    entry.update(status="failed", file=None, error=op[1])
                else:
                    store.mark_screened(cell, rejection_rate=op[1])
                    entry.update(status="screened", file=None, rejection_rate=op[1])
                # An update equal to the recorded entry is not rewritten.
                if expected.get(key) != entry:
                    expected[key] = entry
            if store.manifest_path.exists():
                assert store.manifest_path.read_text() == _reference_manifest(expected)
        for store in stores:
            assert store.manifest() == expected


@pytest.fixture(scope="module")
def observed_results():
    """Adaptive web runs on every backend with metrics collection on."""
    scenario = web_scenario(scale=5000.0, horizon=2 * 3600.0, track_fleet_series=True)
    return [
        run_policy(scenario, AdaptivePolicy(), seed=0, backend=backend, metrics=MetricsConfig())
        for backend in ("des", "des-vec", "fluid")
    ]


def test_result_to_dict_matches_asdict_and_copies_mutables(observed_results):
    for result in observed_results:
        assert result.profile and result.telemetry
        data = result_to_dict(result)["data"]
        assert data == dataclasses.asdict(result)
        before = copy.deepcopy((result.profile, result.telemetry))
        for name in ("profile", "telemetry"):
            for value in data[name].values():
                if isinstance(value, (dict, list)):
                    value.clear()
            data[name]["injected"] = 1
        assert (result.profile, result.telemetry) == before


def test_artifacts_are_in_the_canonical_layout(tmp_path, spec, observed_results):
    store = ResultStore(tmp_path)
    for cell, result in zip(spec.expanded(), observed_results):
        store.put(cell, result)
    store.mark_failed(spec.expanded()[3], 'line one\nline "two" \\ \u00e9')
    texts = [p.read_text() for p in tmp_path.glob("cells/*/*.json")]
    texts.append(store.manifest_path.read_text())
    assert len(texts) == 4
    for text in texts:
        assert text == json.dumps(json.loads(text), indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# own bytes: the kept manifest is the parse of the bytes on disk
# ---------------------------------------------------------------------------
def _typed(value):
    """``value`` with every container and leaf tagged by its exact type."""
    if isinstance(value, dict):
        return ("dict", sorted((key, _typed(item)) for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_typed(item) for item in value])
    return (type(value).__name__, repr(value))


def _assert_kept_manifest_is_the_parse(store):
    on_disk = json.loads(store.manifest_path.read_bytes())["cells"]
    assert _typed(store._manifest) == _typed(on_disk)


@pytest.fixture(scope="module")
def priced_spec() -> CampaignSpec:
    return CampaignSpec.from_dict(
        {
            "campaign": {"name": "priced-store-test"},
            "scenarios": [
                {
                    "scenario": "web",
                    "scale": 5000.0,
                    "horizon": 21600.0,
                    "pricing": {"revenue_per_request": 0.02, "cost_per_core_hour": 0.15},
                    "policies": ["profit", "spot-30"],
                    "backends": ["fluid"],
                    "seeds": "0",
                }
            ],
        }
    )


def test_kept_manifest_is_the_parse_of_its_bytes(tmp_path, spec, priced_spec, metrics):
    plain, priced = spec.expanded()[:2], priced_spec.expanded()
    assert all(isinstance(dict(cell.params)["pricing"], tuple) for cell in priced)
    store = ResultStore(tmp_path)
    for cell in plain + priced:
        store.put(cell, metrics)
        _assert_kept_manifest_is_the_parse(store)
    store.mark_failed(plain[0], "boom")
    _assert_kept_manifest_is_the_parse(store)
    store.mark_screened(priced[0], rejection_rate=0.25)
    _assert_kept_manifest_is_the_parse(store)
    store.delete(plain[1])
    _assert_kept_manifest_is_the_parse(store)
    store.refresh_manifest(plain + priced)
    _assert_kept_manifest_is_the_parse(store)
    assert store.manifest_path.read_text() == _reference_manifest(store.manifest())


def test_same_length_foreign_edit_with_its_mtime_restored_is_picked_up(tmp_path, spec, metrics):
    """The own-bytes check compares content: an edit that keeps the
    file's size and mtime, which a stamp check would miss, still reaches
    the next write."""
    a, b = spec.expanded()[:2]
    store = ResultStore(tmp_path)
    store.put(a, metrics)
    path = store.manifest_path
    before, stat = path.read_bytes(), path.stat()
    edited = before.replace(b'"status": "cached"', b'"status": "failed"')
    assert edited != before and len(edited) == len(before)
    path.write_bytes(edited)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert (path.stat().st_mtime_ns, path.stat().st_size) == (stat.st_mtime_ns, stat.st_size)
    store.put(b, metrics)
    cells = json.loads(path.read_bytes())["cells"]
    assert cells[a.key()]["status"] == "failed"
    assert cells[b.key()]["status"] == "cached"
    assert path.read_text() == _reference_manifest(cells)
    _assert_kept_manifest_is_the_parse(store)


def test_failed_manifest_write_leaves_no_unwritten_entry_behind(
    tmp_path, spec, metrics, monkeypatch
):
    a, b = spec.expanded()[:2]
    store = ResultStore(tmp_path)
    store.put(a, metrics)

    def disk_full(path, data, durable=True):
        raise OSError("disk full")

    monkeypatch.setattr("repro.campaigns.store._atomic_write", disk_full)
    with pytest.raises(OSError):
        store.mark_failed(b, "boom")
    monkeypatch.undo()
    # The manifest file is untouched, so the store must not report b.
    assert set(store.manifest()) == {a.key()}
    assert store.status_of(b) == "missing"
    store.mark_failed(b, "boom")
    _assert_kept_manifest_is_the_parse(store)


# ---------------------------------------------------------------------------
# batch: a group's entries land with one manifest write
# ---------------------------------------------------------------------------
def _count_manifest_writes(store, monkeypatch):
    """A list that gains one item per durable write of ``store``'s manifest."""
    from repro.campaigns import store as store_module

    writes = []
    write = store_module._atomic_write

    def counting(path, data, durable=True):
        if path == store.manifest_path:
            writes.append(data)
        write(path, data, durable)

    monkeypatch.setattr(store_module, "_atomic_write", counting)
    return writes


def test_batched_puts_write_the_manifest_once(tmp_path, spec, priced_spec, metrics, monkeypatch):
    cells = spec.expanded() + priced_spec.expanded()
    plain = ResultStore(tmp_path / "plain")
    for cell in cells:
        plain.put(cell, metrics)
    store = ResultStore(tmp_path / "batched")
    writes = _count_manifest_writes(store, monkeypatch)
    with store.batch():
        for cell in cells:
            store.put(cell, metrics)
        assert writes == [] and not store.manifest_path.exists()
    assert len(writes) == 1
    assert store.manifest_path.read_bytes() == plain.manifest_path.read_bytes()
    _assert_kept_manifest_is_the_parse(store)
    assert all(store.status_of(cell) == "cached" for cell in cells)


def test_exception_inside_a_batch_still_indexes_the_cells_put(tmp_path, spec, metrics, monkeypatch):
    cells = spec.expanded()
    store = ResultStore(tmp_path)
    writes = _count_manifest_writes(store, monkeypatch)
    with pytest.raises(RuntimeError, match="crashed after 2"):
        with store.batch():
            for cell in cells[:2]:
                store.put(cell, metrics)
            raise RuntimeError("crashed after 2")
    assert len(writes) == 1
    assert set(store.manifest()) == {cell.key() for cell in cells[:2]}
    _assert_kept_manifest_is_the_parse(store)
    # The store leaves batch mode: the next put writes at once.
    store.put(cells[2], metrics)
    assert len(writes) == 2


# ---------------------------------------------------------------------------
# corrupt files: valid JSON that is not an object fails at the boundary
# ---------------------------------------------------------------------------
def test_lease_that_is_not_an_object_reads_as_torn(tmp_path, spec):
    cell = spec.expanded()[0]
    store = ResultStore(tmp_path)
    store.lease_path(cell.key()).parent.mkdir(parents=True)
    store.lease_path(cell.key()).write_text("[]")
    assert store.lease_of(cell) is None
    # As for a torn lease, claim reports contention instead of raising.
    assert not store.claim(cell, "w", ttl=60.0).acquired


@pytest.mark.parametrize(
    "doc, error",
    [
        ([], "not a campaign manifest"),
        ({"format": _MANIFEST_FORMAT, "version": _MANIFEST_VERSION, "cells": []}, '"cells" is not an object'),
        ({"format": _MANIFEST_FORMAT, "version": _MANIFEST_VERSION, "cells": {"k": [1]}}, '"cells" is not an object'),
    ],
)
def test_manifest_that_is_not_an_object_is_a_configuration_error(tmp_path, doc, error):
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    store = ResultStore(tmp_path)
    with pytest.raises(ConfigurationError, match=f"manifest.json: {error}"):
        store.manifest()


def test_artifact_that_is_not_an_object_is_a_configuration_error(tmp_path, spec):
    cell = spec.expanded()[0]
    store = ResultStore(tmp_path)
    store.path_for(cell).parent.mkdir(parents=True)
    store.path_for(cell).write_text("[]")
    with pytest.raises(ConfigurationError, match=f"{cell.key()}.json: not a repro results file"):
        store.get(cell)


# ---------------------------------------------------------------------------
# golden smoke manifest and report: a cold campaigns/smoke.toml store,
# byte for byte
# ---------------------------------------------------------------------------
_REPO = Path(__file__).resolve().parent.parent
SMOKE = _REPO / "campaigns" / "smoke.toml"
SMOKE_MANIFEST = _REPO / "tests" / "golden" / "smoke-manifest.json"
SMOKE_REPORT = _REPO / "tests" / "golden" / "smoke-report.txt"


def test_cold_smoke_store_writes_the_golden_manifest(tmp_path):
    spec = CampaignSpec.load(SMOKE)
    run_campaign(spec, store=tmp_path, workers=1)
    assert (tmp_path / "manifest.json").read_bytes() == SMOKE_MANIFEST.read_bytes()
    # The table `repro campaign report` prints for that store.
    data = campaign_report(spec, ResultStore(tmp_path))
    render = format_table(data.headers, data.rows, title=data.title) + "\n"
    assert render.encode() == SMOKE_REPORT.read_bytes()
