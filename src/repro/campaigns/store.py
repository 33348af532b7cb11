"""Content-addressed result store — the campaign engine's memory.

Every executed cell is persisted as one versioned persist-v2 results
file (see :mod:`repro.experiments.persist`) at a path derived from the
cell's content hash::

    <root>/cells/<key[:2]>/<key>.json
    <root>/leases/<key>.json
    <root>/manifest.json

The cell *files* are the source of truth: :meth:`ResultStore.has` and
:meth:`ResultStore.get` consult the filesystem, so deleting one cell's
artifact re-schedules exactly that cell on the next run, and a crash
between a cell write and a manifest update loses nothing (writes are
durable ``tmp + fsync + os.replace`` renames, and the manifest is
re-derivable at any time via :meth:`ResultStore.refresh_manifest`).

The manifest is a human/CI-queryable index — one entry per known cell
key with its identification, status (``cached`` / ``failed`` /
``screened``), and relative artifact path — used by ``repro campaign
status`` without loading any result payloads.  Concurrent workers
serialize manifest read-modify-write cycles through an advisory
``manifest.lock`` file; :meth:`ResultStore.batch` folds a whole cell
group's entries into one such cycle, after all of its artifacts.

Leases are the store-level claim protocol that lets several worker
processes (or hosts sharing a filesystem) cooperate on one grid:

* :meth:`claim` atomically creates ``leases/<key>.json`` with
  ``O_CREAT | O_EXCL`` — exactly one worker wins a contended cell.
* The lease file's **mtime is the heartbeat**: :meth:`renew` touches
  it; a lease whose mtime age exceeds the TTL is *stale* and
  :meth:`claim` steals it (rename to a claimant-unique tombstone, so
  concurrent stealers race on ``os.rename`` and exactly one wins).
* Staleness is judged against :meth:`fs_now` — the mtime of a freshly
  touched probe file — so lease ages live in the *filesystem's* clock
  domain and cross-host wall-clock skew on a shared store is harmless.

A lease is never a result: :meth:`refresh_manifest` ignores leases
when healing the index and prunes orphaned lease files whose cell
already has an artifact, so a crashed worker's leftovers are always
reclaimable work, never phantom completions.
"""

from __future__ import annotations

import copy
import json
import marshal
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..backends.base import RunMetrics
from ..errors import ConfigurationError
from ..experiments.persist import (
    _FORMAT,
    _VERSION,
    canonical_json,
    load_results,
    result_to_dict,
)
from .spec import CAMPAIGN_SCHEMA_VERSION, Cell

__all__ = ["ClaimOutcome", "Lease", "ResultStore"]

_MANIFEST_FORMAT = "repro-campaign-manifest"
_MANIFEST_VERSION = 1
#: The encoded manifest document before and after its "cells" object.
_MANIFEST_HEAD = f'{{\n "campaign_schema": {CAMPAIGN_SCHEMA_VERSION},\n "cells": '.encode()
_MANIFEST_TAIL = (
    f',\n "format": "{_MANIFEST_FORMAT}",\n "version": {_MANIFEST_VERSION}\n}}'.encode()
)
_LEASE_FORMAT = "repro-campaign-lease"
_LEASE_VERSION = 1
# How long a crashed worker may hold the manifest lock before other
# workers break it.  Manifest writes are milliseconds, so 10 s of age
# can only mean the holder died between create and unlink.
_LOCK_TTL = 10.0


def _atomic_write(path: Path, data: bytes, durable: bool = True) -> None:
    """Write-then-rename so readers never see a torn file.

    With ``durable`` (the default for artifacts and the manifest) the
    temp file is fsynced before the rename and the containing directory
    is fsynced after it, so a crash straight through the commit can
    never leave a manifest entry pointing at a torn or missing cell
    artifact.  Advisory files (leases, locks) skip the fsyncs — losing
    one on power failure just re-exposes the cell as claimable work.
    """
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    fd = os.open(tmp, os.O_CREAT | os.O_WRONLY | os.O_TRUNC, 0o644)
    try:
        os.write(fd, data)
        if durable:
            os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    if durable:
        _fsync_dir(path.parent)


def _fsync_dir(directory: Path) -> None:
    """Flush a rename to disk by fsyncing the directory inode."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir opens
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir fsync semantics
        pass
    finally:
        os.close(fd)


@dataclass(frozen=True)
class Lease:
    """One observed claim record: who owns a cell and for how long."""

    key: str
    owner: str
    age_seconds: float
    path: Path


@dataclass(frozen=True)
class ClaimOutcome:
    """Result of one :meth:`ResultStore.claim` attempt.

    ``owner`` is whoever holds the lease *after* the call — the caller
    on success, the competing worker on contention.  ``stolen_from``
    names the previous owner when acquisition went through a stale-lease
    steal.
    """

    acquired: bool
    owner: str
    stolen_from: Optional[str] = None


class ResultStore:
    """On-disk cache of cell results, keyed by content hash.

    Parameters
    ----------
    root:
        Store directory (created on first write).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self._manifest: Optional[Dict[str, dict]] = None
        self._manifest_stamp: Optional[object] = None
        # The manifest.json bytes this store last wrote, kept while
        # self._manifest is still their parse (None once it is not).
        self._manifest_bytes: Optional[bytes] = None
        # Cell key -> (entry, its encoded member b'"<key>": {...}') as of
        # the last manifest this store wrote; see _encode_manifest.
        self._entry_text: Dict[str, Tuple[dict, bytes]] = {}
        # Entries queued by _update_manifest inside batch() (None outside).
        self._queued: Optional[Dict[str, dict]] = None

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    @property
    def leases_root(self) -> Path:
        return self.root / "leases"

    def path_for(self, cell: Cell) -> Path:
        """The artifact path a cell's result lives at (may not exist)."""
        key = cell.key()
        return self.root / "cells" / key[:2] / f"{key}.json"

    def lease_path(self, key: str) -> Path:
        """The lease path guarding one cell key (may not exist)."""
        return self.leases_root / f"{key}.json"

    def telemetry_path(self, backend: str) -> str:
        """The directory, as a ``MetricsConfig.path``, that a campaign
        streams one backend's cell telemetry to by default.

        A stream is named after the cell's scenario, policy and seed
        only, so each backend gets its own directory.
        """
        return str(self.root / "telemetry" / backend) + "/"

    # ------------------------------------------------------------------
    # Filesystem clock
    # ------------------------------------------------------------------
    def fs_now(self) -> float:
        """The store filesystem's idea of "now" (seconds).

        Touches a per-process probe file and reads its mtime back, so
        the value is in the same clock domain as lease heartbeats —
        staleness decisions stay correct even when cooperating hosts
        disagree about wall-clock time.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        probe = self.root / f".clock-probe-{os.getpid()}"
        probe.write_bytes(b"")
        try:
            return probe.stat().st_mtime
        finally:
            try:
                probe.unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                pass

    # ------------------------------------------------------------------
    # Leases (work claiming)
    # ------------------------------------------------------------------
    def claim(
        self,
        cell: Cell,
        owner: str,
        ttl: float,
        fs_now: Optional[float] = None,
    ) -> ClaimOutcome:
        """Try to acquire the lease for ``cell``.

        Re-entrant for the same ``owner`` (re-claiming renews the
        heartbeat).  A lease older than ``ttl`` seconds is stolen: the
        stale file is renamed to a claimant-unique tombstone (only one
        concurrent stealer's ``os.rename`` succeeds) and acquisition is
        retried through the normal ``O_EXCL`` create.
        """
        key = cell.key()
        path = self.lease_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = canonical_json(
            {
                "format": _LEASE_FORMAT,
                "version": _LEASE_VERSION,
                "key": key,
                "owner": owner,
            }
        )
        stolen_from: Optional[str] = None
        for _ in range(4):
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                lease = self.lease_of_key(key, fs_now=fs_now)
                if lease is None:
                    continue  # holder released between EXCL and read
                if lease.owner == owner:
                    os.utime(path)
                    return ClaimOutcome(True, owner, stolen_from)
                if lease.age_seconds <= ttl:
                    return ClaimOutcome(False, lease.owner)
                # Stale: exactly one stealer wins the rename; losers
                # loop back and usually find the winner's fresh lease.
                tomb = path.with_name(
                    f"{path.name}.stale-{_fs_safe(owner)}"
                )
                try:
                    os.rename(path, tomb)
                except OSError:
                    continue
                try:
                    tomb.unlink()
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass
                stolen_from = lease.owner
                continue
            try:
                os.write(fd, payload.encode("utf-8"))
            finally:
                os.close(fd)
            return ClaimOutcome(True, owner, stolen_from)
        # Pathological churn: several claimants cycling faster than we
        # can observe.  Report contention; the scheduler retries later.
        return ClaimOutcome(False, "<contended>")

    def renew(self, key: str, owner: str) -> bool:
        """Heartbeat one held lease (touch its mtime).

        Returns ``False`` when the lease is gone or owned by someone
        else — the caller lost it (e.g. it went stale and was stolen).
        """
        lease = self.lease_of_key(key, fs_now=0.0)
        if lease is None or lease.owner != owner:
            return False
        try:
            os.utime(lease.path)
        except OSError:
            return False
        return True

    def release(self, key: str, owner: str) -> bool:
        """Drop one held lease; no-op (``False``) if not held by ``owner``."""
        lease = self.lease_of_key(key, fs_now=0.0)
        if lease is None or lease.owner != owner:
            return False
        try:
            lease.path.unlink()
        except OSError:
            return False
        return True

    def lease_of(self, cell: Cell, fs_now: Optional[float] = None) -> Optional[Lease]:
        """The lease guarding ``cell``, or ``None`` when unclaimed."""
        return self.lease_of_key(cell.key(), fs_now=fs_now)

    def lease_of_key(self, key: str, fs_now: Optional[float] = None) -> Optional[Lease]:
        """Read one lease record by cell key (``None`` when absent/torn).

        Pass ``fs_now`` to reuse one :meth:`fs_now` probe across a scan
        (or ``0.0`` when only ownership matters, not age).
        """
        path = self.lease_path(key)
        try:
            stat = path.stat()
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(doc, dict) or doc.get("format") != _LEASE_FORMAT:
            return None
        now = self.fs_now() if fs_now is None else fs_now
        return Lease(
            key=key,
            owner=str(doc.get("owner", "<unknown>")),
            age_seconds=max(0.0, now - stat.st_mtime),
            path=path,
        )

    def has_leases(self) -> bool:
        """Cheap emptiness probe: is any lease record on disk?

        One ``scandir`` with early exit — the warm-path guard in the
        scheduler calls this once per run, so it must cost syscalls,
        not a glob.
        """
        try:
            with os.scandir(self.leases_root) as entries:
                return any(e.name.endswith(".json") for e in entries)
        except OSError:
            return False

    def active_leases(self, fs_now: Optional[float] = None) -> List[Lease]:
        """Every lease currently on disk (stale ones included)."""
        if not self.leases_root.is_dir():
            return []
        keys = sorted(
            p.stem for p in self.leases_root.glob("*.json") if p.is_file()
        )
        if not keys:
            return []
        now = self.fs_now() if fs_now is None else fs_now
        leases = (self.lease_of_key(key, fs_now=now) for key in keys)
        return [lease for lease in leases if lease is not None]

    # ------------------------------------------------------------------
    # Cell results
    # ------------------------------------------------------------------
    def has(self, cell: Cell) -> bool:
        """Whether this cell's result is already on disk."""
        return self.path_for(cell).is_file()

    def get(self, cell: Cell) -> Optional[RunMetrics]:
        """The stored result, or ``None`` on a cache miss."""
        path = self.path_for(cell)
        if not path.is_file():
            return None
        results = load_results(path)
        if len(results) != 1:
            raise ConfigurationError(
                f"{path}: cell artifact holds {len(results)} results, expected 1"
            )
        return results[0]

    def put(self, cell: Cell, metrics: RunMetrics, status: str = "cached") -> Path:
        """Persist one cell result durably and index it."""
        path = self.path_for(cell)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "format": _FORMAT,
            "version": _VERSION,
            "campaign_schema": CAMPAIGN_SCHEMA_VERSION,
            "cell": cell.config(),
            "results": [result_to_dict(metrics)],
        }
        _atomic_write(path, canonical_json(doc).encode())
        self._update_manifest(cell, status=status)
        return path

    def delete(self, cell: Cell) -> bool:
        """Drop one cell's artifact (and its manifest entry)."""
        path = self.path_for(cell)
        existed = path.is_file()
        if existed:
            path.unlink()

        def drop(manifest: Dict[str, dict]) -> bool:
            return manifest.pop(cell.key(), None) is not None or existed

        self._mutate_manifest(drop)
        return existed

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    @contextmanager
    def _manifest_lock(self) -> Iterator[None]:
        """Advisory lock serializing manifest read-modify-write cycles.

        ``O_EXCL``-created lock file, spin-waited with short sleeps; a
        lock older than ``_LOCK_TTL`` (holder died mid-update) is
        broken.  Lock ages use the filesystem clock, like leases.
        """
        lock = self.root / "manifest.lock"
        self.root.mkdir(parents=True, exist_ok=True)
        waited = 0.0
        while True:
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
                break
            except FileExistsError:
                try:
                    age = self.fs_now() - lock.stat().st_mtime
                except OSError:
                    continue  # holder released between EXCL and stat
                if age > _LOCK_TTL or waited > _LOCK_TTL:
                    # Name the store so an operator staring at a stuck
                    # `status --require-complete` / `agg --follow` can
                    # tell *which* store's holder died mid-update.
                    print(
                        f"warning: breaking stale manifest lock in {self.root} "
                        f"(lock age {age:.1f}s, waited {waited:.1f}s)",
                        file=sys.stderr,
                    )
                    try:
                        lock.unlink()
                    except OSError:  # pragma: no cover - racing breakers
                        pass
                    continue
                time.sleep(0.002)
                waited += 0.002
        try:
            yield
        finally:
            try:
                lock.unlink()
            except OSError:  # pragma: no cover - lock was broken
                pass

    def _mutate_manifest(self, mutate) -> None:
        """Apply ``mutate(manifest) -> bool`` under the manifest lock.

        The manifest is re-read from disk inside the lock so concurrent
        workers' updates compose instead of clobbering each other.  When
        the bytes read are the ones this store last wrote, the kept
        manifest already is their parse and is used as it is; any other
        bytes (another worker's write) are parsed.  The check compares
        content, not the file's mtime and size, so a foreign write is
        never missed.

        ``mutate`` returns ``False`` when it changed nothing.  It
        replaces entries (``manifest[key] = entry``, ``pop``) and never
        edits one in place: :meth:`_encode_manifest` reuses an entry's
        text while the entry is the object the text was encoded from.
        """
        with self._manifest_lock():
            manifest = self._load_manifest(fresh=True)
            # Until a write lands, the kept manifest may stop being the
            # parse of the file's bytes, and the old bytes need not stay
            # in memory while the new ones are built.
            self._manifest_bytes = None
            try:
                if mutate(manifest) is not False:
                    self._write_manifest(manifest)
            except BaseException:
                # Possibly half-mutated: the next load reads the file.
                self._manifest = None
                raise

    def _load_manifest(self, fresh: bool = False) -> Dict[str, dict]:
        """The manifest index, parsed unless the file holds this store's last write.

        Without ``fresh``, an unchanged ``(mtime, size)`` stamp skips
        reading the file at all.
        """
        try:
            stat = self.manifest_path.stat()
            stamp = (stat.st_mtime_ns, stat.st_size)
        except OSError:
            stamp = None
        if not fresh and self._manifest is not None and stamp == self._manifest_stamp:
            return self._manifest
        if stamp is None:
            self._manifest, self._manifest_bytes = {}, None
        else:
            data = self.manifest_path.read_bytes()
            if data != self._manifest_bytes:
                self._manifest, self._manifest_bytes = self._parse_manifest(data), None
        self._manifest_stamp = stamp
        return self._manifest

    def _parse_manifest(self, data: bytes) -> Dict[str, dict]:
        doc = json.loads(data)
        if not isinstance(doc, dict) or doc.get("format") != _MANIFEST_FORMAT:
            raise ConfigurationError(f"{self.manifest_path}: not a campaign manifest")
        if doc.get("version") != _MANIFEST_VERSION:
            raise ConfigurationError(
                f"{self.manifest_path}: unsupported manifest version "
                f"{doc.get('version')!r} (this build reads {_MANIFEST_VERSION})"
            )
        cells = doc.get("cells", {})
        if not isinstance(cells, dict) or not all(isinstance(e, dict) for e in cells.values()):
            raise ConfigurationError(
                f"{self.manifest_path}: \"cells\" is not an object of entry objects"
            )
        return dict(cells)

    def _write_manifest(self, manifest: Dict[str, dict]) -> None:
        """Write ``manifest`` and keep it as the parse of the bytes written.

        Its entries must be JSON values, exactly what ``json.loads``
        returns (see :meth:`_entry`), for that to hold.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        data = self._encode_manifest(manifest)
        _atomic_write(self.manifest_path, data)
        self._manifest, self._manifest_bytes = manifest, data
        try:
            stat = self.manifest_path.stat()
            self._manifest_stamp = (stat.st_mtime_ns, stat.st_size)
        except OSError:  # pragma: no cover - racing delete
            self._manifest_stamp = None

    def _encode_manifest(self, manifest: Dict[str, dict]) -> bytes:
        """The manifest document as :func:`canonical_json` writes it, encoded.

        Encoded a member at a time so a write re-encodes only the
        entries that changed since this store's last write.  A member's
        remembered text is reused while its entry is the object the text
        was encoded from.  Any other entry (every entry after another
        worker's write) reuses it only when its ``marshal`` bytes equal
        the remembered entry's.  Marshal records every value's type and
        exact bits (``1``, ``1.0`` and ``True`` differ, so do ``0.0`` and
        ``-0.0``), so equal bytes mean an identical encoding, which
        ``==`` alone does not promise.  Entries marshal cannot write
        (subclasses such as an ``IntEnum``) are re-encoded every time.
        """
        remembered, self._entry_text = self._entry_text, {}
        members = []
        for key in sorted(manifest):
            entry = manifest[key]
            memo = remembered.get(key)
            if memo is None or (memo[0] is not entry and not _same_marshal(memo[0], entry)):
                memo = (entry, f"{_escape(key)}: {canonical_json(entry, depth=2)}".encode())
            else:
                memo = (entry, memo[1])
            self._entry_text[key] = memo
            members.append(memo[1])
        if not members:
            return _MANIFEST_HEAD + b"{}" + _MANIFEST_TAIL
        # One join builds the document, so no second copy of it is made.
        members[0] = _MANIFEST_HEAD + b"{\n  " + members[0]
        members[-1] += b"\n }" + _MANIFEST_TAIL
        return b",\n  ".join(members)

    def _entry(self, cell: Cell, status: str, **extra: object) -> dict:
        """``cell``'s manifest entry, made of JSON values.

        The entry is what ``json.loads`` returns for its own encoding
        (lists where the cell's pricing holds tuples), so a manifest
        built of these entries equals the parse of the bytes written
        from it.
        """
        entry = dict(cell.config(), status=status, **extra)
        # Only "cached" entries have an artifact; "failed" and
        # "screened" are manifest-only records.
        entry["file"] = (
            str(self.path_for(cell).relative_to(self.root)) if status == "cached" else None
        )
        return json.loads(canonical_json(entry))

    def _update_manifest(self, cell: Cell, status: str, **extra: object) -> None:
        entries = {cell.key(): self._entry(cell, status, **extra)}
        if self._queued is not None:
            self._queued.update(entries)
        else:
            self._record(entries)

    def _record(self, entries: Dict[str, dict]) -> None:
        """Index ``entries`` (key -> entry) with one manifest mutation."""

        def record(manifest: Dict[str, dict]) -> bool:
            changed = False
            for key, entry in entries.items():
                if manifest.get(key) != entry:
                    manifest[key] = entry
                    changed = True
            return changed

        self._mutate_manifest(record)

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Index every cell the block records with one manifest write.

        Inside the block, :meth:`put`, :meth:`mark_failed` and
        :meth:`mark_screened` write their artifacts as usual but queue
        their manifest entries; on exit, exception or not, one locked
        read-modify-write records them all.  Nobody can see a queued
        cell as indexed before the block ends, so a caller releases the
        cells' leases after it.
        """
        self._queued = {}
        try:
            yield
        finally:
            queued, self._queued = self._queued, None
            if queued:
                self._record(queued)

    def mark_failed(self, cell: Cell, error: str) -> None:
        """Record a failed cell in the manifest (no artifact written)."""
        self._update_manifest(cell, status="failed", error=error)

    def mark_screened(self, cell: Cell, rejection_rate: float) -> None:
        """Record a fluid-prescreened cell (no artifact written)."""
        self._update_manifest(cell, status="screened", rejection_rate=rejection_rate)

    def status_of(
        self,
        cell: Cell,
        lease_ttl: Optional[float] = None,
        fs_now: Optional[float] = None,
    ) -> str:
        """``cached`` / ``screened`` / ``failed`` / ``claimed`` / ``missing``.

        Disk truth first: an artifact on disk is ``cached`` no matter
        what the index says; an unfinished cell under an active lease is
        ``claimed`` (in flight on some worker); manifest-only entries
        report their recorded status (``screened`` / ``failed``);
        everything else is ``missing``.  With ``lease_ttl`` given, a
        lease older than the TTL counts as reclaimable — the cell
        reports ``missing`` again, matching what :meth:`claim` would do.
        """
        if self.has(cell):
            return "cached"
        lease = self.lease_of(cell, fs_now=0.0 if lease_ttl is None else fs_now)
        if lease is not None and (lease_ttl is None or lease.age_seconds <= lease_ttl):
            return "claimed"
        entry = self._load_manifest().get(cell.key())
        if entry and entry.get("status") in ("screened", "failed"):
            return entry["status"]
        return "missing"

    def manifest(self) -> Dict[str, dict]:
        """A copy of the manifest index (key → entry).

        The entries are copies too: editing them leaves the store's
        own view (``status_of``, the next manifest write) untouched.
        """
        return copy.deepcopy(self._load_manifest())

    def refresh_manifest(self, cells: Iterable[Cell]) -> Dict[str, dict]:
        """Re-derive manifest entries for ``cells`` from the filesystem.

        Heals the index after a crash between a cell write and the
        manifest update: every on-disk artifact gains (or keeps) an
        entry, entries whose artifact vanished are dropped (unless they
        record a failure, which has no artifact by construction).
        Leases are *never* treated as results — an orphaned lease left
        by a dead worker stays reclaimable work — and lease files whose
        cell already has an artifact are pruned as part of the heal.
        """
        cells = list(cells)
        healed: Dict[str, dict] = {}

        def heal(manifest: Dict[str, dict]) -> bool:
            changed = False
            for cell in cells:
                key = cell.key()
                entry = manifest.get(key)
                if self.has(cell):
                    if entry is None or entry.get("status") != "cached":
                        manifest[key] = self._entry(cell, "cached")
                        changed = True
                    # A finished cell needs no claim: drop the orphan
                    # lease so status/watch stop reporting it in flight.
                    try:
                        self.lease_path(key).unlink()
                    except OSError:
                        pass
                elif entry is not None and entry.get("status") == "cached":
                    manifest.pop(key)
                    changed = True
            healed.clear()
            healed.update(manifest)
            return changed

        self._mutate_manifest(heal)
        return copy.deepcopy(healed)


def _same_marshal(a: object, b: object) -> bool:
    """Whether ``a`` and ``b`` have equal ``marshal`` bytes (see ``_encode_manifest``)."""
    try:
        return marshal.dumps(a, 2) == marshal.dumps(b, 2)
    except ValueError:
        return False


def _fs_safe(owner: str) -> str:
    """An owner id reduced to filename-safe characters."""
    return "".join(ch if ch.isalnum() or ch in "._-" else "-" for ch in owner)
