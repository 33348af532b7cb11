"""Campaign scheduler — desired grid vs observed store, reconciled.

The scheduler owns the campaign *control loop*; the per-cell runner in
:mod:`repro.campaigns.executor` owns the *mechanics* (pool dispatch,
retry, fluid prescreen).  Each :func:`run_campaign` invocation is one
reconciliation worker:

* the **desired state** is the expanded grid (optionally narrowed to a
  static shard via ``--shard i/N`` round-robin partitioning);
* the **observed state** is the :class:`~repro.campaigns.store.ResultStore`
  — artifacts are done, active leases are someone else's in-flight
  work, everything else is claimable;
* the loop **claims** pending cells through the store's lease protocol
  (``campaign.claim.*`` trace events cover acquire/steal/release),
  executes them, releases, and re-reconciles until every cell is
  terminal locally or held by a live peer.

Because claims are store-level and atomic, *any* number of plain
``repro campaign run`` invocations pointed at one store cooperate by
work-stealing: each round, a worker serves newly landed artifacts from
cache, claims what is free, and defers what a peer holds.  A worker
that dies mid-cell stops heartbeating its lease; once the lease age
passes the spec's ``lease_ttl`` any surviving worker steals it and
re-runs the cell.  Replays are idempotent — cell artifacts are
content-addressed and byte-stable (modulo the ``wall_seconds``
diagnostic), so an N-worker or N-shard campaign converges on a store
byte-identical in manifest and cell payloads to a sequential run.
"""

from __future__ import annotations

import os
import socket
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError
from ..obs.bus import TraceBus, TraceConfig
from ..obs.log import get_logger, kv
from ..obs.metrics import MetricsConfig
from ..obs.profile import Stopwatch
from . import executor as _runner
from .spec import CampaignSpec, Cell
from .store import ResultStore

_log = get_logger(__name__)

__all__ = [
    "CellOutcome",
    "CampaignResult",
    "default_owner",
    "parse_shard",
    "run_campaign",
]

#: Statuses a cell can end a campaign run in.
_STATUSES = ("executed", "cached", "screened", "failed", "skipped", "claimed")


def default_owner() -> str:
    """This worker's lease owner id (host-qualified, survives forks)."""
    return f"{socket.gethostname()}:{os.getpid()}"


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse an ``i/N`` shard designator into ``(index, count)``."""
    try:
        index_text, count_text = text.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ConfigurationError(
            f"shard must look like i/N (e.g. 0/2), got {text!r}"
        ) from None
    _check_shard(index, count)
    return index, count


def _check_shard(index: int, count: int) -> None:
    if count < 1:
        raise ConfigurationError(f"shard count must be >= 1, got {count}")
    if not 0 <= index < count:
        raise ConfigurationError(
            f"shard index must be in [0, {count}), got {index}"
        )


@dataclass(frozen=True)
class CellOutcome:
    """What happened to one cell during one campaign run.

    ``status`` is one of ``executed`` (ran this time), ``cached``
    (served from the store), ``screened`` (fluid prescreen ruled it
    out), ``failed`` (all retries exhausted; ``error`` holds the
    message), ``skipped`` (left pending by ``max_cells`` or assigned to
    another shard), or ``claimed`` (in flight on another live worker
    when this one finished).
    """

    cell: Cell
    status: str
    error: Optional[str] = None


@dataclass
class CampaignResult:
    """Summary of one :func:`run_campaign` invocation."""

    outcomes: List[CellOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0

    def by_status(self, status: str) -> List[Cell]:
        return [o.cell for o in self.outcomes if o.status == status]

    @property
    def executed(self) -> List[Cell]:
        return self.by_status("executed")

    @property
    def cached(self) -> List[Cell]:
        return self.by_status("cached")

    @property
    def screened(self) -> List[Cell]:
        return self.by_status("screened")

    @property
    def failed(self) -> List[Cell]:
        return self.by_status("failed")

    @property
    def skipped(self) -> List[Cell]:
        return self.by_status("skipped")

    @property
    def claimed(self) -> List[Cell]:
        return self.by_status("claimed")

    def counts(self) -> Dict[str, int]:
        counts = {status: 0 for status in _STATUSES}
        for o in self.outcomes:
            counts[o.status] = counts.get(o.status, 0) + 1
        return counts

    def summary_line(self) -> str:
        counts = self.counts()
        parts = [f"{counts[s]} {s}" for s in _STATUSES if counts[s]]
        return (
            f"campaign: {len(self.outcomes)} cell(s) — "
            + (", ".join(parts) if parts else "nothing to do")
            + f"  ({self.wall_seconds:.2f}s)"
        )


def _group_cells(cells: Sequence[Cell]) -> List[Tuple[Cell, List[Cell]]]:
    """Group cells sharing (scenario, params, policy, backend).

    Returns ``(representative, members)`` pairs in first-seen order;
    members differ only by seed, so one ``run_replications`` call
    covers the whole group.
    """
    groups: Dict[Tuple, List[Cell]] = {}
    order: List[Tuple] = []
    for cell in cells:
        gkey = (cell.scenario, cell.params, cell.policy, cell.backend)
        if gkey not in groups:
            groups[gkey] = []
            order.append(gkey)
        groups[gkey].append(cell)
    return [(groups[g][0], groups[g]) for g in order]


def _build_bus(
    trace: Optional[Union[TraceBus, TraceConfig]], spec: CampaignSpec
) -> Tuple[Optional[TraceBus], bool]:
    """(bus, owns_it) — a TraceConfig builds a worker-scoped bus.

    The "seed" slot of the stream name carries the pid so concurrent
    workers tracing into the same store never interleave one file.
    """
    if trace is None:
        return None, False
    if isinstance(trace, TraceConfig):
        return trace.build(scenario=spec.name, policy="campaign", seed=os.getpid()), True
    return trace, False


class _Heartbeat:
    """Daemon thread renewing this worker's held leases.

    Renewal cadence is a quarter of the TTL, so a worker must miss four
    consecutive beats before its lease can be stolen.  SIGKILL takes
    the thread down with the process — exactly the crash-detection
    signal the staleness policy wants.
    """

    def __init__(self, store: ResultStore, owner: str, ttl: float) -> None:
        self._store = store
        self._owner = owner
        self._interval = min(60.0, max(0.05, ttl / 4.0))
        self._keys: set = set()
        self._mutex = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def add(self, key: str) -> None:
        with self._mutex:
            self._keys.add(key)
            # Started lazily on the first held lease, so a fully-warm
            # re-run (nothing to claim) never pays for a thread.
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="campaign-lease-heartbeat", daemon=True
                )
                self._thread.start()

    def discard(self, key: str) -> None:
        with self._mutex:
            self._keys.discard(key)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            with self._mutex:
                keys = tuple(self._keys)
            for key in keys:
                try:
                    self._store.renew(key, self._owner)
                except OSError:  # pragma: no cover - transient fs hiccup
                    pass


class _Claims:
    """This worker's view of the lease protocol (executor-facing).

    Wraps the store's claim/release primitives with heartbeat tracking
    and ``campaign.claim.*`` trace events.  With ``enabled=False`` the
    whole protocol is a no-op — the lease-free fast path used by the
    orchestration-overhead benchmark's baseline.
    """

    def __init__(
        self,
        store: ResultStore,
        owner: str,
        ttl: float,
        bus: Optional[TraceBus],
        elapsed: Callable[[], float],
        heartbeat: Optional[_Heartbeat],
        enabled: bool = True,
    ) -> None:
        self.store = store
        self.owner = owner
        self.ttl = ttl
        self.bus = bus
        self.elapsed = elapsed
        self.heartbeat = heartbeat
        self.enabled = enabled
        self.stolen = 0

    def claim_all(self, cells: Sequence[Cell]) -> Tuple[List[Cell], List[Cell]]:
        """Try to claim every cell; returns ``(claimed, contended)``."""
        if not self.enabled:
            return list(cells), []
        if not cells:
            return [], []
        claimed: List[Cell] = []
        contended: List[Cell] = []
        now = self.store.fs_now()  # one probe per batch, not per cell
        for cell in cells:
            outcome = self.store.claim(cell, self.owner, self.ttl, fs_now=now)
            if not outcome.acquired:
                contended.append(cell)
                continue
            claimed.append(cell)
            if self.heartbeat is not None:
                self.heartbeat.add(cell.key())
            if outcome.stolen_from is not None:
                self.stolen += 1
                _log.warning(
                    "stole stale lease: %s",
                    kv(cell=cell.label(), previous_owner=outcome.stolen_from),
                )
                if self.bus is not None:
                    self.bus.emit(
                        "campaign.claim.stolen",
                        self.elapsed(),
                        key=cell.key(),
                        owner=self.owner,
                        previous_owner=outcome.stolen_from,
                    )
            if self.bus is not None:
                self.bus.emit(
                    "campaign.claim.acquired",
                    self.elapsed(),
                    key=cell.key(),
                    owner=self.owner,
                )
        return claimed, contended

    def release_all(self, cells: Sequence[Cell]) -> None:
        """Release whichever of ``cells`` this worker still holds."""
        if not self.enabled:
            return
        for cell in cells:
            key = cell.key()
            if self.heartbeat is not None:
                self.heartbeat.discard(key)
            if self.store.release(key, self.owner) and self.bus is not None:
                self.bus.emit(
                    "campaign.claim.released",
                    self.elapsed(),
                    key=key,
                    owner=self.owner,
                )


def run_campaign(
    spec: CampaignSpec,
    store: Optional[Union[str, ResultStore]] = None,
    workers: Optional[int] = None,
    quick: bool = False,
    trace: Optional[Union[TraceBus, TraceConfig]] = None,
    max_cells: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    metrics: Optional[MetricsConfig] = None,
    shard: Optional[Union[str, Tuple[int, int]]] = None,
    owner: Optional[str] = None,
    lease_ttl: Optional[float] = None,
    coordinate: bool = True,
) -> CampaignResult:
    """Execute (or resume) a campaign against its result store.

    Parameters
    ----------
    spec:
        The validated campaign.
    store:
        A :class:`~repro.campaigns.store.ResultStore`, a directory
        path, or ``None`` for the spec's own store location.
    workers:
        Pool size per cell group; ``None`` uses ``spec.workers``
        (0 = one per CPU).
    quick:
        Expand the grid with each scenario block's ``quick`` overrides
        applied.  Quick cells hash differently from full cells — the
        two grids never collide in the store.
    trace:
        ``None``, a live :class:`~repro.obs.bus.TraceBus`, or a
        :class:`~repro.obs.bus.TraceConfig` (one worker-scoped bus is
        built and closed around the run).
    max_cells:
        Execute at most this many *new* cells, then leave the rest
        pending (``skipped``) — the testing hook for interrupt/resume
        semantics (cached and screened cells do not count).
    progress:
        Optional line sink (e.g. ``print``) for per-group progress.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsConfig` forwarded to
        every executed cell.  A config without a ``path`` is pointed at
        the store's ``telemetry/<backend>/`` directory
        (:meth:`~repro.campaigns.store.ResultStore.telemetry_path`),
        which is where ``repro campaign watch`` reads live snapshot
        streams from.
    shard:
        ``None`` (own the whole grid, work-stealing with any concurrent
        workers) or a static partition — ``"i/N"`` text or an
        ``(index, count)`` pair.  Shard *i* owns cells whose grid index
        is congruent to *i* mod *N*; off-shard cells report ``skipped``.
    owner:
        Lease owner id; defaults to :func:`default_owner`.
    lease_ttl:
        Seconds a silent lease stays protected before any worker may
        steal it; ``None`` uses ``spec.lease_ttl``.
    coordinate:
        ``False`` disables the lease protocol entirely (single-writer
        stores only) — the benchmark baseline for measuring claim
        overhead.

    Returns
    -------
    CampaignResult
        One :class:`CellOutcome` per cell of the expanded grid.
    """
    if not isinstance(store, ResultStore):
        store = ResultStore(spec.store_path(store))
    if workers is None:
        workers = spec.workers
    if workers == 0:  # 0 = auto: one worker per CPU
        workers = os.cpu_count() or 1
    pool_workers = max(1, int(workers))
    if isinstance(shard, str):
        shard = parse_shard(shard)
    if shard is not None:
        _check_shard(*shard)
    owner = owner or default_owner()
    ttl = float(spec.lease_ttl if lease_ttl is None else lease_ttl)
    if ttl <= 0:
        raise ConfigurationError(f"lease_ttl must be > 0, got {ttl}")

    cells = spec.expanded(quick=quick)
    bus, owns_bus = _build_bus(trace, spec)
    # Event clock for campaign.* traces: wall-clock seconds since
    # campaign start, read through the sanctioned duration meter.
    elapsed = Stopwatch().elapsed
    say = progress or (lambda line: None)
    result = CampaignResult()
    emitted: Dict[str, CellOutcome] = {}

    def finish(cell: Cell, status: str, error: Optional[str] = None) -> None:
        emitted[cell.key()] = CellOutcome(cell, status, error)

    # Desired state: this worker's slice of the grid.
    mine = list(cells)
    if shard is not None:
        index, count = shard
        mine = [c for i, c in enumerate(cells) if i % count == index]
        for i, cell in enumerate(cells):
            if i % count != index:
                finish(cell, "skipped")
        say(f"shard {index}/{count}: {len(mine)}/{len(cells)} cell(s)")

    heartbeat = _Heartbeat(store, owner, ttl) if coordinate else None
    claims = _Claims(
        store, owner, ttl, bus, elapsed, heartbeat, enabled=coordinate
    )
    budget = max_cells if max_cells is not None else len(mine)

    try:
        remaining = mine
        while remaining:
            deferred: List[Cell] = []
            advanced = 0

            # 1. Observe: serve everything already in the store (peers'
            #    results land here between rounds).
            pending: List[Cell] = []
            for cell in remaining:
                if store.has(cell):
                    finish(cell, "cached")
                    advanced += 1
                    if bus is not None:
                        bus.emit("campaign.cell.cached", elapsed(), key=cell.key())
                else:
                    pending.append(cell)
            if len(remaining) != len(pending):
                say(
                    f"cache: {len(remaining) - len(pending)}/{len(remaining)} "
                    "cell(s) already stored"
                )

            # 2. Fluid prescreen of expensive DES cells (optional).
            #    Twins are claimed like any other work; a twin held by a
            #    peer defers its DES cell to the next round.
            if spec.prescreen:
                pending, screened, held = _runner.prescreen_cells(
                    spec, store, pending, bus, elapsed, finish, say, claims
                )
                advanced += screened
                deferred.extend(held)

            # 3. Claim and execute the remaining cells, group by group.
            for head, members in _group_cells(pending):
                if budget <= 0:
                    for cell in members:
                        finish(cell, "skipped")
                    continue
                batch, rest = members[:budget], members[budget:]
                for cell in rest:
                    finish(cell, "skipped")
                claimed, contended = claims.claim_all(batch)
                deferred.extend(contended)
                # Everything under the lease lives inside one
                # try/finally: an exception anywhere between the claim
                # and the release (the landed re-check and its trace
                # emits included) must not leak leases until the TTL
                # steal — peers would stall a full staleness window.
                try:
                    # Re-check under the lease: a peer may have finished
                    # a cell between our cache scan and the claim —
                    # serve it instead of executing twice.
                    landed = [c for c in claimed if store.has(c)]
                    to_run = claimed
                    if landed:
                        for cell in landed:
                            finish(cell, "cached")
                            if bus is not None:
                                bus.emit(
                                    "campaign.cell.cached",
                                    elapsed(),
                                    key=cell.key(),
                                )
                        advanced += len(landed)
                        to_run = [c for c in claimed if not store.has(c)]
                    if to_run:
                        budget -= len(to_run)
                        _runner.run_group(
                            spec, store, head, to_run, pool_workers, bus,
                            elapsed, finish, say, metrics, claims,
                        )
                        advanced += len(to_run)
                finally:
                    # Normally a no-op (the runner releases per cell);
                    # an interrupt mid-group frees the untouched rest,
                    # and the landed cells release here too.
                    claims.release_all(claimed)

            if budget <= 0 and deferred:
                # Out of budget: contended cells are just "left pending",
                # same as the over-budget branch above.
                for cell in deferred:
                    finish(cell, "skipped")
                break
            if deferred and advanced == 0:
                # Every remaining cell is held by a live peer and nothing
                # landed this round — record them as in flight and let
                # `status`/`agg` observe the peers finishing.
                for cell in deferred:
                    finish(cell, "claimed")
                say(
                    f"{len(deferred)} cell(s) in flight on other worker(s); "
                    "not waiting"
                )
                break
            remaining = deferred
        if coordinate:
            # Heal the index (crash between artifact and manifest) and
            # prune orphan leases of finished cells.  A pure cache-served
            # re-run skips the heal: it wrote nothing, and a run that did
            # write already healed — this keeps the warm-path lease tax
            # inside the bench gate's 5% budget.
            wrote = any(
                o.status in ("executed", "failed", "screened")
                for o in emitted.values()
            )
            if wrote or claims.stolen or store.has_leases():
                store.refresh_manifest(cells)
        if claims.stolen:
            say(f"stole {claims.stolen} stale lease(s) from dead worker(s)")
    finally:
        if heartbeat is not None:
            heartbeat.stop()
        # Interrupt-path guarantee: a campaign killed mid-run must leave
        # every already-emitted event on disk.  Owned buses are closed
        # (final flush included); borrowed ones are flushed but left
        # open for the caller.
        if bus is not None:
            if owns_bus:
                bus.close()
            else:
                bus.flush()

    # Report outcomes in grid order.
    result.outcomes = [emitted[c.key()] for c in cells]
    result.wall_seconds = elapsed()
    return result
