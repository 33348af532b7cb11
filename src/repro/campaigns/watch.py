"""Campaign watch — live cell progress from the store + snapshot streams.

``repro campaign watch`` renders one table row per cell of a campaign
grid: the cell's store status (``cached`` / ``failed`` / ``screened`` /
``running`` / ``claimed`` / ``pending``), its live progress when a
``metrics.snapshot`` stream exists under the store's
``telemetry/<backend>/`` directory (written by
:func:`repro.campaigns.scheduler.run_campaign` when invoked with a
:class:`~repro.obs.metrics.MetricsConfig`), and a campaign ETA
extrapolated from the wall time of the cells already in the store.

With several workers sharing one store, each worker streams its own
cells' telemetry into the same ``telemetry/`` tree, so a single
watcher aggregates progress across the whole fleet; lease records add
the owning worker per in-flight cell and an active-worker footer.

The watcher is a pure *reader*: it never touches the store's manifest
or artifacts beyond reads, so it can run next to a live campaign
process.  A running cell writes and flushes each snapshot to its
stream as it is taken; the watcher reads the last complete line and
skips a torn tail.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..metrics.report import format_table
from ..obs.metrics import MetricsConfig
from .spec import CampaignSpec, Cell
from .store import ResultStore

__all__ = ["CellProgress", "snapshot_progress", "watch_table", "watch"]


@dataclass(frozen=True)
class CellProgress:
    """One cell's state as seen by the watcher.

    ``fraction`` is simulated-time progress in ``[0, 1]`` (1.0 for
    finished cells, 0.0 when no snapshot stream exists yet);
    ``snapshot`` is the latest ``metrics.snapshot`` event of a live
    stream, or ``None``.
    """

    cell: Cell
    status: str
    fraction: float
    snapshot: Optional[dict] = None
    wall_seconds: Optional[float] = None
    owner: Optional[str] = None


def _last_snapshot(path: Path) -> Optional[dict]:
    """The final complete JSONL line of a (possibly growing) stream."""
    try:
        raw = path.read_bytes()
    except OSError:
        return None
    lines = raw.decode("utf-8", errors="replace").strip().splitlines()
    for line in reversed(lines):
        line = line.strip()
        if not line:
            continue
        try:
            return json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail line of a live writer
    return None


def snapshot_progress(
    store: ResultStore, cell: Cell, horizon: float
) -> CellProgress:
    """Progress of one cell from store status + its telemetry stream."""
    status = store.status_of(cell)
    wall: Optional[float] = None
    if status == "cached":
        metrics = store.get(cell)
        if metrics is not None:
            wall = float(metrics.wall_seconds)
        return CellProgress(cell, "cached", 1.0, wall_seconds=wall)
    if status in ("failed", "screened"):
        return CellProgress(cell, status, 1.0)
    # A claimed cell is running on some worker — show whose, and read
    # whatever telemetry that worker has streamed so far.
    lease = store.lease_of(cell, fs_now=0.0)
    owner = lease.owner if lease is not None else None
    config = MetricsConfig(path=store.telemetry_path(cell.backend))
    stream = config.resolve_path(cell.scenario_label(), cell.policy_label, cell.seed)
    snap = _last_snapshot(stream)
    if snap is None:
        return CellProgress(
            cell, "claimed" if owner else "pending", 0.0, owner=owner
        )
    fraction = min(1.0, float(snap.get("t", 0.0)) / horizon) if horizon > 0 else 0.0
    return CellProgress(cell, "running", fraction, snapshot=snap, owner=owner)


def _progress_bar(fraction: float, width: int = 10) -> str:
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def watch_table(
    spec: CampaignSpec,
    store: Optional[Union[str, ResultStore]] = None,
    quick: bool = False,
) -> str:
    """One refresh of the live campaign table (plus an ETA footer).

    The ETA is the mean stored ``wall_seconds`` of finished cells times
    the unfinished count — crude, but it only has to answer "minutes or
    hours?", and it improves as cells land.  It is rough for
    fluid groups: a copied result carries the whole ``wall_seconds`` of
    the run it copies, and a Spot seed's leaves out the control pass
    its group shares.
    """
    if not isinstance(store, ResultStore):
        store = ResultStore(spec.store_path(store))
    cells = spec.expanded(quick=quick)
    rows: List[List[object]] = []
    walls: List[float] = []
    done = 0
    for cell in cells:
        horizon = float(dict(cell.params).get("horizon", 0.0)) or float(
            cell.build_scenario().horizon
        )
        p = snapshot_progress(store, cell, horizon)
        if p.status in ("cached", "failed", "screened"):
            done += 1
        if p.wall_seconds is not None:
            walls.append(p.wall_seconds)
        detail = ""
        if p.snapshot is not None:
            s = p.snapshot
            detail = (
                f"fleet={int(s.get('fleet', 0))} "
                f"rej={float(s.get('rejection_rate', 0.0)):.2%} "
                f"viol={float(s.get('violation_fraction', 0.0)):.2%}"
            )
        if p.owner is not None:
            detail = (detail + f" @{p.owner}").strip()
        rows.append(
            [
                cell.label(),
                p.status,
                _progress_bar(p.fraction),
                f"{p.fraction:.0%}",
                detail,
            ]
        )
    table = format_table(
        ["cell", "status", "progress", "%", "latest snapshot"],
        rows,
        title=f"campaign {spec.name!r}: {done}/{len(cells)} cell(s) finished",
    )
    remaining = len(cells) - done
    if remaining and walls:
        eta = sum(walls) / len(walls) * remaining
        table += f"\nETA ~{eta:.0f}s for {remaining} remaining cell(s) (mean of {len(walls)} stored run(s))"
    elif remaining:
        table += f"\n{remaining} cell(s) remaining (no stored runs yet to extrapolate an ETA)"
    # Concurrent-worker footer: one line naming every live lease owner,
    # so a sharded campaign's watcher shows who is working the store.
    owners = sorted({lease.owner for lease in store.active_leases(fs_now=0.0)})
    if owners:
        table += f"\n{len(owners)} active worker(s): {', '.join(owners)}"
    return table


def watch(
    spec: CampaignSpec,
    store: Optional[Union[str, ResultStore]] = None,
    quick: bool = False,
    follow: bool = False,
    interval: float = 2.0,
    out: Callable[[str], None] = print,
    max_refreshes: Optional[int] = None,
) -> int:
    """Render the campaign table once (default) or until completion.

    With ``follow=True`` the table re-renders every ``interval``
    seconds until every cell is finished (or ``max_refreshes`` is
    exhausted — the testing hook).  Returns the number of refreshes
    rendered.
    """
    if not isinstance(store, ResultStore):
        store = ResultStore(spec.store_path(store))
    cells = spec.expanded(quick=quick)
    refreshes = 0
    while True:
        out(watch_table(spec, store, quick=quick))
        refreshes += 1
        if not follow:
            return refreshes
        statuses = [store.status_of(c) for c in cells]
        if all(s in ("cached", "failed", "screened") for s in statuses):
            return refreshes
        if max_refreshes is not None and refreshes >= max_refreshes:
            return refreshes
        time.sleep(interval)
