"""Cross-cell aggregation — campaign results as paper-style tables.

Two views over a campaign's store:

* :func:`campaign_report` — the figure view: one row per
  ``(scenario, policy, backend)`` group with the paper's Figure-5/6
  panel metrics plus QoS attainment and profit, summarized across the
  group's replication seeds by the shared
  :func:`~repro.metrics.report.summary_cells` helper (mean, or
  ``mean ± ci95`` with several seeds).  The result is a
  :class:`~repro.experiments.figures.FigureData`, so the experiments
  CLI's markdown/CSV writers work on campaigns unchanged.  It is also
  the table ``repro run fig5`` / ``fig6`` and their variants print:
  those ids run one scenario block's cells without a store.
* :func:`campaign_status_rows` — the operational view: one row per
  cell with its store status, backing ``repro campaign status`` and
  the CI smoke job's completeness gate.

Plus the streaming composition of the two:

* :func:`campaign_agg` — re-renders the figure view as cells land in
  the store, so an operator can watch paper tables fill in live while
  any number of workers (local or remote shards) execute the grid.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from ..backends.base import RunMetrics
from ..experiments.figures import FigureData
from ..metrics.report import format_markdown_table, summary_cells
from .spec import CampaignSpec, Cell
from .store import ResultStore

__all__ = ["campaign_agg", "campaign_report", "campaign_status_rows"]

#: The Figure-5/6 panel metrics, in column order — (a) min/max
#: instances, (b) rejection and utilization, (c) VM hours, (d) response
#: time ± σ and QoS violations — then the paper-style QoS-attainment and
#: economy objectives.
_REPORT_FIELDS: Tuple[str, ...] = (
    "min_instances",
    "max_instances",
    "rejection_rate",
    "utilization",
    "vm_hours",
    "mean_response_time",
    "response_time_std",
    "qos_violations",
    "qos_attainment",
    "profit",
)


def _grouped(cells: List[Cell]) -> List[Tuple[Tuple, List[Cell]]]:
    groups: Dict[Tuple, List[Cell]] = {}
    order: List[Tuple] = []
    for cell in cells:
        gkey = (cell.scenario, cell.params, cell.policy, cell.backend)
        if gkey not in groups:
            groups[gkey] = []
            order.append(gkey)
        groups[gkey].append(cell)
    return [(g, groups[g]) for g in order]


def campaign_report(
    spec: CampaignSpec,
    store: Union[ResultStore, Mapping[Cell, RunMetrics]],
    quick: bool = False,
    ci: bool = True,
) -> FigureData:
    """Aggregate every stored cell into one paper-style summary table.

    ``store`` is read only through ``store.get(cell)``: a
    :class:`~repro.campaigns.store.ResultStore`, or a run's
    ``{Cell: RunMetrics}`` dict (what ``repro run fig5`` tabulates).
    Groups with no stored results at all are reported with dashes so
    an incomplete campaign still renders (the ``seeds`` column shows
    ``found/wanted``).
    """
    headers = [
        "scenario",
        "policy",
        "backend",
        "seeds",
        "min inst",
        "max inst",
        "rejection",
        "utilization",
        "VM hours",
        "avg Tr (s)",
        "std Tr (s)",
        "QoS violations",
        "P[T<=Ts]",
        "profit",
    ]
    rows: List[List[object]] = []
    raw_results: Dict[str, List[RunMetrics]] = {}
    for _, members in _grouped(spec.expanded(quick=quick)):
        head = members[0]
        results = [m for m in (store.get(c) for c in members) if m is not None]
        label = f"{head.scenario_label()}/{head.policy_label}/{head.backend}"
        raw_results[label] = results
        prefix = [
            head.scenario_label(),
            head.policy_label,
            head.backend,
            f"{len(results)}/{len(members)}",
        ]
        if results:
            rows.append(prefix + summary_cells(results, _REPORT_FIELDS, ci=ci))
        else:
            rows.append(prefix + ["-"] * len(_REPORT_FIELDS))
    return FigureData(
        experiment_id=f"campaign-{spec.name}" + ("-quick" if quick else ""),
        title=f"Campaign report: {spec.name}"
        + (f" — {spec.description}" if spec.description else ""),
        headers=headers,
        rows=rows,
        raw={"results": raw_results, "spec": spec},
    )


def campaign_status_rows(
    spec: CampaignSpec,
    store: ResultStore,
    quick: bool = False,
) -> Tuple[List[str], List[List[object]], Dict[str, int]]:
    """Per-cell status table + status counts for ``campaign status``.

    Returns ``(headers, rows, counts)`` where ``counts`` maps each
    observed status (``cached`` / ``screened`` / ``failed`` /
    ``claimed`` / ``missing``) to its cell count.  ``claimed`` means a
    live worker holds the cell's lease; a lease older than the spec's
    ``lease_ttl`` is reclaimable and reports as ``missing``.
    """
    headers = ["scenario", "policy", "backend", "seed", "status", "key"]
    rows: List[List[object]] = []
    counts: Dict[str, int] = {}
    # One filesystem-clock probe for the whole scan — and none at all
    # when no leases exist (the common post-campaign case).
    now = store.fs_now() if store.active_leases(fs_now=0.0) else None
    for cell in spec.expanded(quick=quick):
        status = store.status_of(cell, lease_ttl=spec.lease_ttl, fs_now=now)
        counts[status] = counts.get(status, 0) + 1
        rows.append(
            [
                cell.scenario_label(),
                cell.policy_label,
                cell.backend,
                cell.seed,
                status,
                cell.key()[:12],
            ]
        )
    return headers, rows, counts


def campaign_agg(
    spec: CampaignSpec,
    store: Optional[Union[str, ResultStore]] = None,
    quick: bool = False,
    ci: bool = True,
    follow: bool = False,
    interval: float = 2.0,
    out: Optional[Callable[[str], None]] = None,
    max_refreshes: Optional[int] = None,
    render: Optional[Callable[[FigureData], str]] = None,
) -> int:
    """Stream partial paper-style tables as cells land in the store.

    Renders :func:`campaign_report` over whatever the store holds right
    now — dashes for untouched groups, partial ``found/wanted`` seed
    counts for in-progress ones — and, with ``follow``, re-renders
    every ``interval`` seconds until every cell is terminal (``cached``
    / ``screened`` / ``failed``).  Cells merely ``claimed`` by live
    workers keep the loop alive: ``agg`` is the observer half of a
    sharded campaign, aggregating concurrent workers' output without
    executing anything itself.

    Returns the number of refreshes rendered (at least 1).
    """
    if not isinstance(store, ResultStore):
        store = ResultStore(spec.store_path(store))
    cells = spec.expanded(quick=quick)
    write = out or print
    show = render or (lambda data: _default_render(data))
    refreshes = 0
    while True:
        _, _, counts = campaign_status_rows(spec, store, quick=quick)
        done = sum(counts.get(s, 0) for s in ("cached", "screened", "failed"))
        data = campaign_report(spec, store, quick=quick, ci=ci)
        in_flight = counts.get("claimed", 0)
        trailer = f"[{done}/{len(cells)} cell(s)"
        if in_flight:
            trailer += f", {in_flight} in flight"
        trailer += "]"
        write(show(data).rstrip("\n") + f"\n{trailer}")
        refreshes += 1
        complete = done >= len(cells)
        exhausted = max_refreshes is not None and refreshes >= max_refreshes
        if complete or not follow or exhausted:
            return refreshes
        time.sleep(interval)


def _default_render(data: FigureData) -> str:
    return f"# {data.title}\n\n" + format_markdown_table(data.headers, data.rows)
