"""Per-figure data regeneration.

One function per workload table/figure of the paper's evaluation
section (see the experiment index in DESIGN.md §5).  Each returns a
:class:`FigureData` — headers plus one row per series element — which
the benchmarks print and the CLI writes to disk.  Figures 5 and 6 (the
policy comparisons) are campaign scenario blocks instead: ``repro run
fig5`` runs one block's cells and prints
:func:`~repro.campaigns.report.campaign_report`, which also returns a
:class:`FigureData`.  Absolute numbers are compared to the paper in
EXPERIMENTS.md; the *shape* contracts (who wins, by what factor) are
asserted by the integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..metrics.timeseries import bin_counts
from ..sim.calendar import SECONDS_PER_DAY, SECONDS_PER_WEEK
from ..sim.rng import RandomStreams
from ..workloads.scientific import ScientificWorkload
from ..workloads.web import TABLE_II, WebWorkload

__all__ = [
    "FigureData",
    "table2_data",
    "fig3_data",
    "fig4_data",
    "workload_analysis_data",
]

@dataclass
class FigureData:
    """Regenerated data for one paper artifact.

    Attributes
    ----------
    experiment_id:
        DESIGN.md experiment index id (``fig5``, ``table2`` …).
    title:
        Human-readable caption.
    headers, rows:
        The printable table.
    raw:
        Free-form payload (per-replication results, series arrays…)
        for tests and plotting.
    """

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[object]]
    raw: Dict[str, object] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Table II and the arrival-curve figures
# ----------------------------------------------------------------------
def table2_data() -> FigureData:
    """Table II — min/max requests per second on each week day."""
    names = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday")
    # The paper's table is ordered Sunday-first.
    order = (6, 0, 1, 2, 3, 4, 5)
    rows: List[List[object]] = []
    day_names_sunday_first = ("Sunday",) + names
    for label, day in zip(day_names_sunday_first, order):
        rmax, rmin = TABLE_II[day]
        rows.append([label, rmax, rmin])
    return FigureData(
        experiment_id="table2",
        title="Table II: min/max requests per second per week day (web)",
        headers=["week day", "maximum", "minimum"],
        rows=rows,
        raw={"table": dict(TABLE_II)},
    )


def fig3_data(bin_width: float = 3600.0, seed: int = 0, sampled: bool = False) -> FigureData:
    """Figure 3 — average requests/s over one week (web workload).

    By default returns the exact Eq.-2 model curve; with
    ``sampled=True`` it also realizes one week of 60-s interval counts
    (≈ 500 M arrivals at full paper scale).  Only the counts are drawn
    (:meth:`~repro.workloads.web.WebWorkload.window_count`), with the
    stream advanced as if every arrival time had been, so the rates are
    those of the full realization.
    """
    web = WebWorkload()
    grid = np.arange(0.0, SECONDS_PER_WEEK, bin_width)
    curve = np.asarray(web.mean_rate(grid))
    raw: Dict[str, object] = {"times": grid, "model_rate": curve}
    if sampled:
        rng = RandomStreams(seed).get("fig3.arrivals")
        realized = []
        t = 0.0
        while t < SECONDS_PER_WEEK:
            realized.append(web.window_count(rng, t) / web.window)
            t += web.window
        realized_arr = np.asarray(realized)
        # Downsample realized 60-s rates onto the requested bins.
        per_bin = max(1, int(bin_width / web.window))
        trimmed = realized_arr[: (realized_arr.size // per_bin) * per_bin]
        raw["realized_rate"] = trimmed.reshape(-1, per_bin).mean(axis=1)
    rows = [
        [f"{t/86400.0:.3f}", float(r)]
        for t, r in zip(grid[:: max(1, len(grid) // 28)], curve[:: max(1, len(grid) // 28)])
    ]
    return FigureData(
        experiment_id="fig3",
        title="Figure 3: average requests/s received over one week (web)",
        headers=["day", "requests/s"],
        rows=rows,
        raw=raw,
    )


def fig4_data(bin_width: float = 60.0, seed: int = 0) -> FigureData:
    """Figure 4 — requests/s over one day (scientific workload).

    Generates one realized day (≈ 10 k tasks) and bins arrivals; also
    includes the piecewise-constant expected-rate curve.
    """
    sci = ScientificWorkload()
    rng = RandomStreams(seed).get("fig4.arrivals")
    arrivals = []
    t = 0.0
    while t < SECONDS_PER_DAY:
        arrivals.append(sci.sample_window(rng, t))
        t += sci.window
    times = np.concatenate(arrivals) if arrivals else np.empty(0)
    starts, rates = bin_counts(times, 0.0, SECONDS_PER_DAY, bin_width)
    model = np.asarray(sci.mean_rate(starts))
    step = max(1, len(starts) // 24)
    rows = [
        [f"{s/3600.0:.2f}h", float(r), float(mr)]
        for s, r, mr in zip(starts[::step], rates[::step], model[::step])
    ]
    return FigureData(
        experiment_id="fig4",
        title="Figure 4: requests/s received over one day (scientific)",
        headers=["hour", "realized req/s", "model req/s"],
        rows=rows,
        raw={"times": starts, "realized_rate": rates, "model_rate": model, "arrivals": times},
    )


def workload_analysis_data(seed: int = 0) -> FigureData:
    """Contribution 2 — characterization of the two production workloads.

    The paper's §V analysis motivates why workload modeling feeds
    provisioning; this regenerates it quantitatively: both workloads
    are profiled (rate statistics, burstiness, batch structure, peak
    window) and the derived provisioning feedback — predictor safety
    factor and fleet band — is reported next to the paper's hand-picked
    values.
    """
    from ..workloads.analysis import characterize

    rng = RandomStreams(seed)
    web = WebWorkload().scaled(100.0)
    sci = ScientificWorkload()
    web_profile = characterize(web, rng.get("analysis.web"), SECONDS_PER_DAY, 60.0)
    sci_profile = characterize(sci, rng.get("analysis.sci"), SECONDS_PER_DAY, 300.0)
    headers = [
        "workload",
        "mean rate (req/s)",
        "p99 rate",
        "peak/mean",
        "burstiness (detrended IoD)",
        "batch fraction",
        "peak hours",
        "safety factor",
        "fleet band (m)",
    ]
    rows = []
    for name, profile, tm, rate_scale in (
        ("web", web_profile, 0.105, 100.0),
        ("scientific", sci_profile, 315.0, 1.0),
    ):
        band = profile.recommended_fleet(service_time=tm * (rate_scale if name == "web" else 1.0))
        peak = profile.peak_hours
        rows.append(
            [
                name,
                profile.mean_rate * rate_scale,
                profile.rate_p99 * rate_scale,
                profile.peak_to_mean,
                profile.index_of_dispersion_detrended,
                profile.batch_fraction,
                f"{peak[0]:.1f}-{peak[1]:.1f}" if peak else "none",
                profile.recommended_safety_factor(),
                f"{band[0]}-{band[1]}",
            ]
        )
    return FigureData(
        experiment_id="workload-analysis",
        title="Workload characterization (paper contribution 2)",
        headers=headers,
        rows=rows,
        raw={"web": web_profile, "scientific": sci_profile},
    )
