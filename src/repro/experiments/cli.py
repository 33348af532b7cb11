"""Command-line entry point: regenerate any paper artifact.

Installed as ``repro``::

    repro list
    repro run table2
    repro run fig5 --scale 500 --seeds 0-1 --out results/
    repro run fig5 --workers 4
    repro run fig5 --backend fluid
    repro run fig5 --backend des-vec
    repro run fig5-fluid
    repro run all --quick
    repro run fig5 --quick --trace traces/
    repro run fig5 --metrics telemetry/
    repro trace traces/ --validate --timeline 20
    repro metrics show telemetry/
    repro metrics export telemetry/web-Adaptive-s0.jsonl --format prometheus
    repro lint src tests
    repro lint src --format json --rules determinism,layering
    repro campaign run campaigns/paper.toml --metrics
    repro campaign run campaigns/paper.toml --shard 0/2
    repro campaign watch campaigns/paper.toml --follow
    repro campaign status campaigns/paper.toml --require-complete
    repro campaign report campaigns/paper.toml --out results/
    repro campaign agg campaigns/paper.toml --follow

Each experiment prints its table to stdout; ``--out DIR`` additionally
writes ``<experiment>.md`` (markdown table) and ``<experiment>.csv``.
The Figure 5/6 ids (``fig5``, ``fig6`` and their ``-fluid`` /
``-fullscale`` variants) build one campaign scenario block from the
flags, run its cells without a store, and print the campaign report's
table for them.
DES experiments also print a perf summary — per-replication wall-clock,
engine event counts and Algorithm-1 decision-cache hits/misses — so performance regressions show up in every run, not only
in the benchmark suite.

``run --trace DIR`` writes one JSONL trace per (policy, seed)
replication (control-plane events only unless ``--trace-requests``);
``trace`` renders such files back into a summary table, a timeline, or
a narrated explanation of one Algorithm-1 decision, and validates them
against the event schema.

``run --metrics DIR`` writes one ``metrics.snapshot`` JSONL stream per
(policy, seed) replication; ``metrics show`` tabulates such streams and
``metrics export`` renders the latest snapshot in the Prometheus text
exposition format (self-validated before printing).

``campaign {run,status,report,agg}`` drives declarative scenario-grid
campaigns (:mod:`repro.campaigns`): ``run`` executes/resumes a spec
against its content-addressed result store (several concurrent ``run``
invocations — or static ``--shard i/N`` partitions — cooperate through
store-level cell leases with crash-stealing), ``status`` tabulates
per-cell cache state with a stable exit-code contract, ``report``
aggregates stored cells into the paper-style summary table, and
``agg`` streams that table live while workers fill the store.  The
campaigns package is imported lazily here — the library itself never
depends on it (the ``layering`` lint rule enforces that).

``lint`` runs the project's static-analysis rules (:mod:`repro.lint`,
see docs/static-analysis.md) with the contract CI relies on: exit 0 on
a clean tree, 1 on findings, 2 on internal error.  Like campaigns, the
lint package is a top layer imported lazily here.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from itertools import groupby
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .._version import __version__
from ..backends import BACKENDS
from ..errors import ConfigurationError, TraceSchemaError
from ..metrics.report import format_markdown_table, format_table
from ..obs.bus import TraceConfig
from ..obs.render import explain_decision, render_timeline, trace_summary_table
from ..obs.schema import CONTROL_EVENTS, load_trace, validate_trace
from . import figures
from .runner import RunMetrics, run_replications
from .seeds import parse_seeds

__all__ = ["main", "available_experiments"]


def available_experiments() -> Dict[str, str]:
    """Mapping of experiment id → description."""
    return {
        "table2": "Table II: web workload min/max rates per weekday",
        "fig3": "Figure 3: web arrival-rate curve over one week",
        "fig4": "Figure 4: scientific arrival rates over one day",
        "fig5": "Figure 5: web policy comparison (DES, rate-scaled)",
        "fig6": "Figure 6: scientific policy comparison (DES, full scale)",
        "fig5-fluid": "Figure 5 at full paper scale (fluid engine)",
        "fig6-fluid": "Figure 6 cross-check (fluid engine)",
        "fig5-fullscale": "Figure 5 at full paper scale (vectorized DES)",
        "fig6-fullscale": "Figure 6 replications (vectorized DES)",
        "workload-analysis": "Contribution 2: workload characterization + provisioning feedback",
    }


def _parse_seeds(spec: str) -> List[int]:
    """CLI adapter over the shared grammar (comma lists + ``0-9`` ranges)."""
    try:
        return parse_seeds(spec)
    except (ConfigurationError, ValueError) as exc:
        raise SystemExit(f"bad --seeds value {spec!r}: {exc}")


def _trace_config(args: argparse.Namespace) -> Optional[TraceConfig]:
    """Build the run subcommand's TraceConfig (None = tracing off)."""
    if not getattr(args, "trace", None):
        return None
    events = None if args.trace_requests else tuple(sorted(CONTROL_EVENTS))
    return TraceConfig(sink="jsonl", path=args.trace, events=events)


def _metrics_config(args: argparse.Namespace):
    """Build the run subcommand's MetricsConfig (None = metrics off)."""
    if not getattr(args, "metrics", None):
        return None
    from ..obs.metrics import MetricsConfig

    return MetricsConfig(path=args.metrics)


#: Figure 5/6 captions by scenario; the run's horizon and backend
#: complete them.
_CAPTIONS = {
    "web": "Figure 5: web scenario (Wikipedia workload)",
    "scientific": "Figure 6: scientific scenario (Grid Workloads Archive BoT)",
}


def _figure_spec(experiment: str, args: argparse.Namespace):
    """The one-block campaign a Figure 5/6 id runs (``None`` for other ids).

    ``fig5``/``fig6`` run on ``--backend``, fig5 at ``--scale`` over a
    week (a day under ``--quick``).  The ``-fluid`` and ``-fullscale``
    variants fix the fluid engine or the vectorized DES, and fig5's
    variants the paper's full rate over a week (``fig5-fullscale
    --quick``: scale 100 over a day).  Every id takes ``--seeds``.
    """
    from ..campaigns import CampaignSpec

    figure, _, variant = experiment.partition("-")
    backend = {"": args.backend, "fluid": "fluid", "fullscale": "des-vec"}.get(variant)
    if figure not in ("fig5", "fig6") or backend is None:
        return None
    block: Dict[str, object] = dict(figure=experiment, backends=[backend], seeds=args.seeds)
    if figure == "fig6":
        block.update(
            scenario="scientific",
            horizon="day",
            policies=["adaptive", "static-15", "static-30", "static-45", "static-60", "static-75"],
        )
    else:
        if not variant:
            scale, horizon = args.scale, "day" if args.quick else "week"
        elif args.quick and variant == "fullscale":
            scale, horizon = 100.0, "day"
        else:
            scale, horizon = 1.0, "week"
        block.update(
            scenario="web",
            scale=scale,
            horizon=horizon,
            policies=["adaptive", "static-50", "static-75", "static-100", "static-125", "static-150"],
        )
    caption = f"{_CAPTIONS[block['scenario']]}, one {block['horizon']}, {backend} backend"
    return CampaignSpec.from_dict(
        {"campaign": {"name": experiment, "description": caption}, "scenarios": [block]}
    )


def _run_figure(spec, args: argparse.Namespace) -> "figures.FigureData":
    """Run a Figure 5/6 spec's cells and tabulate them with ``campaign_report``.

    No store and no prescreen: each ``(policy, backend)`` group of the
    one scenario is one
    :func:`~repro.experiments.runner.run_replications` call with
    ``--workers`` and the per-replication ``--trace`` and ``--metrics``
    configs.  The table holds means over the seeds (``ci=False``).
    """
    from ..campaigns import campaign_report

    trace, metrics = _trace_config(args), _metrics_config(args)
    results: Dict[object, RunMetrics] = {}
    for _, group in groupby(spec.expanded(), key=lambda c: (c.policy, c.backend)):
        cells = list(group)
        head = cells[0]
        runs = run_replications(
            head.build_scenario(),
            head.policy_factory(),
            seeds=[c.seed for c in cells],
            workers=args.workers,
            trace=trace,
            backend=head.backend,
            metrics=metrics,
        )
        results.update(zip(cells, runs))
    data = campaign_report(spec, results, ci=False)
    data.experiment_id, data.title = spec.name, spec.description
    return data


def _build(experiment: str, args: argparse.Namespace) -> "figures.FigureData":
    seeds = _parse_seeds(args.seeds)
    if experiment == "table2":
        return figures.table2_data()
    if experiment == "fig3":
        return figures.fig3_data(sampled=not args.quick)
    if experiment == "fig4":
        return figures.fig4_data(seed=seeds[0])
    if experiment == "workload-analysis":
        return figures.workload_analysis_data(seed=seeds[0])
    spec = _figure_spec(experiment, args)
    if spec is None:
        raise SystemExit(f"unknown experiment {experiment!r}; try 'list'")
    return _run_figure(spec, args)


def _perf_summary(data: "figures.FigureData") -> List[str]:
    """Per-replication wall-clock + decision-cache lines for simulated runs."""
    lines: List[str] = []
    for runs in data.raw.get("results", {}).values():
        if not runs:
            continue
        walls = ", ".join(f"s{r.seed}={r.wall_seconds:.2f}s" for r in runs)
        hits = sum(r.cache_hits for r in runs)
        misses = sum(r.cache_misses for r in runs)
        events = sum(r.events for r in runs)
        line = f"  {runs[0].policy:<12s} wall [{walls}]  events {events}"
        if hits or misses:
            total = hits + misses
            line += f"  decision cache {hits}/{total} hits"
        lines.append(line)
    if lines:
        lines.insert(
            0,
            "perf: per-replication wall-clock, engine events "
            "and Algorithm-1 decision cache",
        )
    return lines


def _trace_files(path: Path) -> List[Path]:
    """The JSONL files a ``trace`` invocation covers (sorted), in
    subdirectories too: a campaign's telemetry has one per backend."""
    if path.is_dir():
        files = sorted(path.rglob("*.jsonl"))
        if not files:
            raise SystemExit(f"no .jsonl traces found in {path}")
        return files
    if not path.exists():
        raise SystemExit(f"trace file not found: {path}")
    return [path]


def _trace_command(args: argparse.Namespace) -> int:
    """Render/validate JSONL traces (the ``trace`` subcommand)."""
    failures = 0
    for trace_path in _trace_files(Path(args.path)):
        print(f"== {trace_path} ==")
        try:
            events = load_trace(trace_path)
        except TraceSchemaError as exc:
            print(f"  unreadable trace: {exc}")
            failures += 1
            continue
        if args.validate:
            try:
                n = validate_trace(events)
            except TraceSchemaError as exc:
                print(f"  INVALID: {exc}")
                failures += 1
                continue
            print(f"  valid: {n} event(s) conform to the trace schema")
        print(trace_summary_table(events, title=f"trace summary: {trace_path.name}"))
        if args.timeline is not None:
            for line in render_timeline(events, limit=args.timeline):
                print(line)
        if args.explain is not None:
            try:
                print(explain_decision(events, index=args.explain))
            except IndexError as exc:
                print(f"  {exc}")
                failures += 1
        print()
    return 1 if failures else 0


def _metrics_command(args: argparse.Namespace) -> int:
    """The ``metrics {show,export}`` handler.

    ``show`` tabulates one or more ``metrics.snapshot`` JSONL streams
    (every line schema-validated on load); ``export`` renders the last
    snapshot of one stream as Prometheus text — parsed back through
    :func:`~repro.obs.exporters.parse_prometheus_text` before printing,
    so malformed expositions can never be emitted.
    """
    from ..obs.exporters import (
        load_snapshots,
        parse_prometheus_text,
        snapshot_to_prometheus,
    )

    root = Path(args.path)
    files = _trace_files(root)
    if args.metrics_command == "export" and len(files) != 1:
        raise SystemExit(
            f"metrics export needs exactly one stream, got {len(files)}; "
            "pass a single .jsonl file"
        )
    failures = 0
    for stream in files:
        try:
            snapshots = load_snapshots(stream)
        except TraceSchemaError as exc:
            print(f"invalid snapshot stream: {exc}", file=sys.stderr)
            failures += 1
            continue
        if not snapshots:
            print(f"== {stream} ==\n  empty stream")
            continue
        if args.metrics_command == "export":
            if args.format == "jsonl":
                text = "".join(
                    json.dumps(s, sort_keys=True) + "\n" for s in snapshots
                )
            else:
                text = snapshot_to_prometheus(snapshots[-1])
                parse_prometheus_text(text)  # self-check before emitting
            if args.out:
                out_path = Path(args.out)
                out_path.parent.mkdir(parents=True, exist_ok=True)
                out_path.write_text(text)
                print(f"wrote {out_path}")
            else:
                print(text, end="")
            continue
        rows = [
            [
                f"{s['t']:.0f}",
                s["fleet"],
                s["accepted"],
                s["rejected"],
                s["completed"],
                s["violations"],
                f"{s['rejection_rate']:.2%}",
                f"{s['violation_fraction']:.2%}",
                f"{s['burn_rate']:.2f}",
                f"{s['p95']:.3f}",
            ]
            for s in snapshots
        ]
        print(
            format_table(
                ["t", "fleet", "acc", "rej", "done", "viol",
                 "rej%", "viol%", "burn", "p95<="],
                rows,
                title=f"metrics: {stream.relative_to(root) if root.is_dir() else stream.name} "
                f"({len(snapshots)} snapshot(s), "
                f"Ts={snapshots[-1]['qos_target']}s)",
            )
        )
        print()
    return 1 if failures else 0


def _write_outputs(data: "figures.FigureData", out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    md = out_dir / f"{data.experiment_id}.md"
    md.write_text(
        f"# {data.title}\n\n" + format_markdown_table(data.headers, data.rows) + "\n"
    )
    csv_path = out_dir / f"{data.experiment_id}.csv"
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(data.headers)
        writer.writerows(data.rows)


def _campaign_command(args: argparse.Namespace) -> int:
    """The ``campaign {run,watch,status,report,agg}`` handler.

    :mod:`repro.campaigns` is imported *here*, not at module level: the
    campaign engine sits above the experiments layer and nothing in the
    library proper may depend on it (the ``layering`` lint rule).

    Exit-code contract (stable for scripting):

    * ``run`` — 0 when no cell ended ``failed``; 1 otherwise.
    * ``status`` — 0; with ``--require-complete``, 1 unless every cell
      is ``cached`` or ``screened`` (``claimed``/in-flight cells count
      as incomplete and are reported separately).
    * ``watch`` / ``report`` / ``agg`` — 0 (they observe, never gate).
    * any subcommand — exits via ``SystemExit`` with a
      ``bad campaign spec: ...`` message on an invalid spec.
    """
    from ..campaigns import (
        CampaignSpec,
        ResultStore,
        campaign_agg,
        campaign_report,
        campaign_status_rows,
        run_campaign,
    )

    try:
        spec = CampaignSpec.load(args.spec)
    except ConfigurationError as exc:
        raise SystemExit(f"bad campaign spec: {exc}")
    store = ResultStore(spec.store_path(args.store))

    if args.campaign_command == "watch":
        from ..campaigns import watch

        watch(
            spec,
            store=store,
            quick=args.quick,
            follow=args.follow,
            interval=args.interval,
        )
        return 0

    if args.campaign_command == "agg":
        campaign_agg(
            spec,
            store=store,
            quick=args.quick,
            follow=args.follow,
            interval=args.interval,
        )
        if args.out:
            _write_outputs(
                campaign_report(spec, store, quick=args.quick), Path(args.out)
            )
        return 0

    if args.campaign_command == "run":
        trace = None
        if args.trace:
            trace = TraceConfig(
                sink="jsonl",
                path=args.trace,
                events=tuple(sorted(CONTROL_EVENTS)),
            )
        metrics = None
        if args.metrics:
            from ..obs.metrics import MetricsConfig

            # Path defaults to <store>/telemetry/<backend>/ for each
            # cell, which is where `campaign watch` looks for live streams.
            metrics = MetricsConfig()
        try:
            result = run_campaign(
                spec,
                store=store,
                workers=args.workers,
                quick=args.quick,
                trace=trace,
                metrics=metrics,
                max_cells=args.max_cells,
                progress=print,
                shard=args.shard,
                lease_ttl=args.lease_ttl,
            )
        except ConfigurationError as exc:
            raise SystemExit(f"campaign failed: {exc}")
        print(result.summary_line())
        return 1 if result.failed else 0

    if args.campaign_command == "status":
        headers, rows, counts = campaign_status_rows(spec, store, quick=args.quick)
        title = f"campaign: {spec.name}" + (
            f" — {spec.description}" if spec.description else ""
        )
        print(format_table(headers, rows, title=title))
        total = sum(counts.values())
        summary = ", ".join(f"{counts[s]} {s}" for s in sorted(counts))
        print(f"\n{total} cell(s): {summary}  (store: {store.root})")
        incomplete = total - counts.get("cached", 0) - counts.get("screened", 0)
        in_flight = counts.get("claimed", 0)
        if args.require_complete and incomplete:
            detail = f" ({in_flight} in flight on live worker(s))" if in_flight else ""
            print(f"INCOMPLETE: {incomplete} cell(s) not yet stored{detail}")
            return 1
        return 0

    # report
    data = campaign_report(spec, store, quick=args.quick)
    print(format_table(data.headers, data.rows, title=data.title))
    if args.out:
        _write_outputs(data, Path(args.out))
    return 0


def _lint_command(args: argparse.Namespace) -> int:
    """The ``lint`` handler — exit 0 clean / 1 findings / 2 internal error.

    :mod:`repro.lint` is imported *here*, not at module level: like the
    campaign engine it is a top layer nothing in the library proper may
    depend on (its own ``layering`` rule enforces that).
    """
    from ..errors import LintError
    from ..lint import render_json, render_text, run_lint

    try:
        rules = None
        if args.rules is not None:
            rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        result = run_lint(args.paths, rules=rules)
        if args.format == "json":
            print(
                render_json(
                    result.findings,
                    result.files,
                    result.rules,
                    suppressed=result.suppressed,
                )
            )
        else:
            print(
                render_text(
                    result.findings,
                    result.files,
                    suppressed=result.suppressed,
                    fix_hints=args.fix_hints,
                )
            )
        return 1 if result.findings else 0
    except LintError as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - internal errors are exit 2, not a traceback
        print(f"repro lint: internal error: {exc!r}", file=sys.stderr)
        return 2


def _parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of Calheiros et al., ICPP 2011.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")
    runp = sub.add_parser("run", help="run one experiment (or 'all')")
    runp.add_argument("experiment", help="experiment id from 'list', or 'all'")
    runp.add_argument("--scale", type=float, default=200.0, help="web DES rate-scale factor (default 200)")
    runp.add_argument("--seeds", default="0", help="comma-separated replication seeds")
    runp.add_argument("--out", default=None, help="directory for .md/.csv outputs")
    runp.add_argument("--quick", action="store_true", help="shorter horizons for smoke runs")
    runp.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size for DES replications (default 1 = sequential)",
    )
    runp.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default="des",
        help="execution backend for fig5/fig6 policy comparisons: the "
        "discrete-event simulator (des, default), its batched "
        "structure-of-arrays form (des-vec) or the fluid-flow engine",
    )
    runp.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write one JSONL trace per DES replication (a directory, or a "
        "path with {scenario}/{policy}/{seed} placeholders)",
    )
    runp.add_argument(
        "--trace-requests",
        action="store_true",
        help="also trace per-request events (admitted/rejected/completed); "
        "default traces control-plane events only",
    )
    runp.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write one metrics.snapshot JSONL stream per replication (a "
        "directory, or a path with {scenario}/{policy}/{seed} placeholders); "
        "applies to the fig5/fig6 policy comparisons",
    )
    tracep = sub.add_parser("trace", help="render/validate a JSONL trace")
    tracep.add_argument("path", help="a .jsonl trace file, or a directory of them")
    tracep.add_argument(
        "--validate",
        action="store_true",
        help="check every event against the trace schema (exit 1 on failure)",
    )
    tracep.add_argument(
        "--timeline",
        type=int,
        default=None,
        metavar="N",
        help="print a human-readable timeline of the first N events (0 = all)",
    )
    tracep.add_argument(
        "--explain",
        type=int,
        default=None,
        metavar="I",
        help="narrate Algorithm-1 decision #I recorded in the trace",
    )
    metricsp = sub.add_parser(
        "metrics", help="tabulate/export metrics.snapshot JSONL streams"
    )
    metricssub = metricsp.add_subparsers(dest="metrics_command", required=True)
    showp = metricssub.add_parser(
        "show", help="tabulate snapshot streams (schema-validated on load)"
    )
    showp.add_argument("path", help="a snapshot .jsonl file, or a directory of them")
    exportp = metricssub.add_parser(
        "export", help="render the latest snapshot as Prometheus text"
    )
    exportp.add_argument("path", help="one snapshot .jsonl stream")
    exportp.add_argument(
        "--format", choices=("prometheus", "jsonl"), default="prometheus",
        help="prometheus renders the latest snapshot as text exposition; "
        "jsonl re-emits the validated snapshot series (default: prometheus)",
    )
    exportp.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the exposition to this file instead of stdout",
    )

    lintp = sub.add_parser(
        "lint",
        help="project-specific static analysis (determinism, layering, "
        "pool-safety, float-compare)",
    )
    lintp.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files/directories to lint (default: src)",
    )
    lintp.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json is the stable CI contract)",
    )
    lintp.add_argument(
        "--fix-hints",
        action="store_true",
        help="print the remediation line under each finding (text format)",
    )
    lintp.add_argument(
        "--rules",
        default=None,
        metavar="R1,R2",
        help="comma-separated subset of rules to run (default: all)",
    )

    campp = sub.add_parser(
        "campaign", help="declarative scenario-grid campaigns (run/status/report)"
    )
    campsub = campp.add_subparsers(dest="campaign_command", required=True)
    for name, chelp in (
        ("run", "execute (or resume) a campaign spec against its result store"),
        ("watch", "live per-cell progress table (snapshot streams + store)"),
        ("status", "per-cell cache status of a campaign (exit 0/1 contract)"),
        ("report", "aggregate stored cells into the paper-style summary table"),
        ("agg", "stream partial paper-style tables as cells land in the store"),
    ):
        cp = campsub.add_parser(name, help=chelp)
        cp.add_argument("spec", help="campaign spec file (.toml or .json)")
        cp.add_argument(
            "--store",
            default=None,
            metavar="DIR",
            help="result-store directory (default: the spec's, else .campaigns/<name>)",
        )
        cp.add_argument(
            "--quick",
            action="store_true",
            help="apply each scenario block's [scenarios.quick] overrides "
            "(quick cells are stored separately from full-grid cells)",
        )
        if name == "run":
            cp.add_argument(
                "--workers",
                type=int,
                default=None,
                help="process-pool size per cell group (default: the spec's; 0 = one per CPU)",
            )
            cp.add_argument(
                "--max-cells",
                type=int,
                default=None,
                metavar="N",
                help="execute at most N new cells, then stop (interrupt/resume testing)",
            )
            cp.add_argument(
                "--trace",
                default=None,
                metavar="PATH",
                help="write campaign.cell.* lifecycle events to a JSONL trace",
            )
            cp.add_argument(
                "--metrics",
                action="store_true",
                help="write one metrics.snapshot JSONL stream per cell under "
                "<store>/telemetry/<backend>/ (what `campaign watch` reads live)",
            )
            cp.add_argument(
                "--shard",
                default=None,
                metavar="I/N",
                help="own only grid cells with index ≡ I (mod N); off-shard "
                "cells are skipped (run one process per shard)",
            )
            cp.add_argument(
                "--lease-ttl",
                type=float,
                default=None,
                metavar="SECONDS",
                help="steal a silent worker's cell lease after this many "
                "seconds (default: the spec's lease_ttl, 900)",
            )
        if name in ("watch", "agg"):
            cp.add_argument(
                "--follow",
                action="store_true",
                help="re-render until every cell is finished (default: once)",
            )
            cp.add_argument(
                "--interval",
                type=float,
                default=2.0,
                help="seconds between refreshes with --follow (default 2)",
            )
        if name == "status":
            cp.add_argument(
                "--require-complete",
                action="store_true",
                help="exit 1 unless every cell is cached or screened — "
                "claimed/in-flight cells count as incomplete (CI gate)",
            )
        if name in ("report", "agg"):
            cp.add_argument(
                "--out", default=None, help="directory for .md/.csv outputs"
            )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _parser()
    args = parser.parse_args(argv)

    if args.command is None:
        parser.print_help()
        return 0

    if args.command == "list":
        for eid, desc in available_experiments().items():
            print(f"{eid:12s} {desc}")
        return 0

    if args.command == "campaign":
        return _campaign_command(args)

    if args.command == "lint":
        return _lint_command(args)

    if args.command == "trace":
        return _trace_command(args)

    if args.command == "metrics":
        return _metrics_command(args)

    targets = (
        list(available_experiments()) if args.experiment == "all" else [args.experiment]
    )
    for experiment in targets:
        data = _build(experiment, args)
        print(format_table(data.headers, data.rows, title=data.title))
        for line in _perf_summary(data):
            print(line)
        print()
        if args.out:
            _write_outputs(data, Path(args.out))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
