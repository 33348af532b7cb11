"""Trace rendering — JSONL traces as human-readable timelines/tables.

Backs the ``repro trace`` subcommand: given a trace file
(or an iterable of event dicts) it produces

* a **summary table** — per event type: count, first/last timestamp —
  rendered through :func:`repro.metrics.report.format_table` so it
  matches the rest of the CLI's output,
* a **timeline** — one formatted line per event, most informative
  fields first, suitable for eyeballing a provisioning episode,
* a **decision explanation** — the Algorithm-1 narrative of one
  ``decision`` event via :mod:`repro.obs.audit`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from ..metrics.report import format_table
from .audit import DecisionAuditLog

__all__ = [
    "trace_summary_table",
    "format_event",
    "render_timeline",
    "explain_decision",
]

#: Per-type field ordering for timeline lines (remaining fields follow
#: in insertion order).
_FIELD_ORDER = {
    "decision": ("arrival_rate", "service_time", "current", "chosen", "cache_hit", "path"),
    "scaling.actuated": ("before", "target", "after", "predicted_rate"),
    "prediction.issued": ("rate", "corrective", "window_start", "window_end"),
    "metrics.snapshot": ("fleet", "completed", "rejected", "violation_fraction", "burn_rate", "p95"),
}


def _format_span(event: Mapping[str, object]) -> str:
    """Dedicated ``batch.span`` row: span width, station count, and the
    requests the vectorized data plane flushed through it."""
    width = event.get("width")
    stations = event.get("stations")
    arrivals = int(event.get("arrivals", 0))
    completions = int(event.get("completions", 0))
    rejected = int(event.get("rejected", 0))
    flushed = arrivals + completions
    parts = []
    if width is not None:
        parts.append(f"Δ{float(width):.6g}s")
    if stations is not None:
        parts.append(f"{int(stations)} station(s)")
    parts.append(
        f"flushed {flushed} ({arrivals} arrivals, {completions} completions"
        + (f", {rejected} rejected)" if rejected else ")")
    )
    return "  ".join(parts)


def _fmt_value(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, list):
        return "→".join(str(v) for v in value)
    return str(value)


def format_event(event: Mapping[str, object]) -> str:
    """One timeline line: ``[t] type  k=v k=v …``."""
    etype = str(event.get("type", "?"))
    t = event.get("t", float("nan"))
    if etype == "batch.span":
        return f"[{float(t):>12.3f}] {etype:<18s} {_format_span(event)}".rstrip()
    ordered = _FIELD_ORDER.get(etype, ())
    hidden = ("t", "type", "bounds", "buckets") if etype == "metrics.snapshot" else ("t", "type")
    keys = [k for k in ordered if k in event]
    keys += [k for k in event if k not in hidden and k not in keys]
    payload = "  ".join(f"{k}={_fmt_value(event[k])}" for k in keys)
    return f"[{float(t):>12.3f}] {etype:<18s} {payload}".rstrip()


def render_timeline(
    events: Iterable[Mapping[str, object]], limit: int = 0
) -> List[str]:
    """Format events as timeline lines (``limit`` > 0 truncates).

    When truncated, a final ellipsis line reports how many events were
    omitted — a trace render must never silently look complete.
    """
    lines: List[str] = []
    omitted = 0
    for event in events:
        if limit and len(lines) >= limit:
            omitted += 1
            continue
        lines.append(format_event(event))
    if omitted:
        lines.append(f"… {omitted} more event(s) not shown")
    return lines


def trace_summary_table(
    events: Sequence[Mapping[str, object]], title: str = ""
) -> str:
    """Aligned per-type summary: count and time span of each event type."""
    stats: Dict[str, Tuple[int, float, float]] = {}
    for event in events:
        etype = str(event.get("type", "?"))
        t = float(event.get("t", 0.0))
        if etype in stats:
            n, first, last = stats[etype]
            stats[etype] = (n + 1, min(first, t), max(last, t))
        else:
            stats[etype] = (1, t, t)
    rows = [
        [etype, n, first, last]
        for etype, (n, first, last) in sorted(stats.items())
    ]
    rows.append(["TOTAL", len(events), "", ""])
    return format_table(
        ["event type", "count", "first t (s)", "last t (s)"], rows, title=title
    )


def explain_decision(
    events: Iterable[Mapping[str, object]], index: int = 0
) -> str:
    """Narrate the ``index``-th Algorithm-1 decision in the trace.

    Raises
    ------
    IndexError
        When the trace holds fewer than ``index + 1`` decision events.
    """
    log = DecisionAuditLog.from_trace(events)
    if not 0 <= index < len(log.records):
        raise IndexError(
            f"trace has {len(log.records)} decision event(s); cannot explain #{index}"
        )
    return log.explain(index)
