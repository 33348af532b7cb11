"""Metric exposition — Prometheus text format and JSONL time series.

Two export surfaces for the telemetry produced by
:mod:`repro.obs.metrics`:

* :func:`snapshot_to_prometheus` — renders one ``metrics.snapshot``
  event (typically the last line of a snapshot JSONL stream) in the
  Prometheus text exposition format (version 0.0.4): ``# HELP`` /
  ``# TYPE`` headers, ``_total`` counters, gauges, and a cumulative
  ``le``-labelled histogram.
* :func:`load_snapshots` — reads a validated JSONL time series (each
  line is a schema-checked ``metrics.snapshot`` event).

:func:`parse_prometheus_text` is the matching format validator: it
parses an exposition document back into families and enforces the
structural invariants (samples match their declared type, histogram
buckets are cumulative, ``_count`` equals the ``+Inf`` bucket).  The
round-trip test in ``tests/test_obs_metrics.py`` pushes a snapshot
through both directions.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, List, Mapping, Union

from ..errors import ConfigurationError, TraceSchemaError
from .schema import iter_trace, validate_event

__all__ = [
    "snapshot_to_prometheus",
    "parse_prometheus_text",
    "load_snapshots",
]


def _fmt(value: float) -> str:
    """Prometheus sample value: integers bare, floats via repr, inf as +Inf."""
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


#: snapshot field → (prometheus family, type, help)
_SNAPSHOT_FAMILIES = [
    ("accepted", "repro_requests_accepted_total", "counter", "requests admitted by admission control"),
    ("rejected", "repro_requests_rejected_total", "counter", "requests rejected at admission"),
    ("completed", "repro_requests_completed_total", "counter", "requests that finished service"),
    ("violations", "repro_qos_violations_total", "counter", "completed requests with response time > Ts"),
    ("fleet", "repro_fleet_size", "gauge", "serving application instances"),
    ("rejection_rate", "repro_rejection_rate", "gauge", "cumulative fraction of arrivals rejected"),
    ("violation_fraction", "repro_qos_violation_fraction", "gauge", "cumulative fraction of completions over Ts"),
    ("burn_rate", "repro_sla_burn_rate", "gauge", "window violation fraction over the SLO error budget"),
    ("cache_hit_ratio", "repro_decision_cache_hit_ratio", "gauge", "Algorithm-1 decision cache hit ratio"),
]

_HIST_FAMILY = "repro_response_time_scenario_seconds"


def snapshot_to_prometheus(snapshot: Mapping[str, object]) -> str:
    """Render one ``metrics.snapshot`` event as Prometheus text.

    The snapshot's cumulative ``buckets`` / ``bounds`` pair becomes a
    standard ``le``-labelled histogram (the overflow bucket is the
    ``+Inf`` sample, which by construction equals ``_count``).  The
    ``_sum`` series is intentionally omitted: snapshots carry no
    order-dependent float accumulations (that is what keeps them
    bit-identical across backends), so the exposition reports the exact
    fields only.
    """
    lines: List[str] = []
    for field, family, ftype, help_text in _SNAPSHOT_FAMILIES:
        if field not in snapshot:
            continue
        lines.append(f"# HELP {family} {help_text}")
        lines.append(f"# TYPE {family} {ftype}")
        lines.append(f"{family} {_fmt(snapshot[field])}")
    bounds = snapshot.get("bounds") or []
    buckets = snapshot.get("buckets") or []
    if buckets:
        if len(buckets) != len(bounds) + 1:
            raise ConfigurationError(
                f"snapshot histogram is malformed: {len(buckets)} buckets "
                f"for {len(bounds)} bounds (want bounds+1)"
            )
        lines.append(f"# HELP {_HIST_FAMILY} response time of completed requests (scenario seconds)")
        lines.append(f"# TYPE {_HIST_FAMILY} histogram")
        for le, count in zip(list(bounds) + ["+Inf"], buckets):
            le_str = le if isinstance(le, str) else _fmt(float(le))
            lines.append(f'{_HIST_FAMILY}_bucket{{le="{le_str}"}} {_fmt(count)}')
        lines.append(f"{_HIST_FAMILY}_count {_fmt(buckets[-1])}")
    return "\n".join(lines) + "\n"


def parse_prometheus_text(text: str) -> Dict[str, dict]:
    """Parse + validate a Prometheus text exposition document.

    Returns ``{family: {"type": ..., "help": ..., "samples": [(labels,
    value), ...]}}``.  Raises :class:`ConfigurationError` on structural
    violations: samples without a ``# TYPE``, sample names that do not
    belong to their family (counters must end in ``_total``; histogram
    samples must be ``_bucket``/``_count``/``_sum``), non-cumulative
    histogram buckets, or a ``_count`` that disagrees with the ``+Inf``
    bucket.
    """
    families: Dict[str, dict] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            families.setdefault(name, {"type": None, "help": None, "samples": []})
            families[name]["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, ftype = rest.partition(" ")
            if ftype not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise ConfigurationError(f"line {lineno}: unknown metric type {ftype!r}")
            families.setdefault(name, {"type": None, "help": None, "samples": []})
            families[name]["type"] = ftype
            continue
        if line.startswith("#"):
            continue
        # sample line: name[{labels}] value
        if "{" in line:
            name, _, rest = line.partition("{")
            labels_str, _, value_str = rest.partition("}")
            labels = {}
            for pair in labels_str.split(","):
                if not pair:
                    continue
                k, _, v = pair.partition("=")
                if not (v.startswith('"') and v.endswith('"')):
                    raise ConfigurationError(
                        f"line {lineno}: label value must be quoted: {pair!r}"
                    )
                labels[k.strip()] = v[1:-1]
            value_str = value_str.strip()
        else:
            name, _, value_str = line.partition(" ")
            labels = {}
            value_str = value_str.strip()
        try:
            value = float(value_str)
        except ValueError:
            raise ConfigurationError(
                f"line {lineno}: not a sample value: {value_str!r}"
            ) from None
        family = _owning_family(name, families)
        if family is None:
            raise ConfigurationError(
                f"line {lineno}: sample {name!r} has no preceding # TYPE"
            )
        fam_name, fam = family
        ftype = fam["type"]
        if ftype == "counter" and not name.endswith("_total"):
            raise ConfigurationError(
                f"line {lineno}: counter sample {name!r} must end in _total"
            )
        if ftype == "histogram" and name != fam_name and not name.endswith(
            ("_bucket", "_count", "_sum")
        ):
            raise ConfigurationError(
                f"line {lineno}: histogram sample {name!r} must be _bucket/_count/_sum"
            )
        fam["samples"].append((name, labels, value))
    _check_histograms(families)
    return families


def _owning_family(sample_name: str, families: Dict[str, dict]):
    """The family a sample belongs to (exact name, or histogram suffix)."""
    if sample_name in families:
        return sample_name, families[sample_name]
    for suffix in ("_bucket", "_count", "_sum"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if base in families:
                return base, families[base]
    # counters are declared under their full _total name
    return None


def _check_histograms(families: Dict[str, dict]) -> None:
    for fam_name, fam in families.items():
        if fam["type"] != "histogram":
            if fam["type"] is None:
                raise ConfigurationError(f"family {fam_name!r} has no # TYPE line")
            continue
        buckets = [
            (labels.get("le"), value)
            for name, labels, value in fam["samples"]
            if name.endswith("_bucket")
        ]
        counts = [
            value for name, labels, value in fam["samples"] if name.endswith("_count")
        ]
        if not buckets:
            raise ConfigurationError(f"histogram {fam_name!r} has no _bucket samples")
        if buckets[-1][0] != "+Inf":
            raise ConfigurationError(
                f"histogram {fam_name!r} must end with an le=\"+Inf\" bucket"
            )
        values = [v for _, v in buckets]
        if any(b > a for b, a in zip(values, values[1:])):
            raise ConfigurationError(
                f"histogram {fam_name!r} buckets are not cumulative"
            )
        if counts and counts[0] != values[-1]:
            raise ConfigurationError(
                f"histogram {fam_name!r}: _count {counts[0]} != +Inf bucket {values[-1]}"
            )


def load_snapshots(path: Union[str, Path]) -> List[dict]:
    """Read and schema-validate a ``metrics.snapshot`` JSONL stream."""
    snapshots: List[dict] = []
    for lineno, event in enumerate(iter_trace(path), start=1):
        try:
            validate_event(event)
        except TraceSchemaError as exc:
            raise TraceSchemaError(f"{path}:{lineno}: {exc}") from None
        if event.get("type") != "metrics.snapshot":
            raise TraceSchemaError(
                f"{path}:{lineno}: expected metrics.snapshot, got {event.get('type')!r}"
            )
        snapshots.append(event)
    return snapshots
