"""Observability layer — tracing, decision audit, profiling, logging.

ISSUE 2's tentpole: the paper's closed loop (Workload Analyzer → Load
Predictor & Performance Modeler → Application Provisioner) emits typed
trace events onto a :class:`TraceBus` so any run can be replayed and
any Algorithm-1 decision explained.  The layer is **off by default**
and zero-cost when disabled: components hold ``tracer=None`` and guard
every emission with one identity check.

* :mod:`repro.obs.bus` — the bus, sinks (ring buffer / JSONL / null)
  and the picklable :class:`TraceConfig` the runner threads through
  process pools.
* :mod:`repro.obs.schema` — the event registry and trace validation
  (CI validates a real scenario trace on every push).
* :mod:`repro.obs.audit` — the decision audit log and the
  "explain this provisioning decision" narrative.
* :mod:`repro.obs.profile` — per-phase wall-clock / kernel counters,
  aggregated correctly across pool workers.
* :mod:`repro.obs.render` — JSONL traces → timeline + summary tables
  (the ``repro trace`` subcommand).
* :mod:`repro.obs.log` — namespaced structured logging helpers.
* :mod:`repro.obs.metrics` — the picklable :class:`MetricsConfig`,
  the per-run :class:`RunTelemetry` snapshot sampler that streams to
  the run's JSONL file, and its log-bucket response-time
  :class:`Histogram`.
* :mod:`repro.obs.exporters` — Prometheus text exposition and
  validated loading of the snapshot stream.
"""

from .audit import DecisionAuditLog, DecisionRecord, explain_record
from .bus import JsonlSink, NullSink, RingBufferSink, TraceBus, TraceConfig, TraceSink
from .exporters import load_snapshots, parse_prometheus_text, snapshot_to_prometheus
from .log import get_logger, kv
from .metrics import (
    METRIC_NAMES,
    SLO_QUANTILE,
    Histogram,
    MetricsConfig,
    RunTelemetry,
    log_bucket_bounds,
    response_time_bounds,
)
from .profile import RunProfile, aggregate_profiles
from .render import explain_decision, format_event, render_timeline, trace_summary_table
from .schema import (
    CONTROL_EVENTS,
    EVENT_TYPES,
    REQUEST_EVENTS,
    SCHEMA_VERSION,
    iter_trace,
    load_trace,
    validate_event,
    validate_trace,
)

__all__ = [
    # bus & sinks
    "TraceBus",
    "TraceConfig",
    "TraceSink",
    "RingBufferSink",
    "JsonlSink",
    "NullSink",
    # schema
    "SCHEMA_VERSION",
    "EVENT_TYPES",
    "REQUEST_EVENTS",
    "CONTROL_EVENTS",
    "validate_event",
    "validate_trace",
    "iter_trace",
    "load_trace",
    # audit
    "DecisionRecord",
    "DecisionAuditLog",
    "explain_record",
    # profiling
    "RunProfile",
    "aggregate_profiles",
    # rendering
    "format_event",
    "render_timeline",
    "trace_summary_table",
    "explain_decision",
    # metrics
    "METRIC_NAMES",
    "SLO_QUANTILE",
    "Histogram",
    "MetricsConfig",
    "RunTelemetry",
    "log_bucket_bounds",
    "response_time_bounds",
    # exporters
    "snapshot_to_prometheus",
    "parse_prometheus_text",
    "load_snapshots",
    # logging
    "get_logger",
    "kv",
]
