"""Typed metrics registry — counters, gauges, mergeable histograms.

The trace bus (:mod:`repro.obs.bus`) transports *events*; this module
aggregates them into *metrics*: monotone :class:`Counter` totals,
last-value :class:`Gauge` readings, and a deterministic fixed-boundary
log-bucket :class:`Histogram` whose percentile queries return exact
bucket bounds.  The design rules mirror the bus:

* **zero cost when disabled** — no simulation component holds a
  registry: :class:`RunTelemetry` assembles it at finalize from state
  the run already keeps, and only the response-time histogram is live
  (fed from the monitor's completion sinks), so a run without metrics
  executes exactly the seed code path;
* **no wall clocks, no randomness** — every value is a function of the
  simulation, never of the host (the :mod:`repro.lint` determinism rule
  applies to this module like any other);
* **picklable config** — :class:`MetricsConfig` is the frozen recipe
  the experiment runner threads through process pools, exactly like
  :class:`~repro.obs.bus.TraceConfig`;
* **lossless merge** — per-worker registries from
  ``run_replications(workers=N)`` combine with
  :meth:`MetricsRegistry.merge`: counters and histogram bucket counts
  add exactly; the histogram moments use Chan's parallel mean/M2
  combination, the same update the bulk
  :class:`~repro.metrics.collector.MetricsCollector` path uses.

:class:`RunTelemetry` is the per-run session object the backends build
from a :class:`MetricsConfig`: it samples periodic ``metrics.snapshot``
events (SLA violation fraction and burn rate against the scenario's QoS
target, admission/rejection rates, fleet size, decision-cache hit
ratio, response-time histogram state) on the engine's clock, and
finalizes the registry into the ``telemetry`` field of
:class:`~repro.backends.base.RunMetrics`.

Snapshots carry only integers and exactly-derived ratios — never an
order-dependent float accumulation — which is why the snapshot series
is bit-identical between the scalar ``des`` and batched ``des-vec``
backends on jitterless scenarios (``tests/test_metrics_xbackend.py``).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "METRIC_NAMES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsConfig",
    "RunTelemetry",
    "log_bucket_bounds",
    "response_time_bounds",
    "merge_telemetry",
]


#: Every metric the library may record: name → (kind, help).  Creating
#: an undeclared name raises at run time (:class:`MetricsRegistry`), and
#: the census test ``tests/test_census.py`` checks that its metered runs
#: create exactly these names, so the table and the instrumentation
#: cannot drift apart silently.
METRIC_NAMES: Dict[str, Tuple[str, str]] = {
    "requests.arrived": ("counter", "arrivals offered to admission control"),
    "requests.accepted": ("counter", "requests admitted by admission control"),
    "requests.rejected": ("counter", "requests rejected at admission"),
    "requests.completed": ("counter", "requests that finished service"),
    "qos.violations": ("counter", "completed requests with response time > Ts"),
    "qos.response_time": ("histogram", "response time of completed requests (scenario seconds)"),
    "control.decisions": ("counter", "Algorithm-1 decisions actuated"),
    "control.cache_hits": ("counter", "decision-cache hits of the run's modeler"),
    "control.cache_misses": ("counter", "decision-cache misses of the run's modeler"),
    "fleet.size": ("gauge", "serving instances after the latest actuation"),
    "fleet.target": ("gauge", "fleet size requested by the latest decision"),
    "batch.spans": ("counter", "non-empty epoch spans flushed by the vectorized data plane"),
    "batch.flushed_requests": ("counter", "arrivals + completions absorbed by vectorized span flushes"),
    "economy.revenue": ("gauge", "income earned by completed requests (pricing units)"),
    "economy.cost": ("gauge", "blended on-demand + spot capacity bill (pricing units)"),
    "economy.penalty": ("gauge", "SLA fines over violating accounting intervals (pricing units)"),
    "economy.profit": ("gauge", "revenue - cost - penalty of the run (pricing units)"),
    "economy.spot_vm_hours": ("gauge", "VM-hours billed at the discounted spot rate"),
    "economy.revocations": ("counter", "spot instances reclaimed by the revocation injector"),
}


def log_bucket_bounds(
    lo: float, hi: float, per_decade: int = 8
) -> Tuple[float, ...]:
    """Deterministic logarithmic bucket boundaries covering ``[lo, hi]``.

    Bounds are ``lo · 10^(i/per_decade)`` for ``i = 0, 1, …`` until the
    first bound ≥ ``hi`` — a pure function of the arguments, so every
    process (and every backend) derives bitwise-identical boundaries.
    """
    if lo <= 0.0 or hi <= lo:
        raise ConfigurationError(f"need 0 < lo < hi, got lo={lo!r} hi={hi!r}")
    if per_decade < 1:
        raise ConfigurationError(f"per_decade must be >= 1, got {per_decade}")
    bounds: List[float] = []
    i = 0
    while True:
        b = lo * 10.0 ** (i / per_decade)
        bounds.append(b)
        if b >= hi:
            return tuple(bounds)
        i += 1


def response_time_bounds(qos_response_time: float) -> Tuple[float, ...]:
    """Response-time buckets centered on the scenario's ``T_s``.

    Three decades below the QoS target to two above (8 buckets per
    decade) brackets everything from idle service times to deep
    saturation with ~33 % relative bucket resolution around ``T_s``.
    """
    return log_bucket_bounds(
        qos_response_time / 1000.0, qos_response_time * 100.0, per_decade=8
    )


class Counter:
    """A run total.  Merge = exact integer/float addition."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def set_total(self, value: float) -> None:
        """Overwrite the total — how :meth:`RunTelemetry.finalize`
        builds every counter from a total the run already keeps."""
        self.value = value

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def to_dict(self) -> dict:
        return {"kind": "counter", "value": self.value}

    def load(self, data: dict) -> None:
        self.value = data["value"]


class Gauge:
    """Last observed value.  Merge keeps the maximum (documented choice:
    cross-replication gauges answer "how big did it get")."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def merge(self, other: "Gauge") -> None:
        if other.value > self.value:
            self.value = other.value

    def to_dict(self) -> dict:
        return {"kind": "gauge", "value": self.value}

    def load(self, data: dict) -> None:
        self.value = data["value"]


class Histogram:
    """Fixed-boundary histogram with Chan-mergeable moments.

    Bucket ``i`` covers ``[bounds[i-1], bounds[i])`` (bucket 0 is
    everything below ``bounds[0]``); one final overflow bucket catches
    values ≥ ``bounds[-1]``, so ``len(counts) == len(bounds) + 1``.
    Observation uses ``np.searchsorted(side="right")`` — scalar
    observations are buffered in a plain list and bulk-ingested through
    the same kernel as :meth:`observe_many`, so scalar and vectorized
    feeds bucket identically *and* the scalar hot path is a single
    ``list.append`` (the deferred work is amortized over the whole
    buffer at the next read).

    Besides the bucket counts the histogram keeps count/mean/M2 moment
    accumulators; :meth:`merge` combines them with Chan's parallel
    update, making per-worker histograms combine losslessly (counts are
    exact; moments are exact up to float associativity, the same
    guarantee the run's :class:`~repro.metrics.collector.MetricsCollector`
    documents).
    """

    __slots__ = ("name", "bounds", "_counts", "_count", "_mean", "_m2", "_pending")
    kind = "histogram"

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        b = tuple(float(x) for x in bounds)
        if not b or any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ConfigurationError(
                f"histogram bounds must be strictly increasing and non-empty, got {b!r}"
            )
        self.name = name
        self.bounds = b
        self._counts = [0] * (len(b) + 1)
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._pending: List[float] = []

    # -- observation ----------------------------------------------------
    def observe(self, value: float) -> None:
        """Record one observation (hot path: a single list append)."""
        self._pending.append(value)

    def observe_many(self, values: np.ndarray) -> None:
        """Record a batch (vectorized bucketing + Chan moment merge)."""
        self._flush()
        self._ingest(np.asarray(values, dtype=np.float64))

    def _flush(self) -> None:
        """Fold buffered scalar observations into the accumulators."""
        if self._pending:
            pending, self._pending = self._pending, []
            self._ingest(np.asarray(pending, dtype=np.float64))

    def _ingest(self, arr: np.ndarray) -> None:
        n = arr.size
        if n == 0:
            return
        idx = np.searchsorted(self.bounds, arr, side="right")
        binned = np.bincount(idx, minlength=len(self._counts))
        counts = self._counts
        for i, c in enumerate(binned.tolist()):
            if c:
                counts[i] += c
        batch_mean = float(arr.mean())
        batch_m2 = float(np.sum((arr - batch_mean) ** 2))
        self._combine(n, batch_mean, batch_m2)

    def _combine(self, n: int, mean: float, m2: float) -> None:
        prior = self._count
        total = prior + n
        if prior == 0:
            self._mean = mean
            self._m2 = m2
        else:
            delta = mean - self._mean
            self._mean += delta * n / total
            self._m2 += m2 + delta * delta * prior * n / total
        self._count = total

    # -- queries --------------------------------------------------------
    @property
    def count(self) -> int:
        """Total observations (exact even with a pending buffer)."""
        return self._count + len(self._pending)

    @property
    def counts(self) -> List[int]:
        """Per-bucket counts (flushes the pending buffer first)."""
        self._flush()
        return list(self._counts)

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations."""
        self._flush()
        return self._mean

    @property
    def sum(self) -> float:
        """Σ observations (mean × count — consistent with the moments)."""
        self._flush()
        return self._mean * self._count

    @property
    def variance(self) -> float:
        """Sample variance (0 with fewer than 2 observations)."""
        self._flush()
        return self._m2 / (self._count - 1) if self._count > 1 else 0.0

    def cumulative_counts(self) -> List[int]:
        """Prometheus-style cumulative bucket counts (last = total)."""
        self._flush()
        out: List[int] = []
        acc = 0
        for c in self._counts:
            acc += c
            out.append(acc)
        return out

    def percentile_bound(self, q: float) -> float:
        """Exclusive upper bound of the bucket holding the q-quantile.

        With ``r = ⌈q·n⌉`` (the rank of the empirical q-quantile, 1-based),
        returns ``bounds[i]`` for the first bucket whose cumulative count
        reaches ``r`` — an *exact* bracket: the r-th smallest observation
        ``v`` satisfies ``lower ≤ v < percentile_bound(q)`` where
        ``lower`` is the previous bound.  Returns 0.0 when empty and
        ``inf`` when the quantile falls in the overflow bucket.
        """
        if not 0.0 < q <= 1.0:
            raise ConfigurationError(f"quantile must be in (0, 1], got {q!r}")
        self._flush()
        if self._count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self._count))
        acc = 0
        for i, c in enumerate(self._counts):
            acc += c
            if acc >= rank:
                return self.bounds[i] if i < len(self.bounds) else float("inf")
        return float("inf")  # pragma: no cover - counts always sum to count

    # -- merge / persistence -------------------------------------------
    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ConfigurationError(
                f"cannot merge histograms with different bounds ({self.name})"
            )
        self._flush()
        other._flush()
        for i, c in enumerate(other._counts):
            self._counts[i] += c
        if other._count:
            self._combine(other._count, other._mean, other._m2)

    def to_dict(self) -> dict:
        self._flush()
        return {
            "kind": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self._counts),
            "count": self._count,
            "mean": self._mean,
            "m2": self._m2,
        }

    def load(self, data: dict) -> None:
        if tuple(data["bounds"]) != self.bounds:
            self.bounds = tuple(data["bounds"])
        self._counts = list(data["counts"])
        self._count = int(data["count"])
        self._mean = float(data["mean"])
        self._m2 = float(data["m2"])
        self._pending = []


class MetricsRegistry:
    """Name → metric map, validated against :data:`METRIC_NAMES`.

    Creation is get-or-create: the first call for a name (in a run,
    :class:`RunTelemetry`, which knows the scenario's QoS target)
    fixes histogram boundaries.  Unknown names or kind mismatches
    raise, so a misspelled instrument fails its first metered run.
    """

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _declare(self, name: str, kind: str):
        spec = METRIC_NAMES.get(name)
        if spec is None:
            raise ConfigurationError(
                f"unregistered metric name {name!r}; add it to "
                "repro.obs.metrics.METRIC_NAMES"
            )
        if spec[0] != kind:
            raise ConfigurationError(
                f"metric {name!r} is registered as a {spec[0]}, not a {kind}"
            )
        existing = self._metrics.get(name)
        if existing is not None and existing.kind != kind:  # pragma: no cover
            raise ConfigurationError(f"metric {name!r} already exists as {existing.kind}")
        return existing

    def counter(self, name: str) -> Counter:
        existing = self._declare(name, "counter")
        if existing is None:
            existing = self._metrics[name] = Counter(name)
        return existing

    def gauge(self, name: str) -> Gauge:
        existing = self._declare(name, "gauge")
        if existing is None:
            existing = self._metrics[name] = Gauge(name)
        return existing

    def histogram(self, name: str, bounds: Optional[Sequence[float]] = None) -> Histogram:
        existing = self._declare(name, "histogram")
        if existing is None:
            if bounds is None:
                bounds = log_bucket_bounds(1e-3, 1e4)
            existing = self._metrics[name] = Histogram(name, bounds)
        return existing

    def get(self, name: str):
        """The live metric, or ``None`` if nothing created it yet."""
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(sorted(self._metrics))

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in (counters add, gauges max,
        histograms Chan-merge).  Metrics absent here are deep-copied in
        via their dict form."""
        for name in other:
            theirs = other.get(name)
            mine = self._metrics.get(name)
            if mine is None:
                if theirs.kind == "histogram":
                    mine = self.histogram(name, bounds=theirs.bounds)
                elif theirs.kind == "gauge":
                    mine = self.gauge(name)
                else:
                    mine = self.counter(name)
            mine.merge(theirs)

    def to_dict(self) -> Dict[str, dict]:
        return {name: self.get(name).to_dict() for name in self}

    @classmethod
    def from_dict(cls, data: Dict[str, dict]) -> "MetricsRegistry":
        reg = cls()
        for name, payload in data.items():
            kind = payload.get("kind")
            if kind == "counter":
                reg.counter(name).load(payload)
            elif kind == "gauge":
                reg.gauge(name).load(payload)
            elif kind == "histogram":
                reg.histogram(name, bounds=payload["bounds"]).load(payload)
            else:
                raise ConfigurationError(f"unknown metric kind {kind!r} for {name!r}")
        return reg


def merge_telemetry(telemetries: Sequence[dict]) -> Dict[str, dict]:
    """Merge the registry dumps of several runs' ``telemetry`` fields.

    Accepts the ``RunMetrics.telemetry`` dicts of a replication set
    (empty ones — metrics-off runs — are skipped) and returns one
    combined registry dump: the lossless cross-worker merge promised by
    the parallel runner.
    """
    merged = MetricsRegistry()
    for t in telemetries:
        if t and t.get("registry"):
            merged.merge(MetricsRegistry.from_dict(t["registry"]))
    return merged.to_dict()


def _filename_component(label: str) -> str:
    return re.sub(r"[/\\\s]+", "_", label.strip()) or "unnamed"


@dataclass(frozen=True)
class MetricsConfig:
    """Picklable recipe for one run's telemetry (mirror of TraceConfig).

    Parameters
    ----------
    interval:
        Snapshot cadence in simulation seconds.  ``None`` samples once
        per monitor epoch (the scenario's ``update_interval``).
    path:
        Optional JSONL destination for the snapshot stream.  Same
        placeholder/directory semantics as
        :class:`~repro.obs.bus.TraceConfig.path`; each run writes
        ``<scenario>-<policy>-s<seed>.jsonl``.
    slo_quantile:
        The SLA objective the burn rate is measured against: the
        fraction of completed requests that must meet ``T_s``
        (error budget = ``1 - slo_quantile``).  The paper's QoS
        contract has no explicit percentile, so the conventional
        95th-percentile objective is the default.
    history:
        Keep the snapshot series in memory (returned inside
        ``RunMetrics.telemetry``); disable for very long runs streamed
        to ``path`` — the backends then stream each snapshot straight
        to the JSONL file as it is taken, so nothing accumulates in
        memory and nothing is lost.
    """

    interval: Optional[float] = None
    path: Optional[str] = None
    slo_quantile: float = 0.95
    history: bool = True

    def __post_init__(self) -> None:
        if self.interval is not None and self.interval <= 0.0:
            raise ConfigurationError(
                f"snapshot interval must be > 0, got {self.interval!r}"
            )
        if not 0.0 < self.slo_quantile < 1.0:
            raise ConfigurationError(
                f"slo_quantile must be in (0, 1), got {self.slo_quantile!r}"
            )

    def resolve_path(self, scenario: str, policy: str, seed: int) -> Path:
        """Concrete JSONL path for one (scenario, policy, seed)."""
        scenario = _filename_component(scenario)
        policy = _filename_component(policy)
        raw = str(self.path)
        if "{" in raw:
            return Path(raw.format(scenario=scenario, policy=policy, seed=seed))
        p = Path(raw)
        if raw.endswith(("/", "\\")) or p.is_dir():
            return p / f"{scenario}-{policy}-s{seed}.jsonl"
        return p


class RunTelemetry:
    """Per-run snapshot sampler + registry finalizer.

    Built by a backend once per run when a :class:`MetricsConfig` is
    supplied.  On the DES backends :meth:`install` schedules a periodic
    low-priority engine event that calls :meth:`sample` and feeds the
    response-time histogram from the run's monitor; the fluid backend
    computes the same series from its integration grid via
    :meth:`sample_grid`.  Either way :meth:`finalize` assembles the
    registry from the run's final state and returns the ``telemetry``
    dict attached to :class:`~repro.backends.base.RunMetrics`.

    The ``qos.response_time`` histogram (:attr:`response_time`, buckets
    centered on the QoS target) is the only instrument live during the
    run; every counter and gauge is created at :meth:`finalize`.
    """

    def __init__(
        self,
        config: MetricsConfig,
        qos_response_time: float,
        interval: float,
        collector=None,
        fleet_size_fn: Optional[Callable[[], int]] = None,
        cache_fn: Optional[Callable[[], Tuple[int, int]]] = None,
        tracer: Optional[object] = None,
    ) -> None:
        if interval <= 0.0:
            raise ConfigurationError(f"snapshot interval must be > 0, got {interval!r}")
        self.registry = MetricsRegistry()
        self.response_time = self.registry.histogram(
            "qos.response_time", bounds=response_time_bounds(qos_response_time)
        )
        self.config = config
        self.qos_response_time = float(qos_response_time)
        self.interval = float(interval)
        self.collector = collector
        self.fleet_size_fn = fleet_size_fn
        self.cache_fn = cache_fn
        self.tracer = tracer
        self.snapshots: List[dict] = []
        # Incremental JSONL stream (history-off mode); see open_stream.
        self._stream = None
        self._stream_tmp: Optional[Path] = None
        self._stream_target: Optional[Path] = None
        # Previous-window counters for the burn-rate delta.
        self._prev_completed = 0
        self._prev_violations = 0

    # -- engine-driven sampling (des / des-vec) ------------------------
    def install(self, engine, monitor) -> None:
        """Schedule the periodic snapshot tick on the engine and feed
        :attr:`response_time` from ``monitor``.

        The histogram becomes the monitor's ``observer``: one
        ``observe`` per scalar completion and one ``observe_many`` per
        non-empty batch, so both DES data planes bucket (and
        Chan-merge) their responses in recording order.
        """
        from ..sim.events import PRIORITY_LOW

        def _tick() -> None:
            self.sample(engine.now)
            engine.schedule(self.interval, _tick, PRIORITY_LOW)

        engine.schedule(self.interval, _tick, PRIORITY_LOW)
        monitor.observer = self.response_time

    def sample(self, now: float) -> dict:
        """Take one snapshot of the run's QoS state at time ``now``.

        Every field is an integer or a ratio of integers, so the
        snapshot is a deterministic, backend-independent function of
        the counters — no order-dependent float sums.
        """
        m = self.collector
        completed = m.completed if m is not None else 0
        accepted = m.accepted if m is not None else 0
        rejected = m.rejected if m is not None else 0
        violations = m.violations if m is not None else 0
        return self._emit_snapshot(
            now, completed, accepted, rejected, violations,
            fleet=self.fleet_size_fn() if self.fleet_size_fn is not None else 0,
        )

    def _emit_snapshot(
        self,
        now: float,
        completed,
        accepted,
        rejected,
        violations,
        fleet: int,
        window_completed=None,
        window_violations=None,
    ) -> dict:
        if window_completed is None:
            window_completed = completed - self._prev_completed
            window_violations = violations - self._prev_violations
            self._prev_completed = completed
            self._prev_violations = violations
        budget = 1.0 - self.config.slo_quantile
        hist = self.response_time
        if self.cache_fn is not None:
            hits, misses = self.cache_fn()
        else:
            hits, misses = 0, 0
        total = accepted + rejected
        snapshot = {
            "t": now,
            "type": "metrics.snapshot",
            "interval": self.interval,
            "qos_target": self.qos_response_time,
            "total": total,
            "accepted": accepted,
            "rejected": rejected,
            "completed": completed,
            "violations": violations,
            "fleet": int(fleet),
            "rejection_rate": rejected / total if total else 0.0,
            "violation_fraction": violations / completed if completed else 0.0,
            "window_completed": window_completed,
            "window_violations": window_violations,
            "burn_rate": (
                (window_violations / window_completed) / budget
                if window_completed
                else 0.0
            ),
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_hit_ratio": hits / (hits + misses) if (hits + misses) else 0.0,
            "p50": hist.percentile_bound(0.50),
            "p95": hist.percentile_bound(0.95),
            "p99": hist.percentile_bound(0.99),
            "bounds": list(hist.bounds),
            "buckets": hist.cumulative_counts(),
        }
        if self.config.history:
            self.snapshots.append(snapshot)
        if self._stream is not None:
            self._stream.write(json.dumps(snapshot, separators=(",", ":")) + "\n")
        if self.tracer is not None:
            fields = {k: v for k, v in snapshot.items() if k not in ("t", "type")}
            self.tracer.emit("metrics.snapshot", now, **fields)
        return snapshot

    # -- grid-driven sampling (fluid backend) --------------------------
    def sample_grid(
        self,
        times: np.ndarray,
        dt: float,
        lam: np.ndarray,
        blocking: np.ndarray,
        m_grid: np.ndarray,
        horizon: float,
    ) -> None:
        """Compute the snapshot series from a fluid integration grid.

        Counts are *expected* flows (floats): cumulative offered /
        rejected arrivals up to each snapshot time, with ``completed ==
        accepted`` (flows always drain) and zero violations (the fluid
        model has no per-request response distribution — histogram
        buckets stay empty, percentile bounds report 0).
        """
        if times.size == 0:
            return
        snap_times = np.arange(self.interval, horizon + 1e-9, self.interval)
        cum_offered = np.concatenate(([0.0], np.cumsum(lam))) * dt
        cum_rejected = np.concatenate(([0.0], np.cumsum(lam * blocking))) * dt
        idx = np.searchsorted(times, snap_times, side="left")
        fleet_idx = np.clip(idx - 1, 0, m_grid.size - 1)
        for k, t_snap in enumerate(snap_times.tolist()):
            i = int(idx[k])
            offered = float(cum_offered[i])
            rejected = float(cum_rejected[i])
            accepted = offered - rejected
            self._emit_snapshot(
                t_snap,
                completed=accepted,
                accepted=accepted,
                rejected=rejected,
                violations=0,
                fleet=int(m_grid[int(fleet_idx[k])]),
                window_completed=0,
                window_violations=0,
            )

    # -- finalization ---------------------------------------------------
    def finalize(
        self,
        fields: Dict[str, object],
        fleet: int,
        actions: Optional[Sequence] = None,
        batch: Optional[Tuple[int, int]] = None,
    ) -> dict:
        """Assemble the registry from the run's state and dump the telemetry.

        Every counter and gauge is a view of a number the run already
        keeps, set once here rather than incremented on the hot path:

        * ``fields`` — the backend's
          :class:`~repro.backends.base.RunMetrics` fields: request
          totals, QoS violations, decision-cache counters, and the
          ``economy.*`` totals when the run was priced (the economy
          fields are present only then);
        * ``fleet`` — the serving fleet size at the end;
        * ``actions`` — the control plane's actuation log
          (``control.decisions``, ``fleet.target``); ``None`` for
          policies without a control plane;
        * ``batch`` — the vectorized data plane's ``(spans, flushed
          requests)``; ``None`` off ``des-vec``.

        Each run contributes its own final totals, so the dumps still
        merge correctly across replications.
        """
        reg = self.registry
        reg.counter("requests.arrived").set_total(fields["total_requests"])
        reg.counter("requests.accepted").set_total(fields["accepted"])
        reg.counter("requests.rejected").set_total(fields["rejected"])
        reg.counter("requests.completed").set_total(fields["completed"])
        reg.counter("qos.violations").set_total(fields["qos_violations"])
        reg.counter("control.cache_hits").set_total(fields["cache_hits"])
        reg.counter("control.cache_misses").set_total(fields["cache_misses"])
        reg.gauge("fleet.size").set(int(fleet))
        if actions is not None:
            reg.counter("control.decisions").set_total(len(actions))
            reg.gauge("fleet.target").set(actions[-1].target if actions else 0.0)
        if batch is not None:
            reg.counter("batch.spans").set_total(batch[0])
            reg.counter("batch.flushed_requests").set_total(batch[1])
        if "revenue" in fields:
            reg.gauge("economy.revenue").set(fields["revenue"])
            reg.gauge("economy.cost").set(fields["cost"])
            reg.gauge("economy.penalty").set(fields["penalty"])
            reg.gauge("economy.profit").set(fields["profit"])
            reg.gauge("economy.spot_vm_hours").set(fields["spot_vm_hours"])
            reg.counter("economy.revocations").set_total(fields["revocations"])
        return {
            "version": 1,
            "interval": self.interval,
            "slo_quantile": self.config.slo_quantile,
            "qos_target": self.qos_response_time,
            "registry": reg.to_dict(),
            "snapshots": list(self.snapshots),
        }

    # -- persistence ----------------------------------------------------
    def open_stream(self, path: Path) -> Path:
        """Stream every subsequent snapshot straight to ``path``.

        Backends call this before the run when the config has a
        ``path`` but ``history`` is disabled: each snapshot is appended
        to a ``.tmp`` sibling the moment it is taken (nothing
        accumulates in memory), and :meth:`close_stream` atomically
        renames it into place.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._stream_target = path
        self._stream_tmp = path.with_suffix(path.suffix + ".tmp")
        self._stream = self._stream_tmp.open("w", encoding="utf-8")
        return path

    def close_stream(self) -> Optional[Path]:
        """Flush and publish a stream opened by :meth:`open_stream`.

        Idempotent; returns the published path, or ``None`` when no
        stream is open.  Publishes whatever was streamed so far, so an
        interrupted run still keeps its partial series.
        """
        if self._stream is None:
            return None
        self._stream.close()
        self._stream = None
        self._stream_tmp.replace(self._stream_target)
        self._stream_tmp = None
        return self._stream_target

    def write_jsonl(self, path: Path) -> Path:
        """Write the snapshot series as one JSONL file (each line is a
        ``metrics.snapshot`` event that passes
        :func:`~repro.obs.schema.validate_event`; the census test
        ``tests/test_census.py`` checks every event a run emits).

        In streaming mode (``open_stream`` active) the series is
        already on disk — this just closes and publishes the stream.
        """
        if self._stream is not None:
            return self.close_stream()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            for snap in self.snapshots:
                fh.write(json.dumps(snap, separators=(",", ":")) + "\n")
        tmp.replace(path)
        return path
