"""Run telemetry — the response-time histogram and the snapshot series.

The trace bus (:mod:`repro.obs.bus`) transports *events*; this module
turns a run into *metrics*: a periodic ``metrics.snapshot`` series and
a final registry dump.  The design rules mirror the bus:

* **zero cost when disabled** — no simulation component holds a
  metric: :class:`RunTelemetry` reads the counters and gauges at
  finalize from totals the run already keeps, and only the
  response-time :class:`Histogram` is live (fed from the monitor's
  completion sinks), so a run without metrics executes exactly the
  seed code path;
* **no wall clocks, no randomness** — every value is a function of the
  simulation, never of the host (the :mod:`repro.lint` determinism rule
  applies to this module like any other);
* **picklable config** — :class:`MetricsConfig` is the frozen recipe
  the experiment runner threads through process pools, exactly like
  :class:`~repro.obs.bus.TraceConfig`.

:class:`RunTelemetry` is the per-run session object the backends build
from a :class:`MetricsConfig`: once per monitor epoch it samples a
``metrics.snapshot`` event (SLA violation fraction and burn rate
against the scenario's QoS target, admission/rejection rates, fleet
size, decision-cache hit ratio, response-time histogram state) on the
engine's clock, streams it to the run's JSONL file when the config has
a ``path``, and finalizes the ``telemetry`` field of
:class:`~repro.backends.base.RunMetrics`.

Snapshots carry only integers and exactly-derived ratios — never an
order-dependent float accumulation — which is why the snapshot series
is bit-identical between the scalar ``des`` and batched ``des-vec``
backends on jitterless scenarios (``tests/test_metrics_xbackend.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from .bus import JsonlSink, resolve_run_path

__all__ = [
    "METRIC_NAMES",
    "SLO_QUANTILE",
    "Histogram",
    "MetricsConfig",
    "RunTelemetry",
    "log_bucket_bounds",
    "response_time_bounds",
]


#: Every metric a run's registry may report: name → (kind, help).  The
#: census test ``tests/test_census.py`` checks that its metered runs
#: report exactly these names, so the table and :meth:`RunTelemetry.finalize`
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

#: The SLA objective the burn rate is measured against: the fraction of
#: completed requests that must meet ``T_s`` (error budget = ``1 -
#: SLO_QUANTILE``).  The paper's QoS contract has no explicit
#: percentile, so this is the conventional 95th-percentile objective.
SLO_QUANTILE = 0.95


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


class Histogram:
    """Fixed-boundary histogram with Chan-combined moments.

    Bucket ``i`` covers ``[bounds[i-1], bounds[i])`` (bucket 0 is
    everything below ``bounds[0]``); one final overflow bucket catches
    values ≥ ``bounds[-1]``, so ``len(counts) == len(bounds) + 1``.
    Observation uses ``np.searchsorted(side="right")`` — scalar
    observations are buffered in a plain list and bulk-ingested through
    the same kernel as :meth:`observe_many`, so scalar and vectorized
    feeds bucket identically *and* the scalar hot path is a single
    ``list.append``: :meth:`observe` *is* the buffer's bound ``append``,
    so recording one value enters no Python frame (the deferred work is
    amortized over the whole buffer at the next read).

    Besides the bucket counts the histogram keeps count/mean/M2 moment
    accumulators, folding each batch in with Chan's parallel update —
    the same update the bulk
    :class:`~repro.metrics.collector.MetricsCollector` path uses.
    """

    __slots__ = ("bounds", "_counts", "_count", "_mean", "_m2", "_pending", "observe")

    def __init__(self, bounds: Sequence[float]) -> None:
        b = tuple(float(x) for x in bounds)
        if not b or any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ConfigurationError(
                f"histogram bounds must be strictly increasing and non-empty, got {b!r}"
            )
        self.bounds = b
        self._counts = [0] * (len(b) + 1)
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._pending: List[float] = []
        #: Record one observation: the buffer's ``append`` itself (the
        #: buffer is flushed in place, never rebound).
        self.observe: Callable[[float], None] = self._pending.append

    # A copy or an unpickled histogram must append to its own buffer.
    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__ if name != "observe"}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self.observe = self._pending.append

    # -- observation ----------------------------------------------------
    def observe_many(self, values: np.ndarray) -> None:
        """Record a batch (vectorized bucketing + Chan moment merge)."""
        self._flush()
        self._ingest(np.asarray(values, dtype=np.float64))

    def _flush(self) -> None:
        """Fold buffered scalar observations into the accumulators."""
        pending = self._pending
        if pending:
            self._ingest(np.asarray(pending, dtype=np.float64))
            pending.clear()

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
        prior = self._count
        total = prior + n
        if prior == 0:
            self._mean = batch_mean
            self._m2 = batch_m2
        else:
            delta = batch_mean - self._mean
            self._mean += delta * n / total
            self._m2 += batch_m2 + delta * delta * prior * n / total
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


@dataclass(frozen=True)
class MetricsConfig:
    """Picklable recipe for one run's telemetry (mirror of TraceConfig).

    Snapshots are taken once per monitor epoch (the scenario's
    ``update_interval``) and kept in ``RunMetrics.telemetry``.

    Parameters
    ----------
    path:
        Optional JSONL destination the snapshots stream to as they are
        taken.  Same placeholder/directory semantics as
        :class:`~repro.obs.bus.TraceConfig.path`; each run writes
        ``<scenario>-<policy>-s<seed>.jsonl``.
    """

    path: Optional[str] = None

    def resolve_path(self, scenario: str, policy: str, seed: int) -> Path:
        """Concrete JSONL path for one (scenario, policy, seed)."""
        return resolve_run_path(self.path, scenario, policy, seed)


class RunTelemetry:
    """Per-run snapshot sampler + registry finalizer.

    Built by a backend once per run when a :class:`MetricsConfig` is
    supplied.  On the DES backends :meth:`install` schedules a periodic
    low-priority engine event that calls :meth:`sample` and feeds the
    response-time histogram from the run's monitor; the fluid backend
    computes the same series from its integration grid via
    :meth:`sample_grid`.  With a ``path`` every snapshot is written and
    flushed to that file the moment it is taken, so a reader (``repro
    campaign watch``) sees a live run's progress and a failed run
    leaves its partial series; :meth:`close` ends the file.
    :meth:`finalize` assembles the registry from the run's final state
    and returns the ``telemetry`` dict attached to
    :class:`~repro.backends.base.RunMetrics`.

    The ``qos.response_time`` histogram (:attr:`response_time`, buckets
    centered on the QoS target) is the only instrument live during the
    run; every counter and gauge is read at :meth:`finalize`.
    """

    def __init__(
        self,
        qos_response_time: float,
        interval: float,
        path: Optional[Path] = None,
        collector=None,
        fleet_size_fn: Optional[Callable[[], int]] = None,
        cache_fn: Optional[Callable[[], Tuple[int, int]]] = None,
        tracer: Optional[object] = None,
    ) -> None:
        if interval <= 0.0:
            raise ConfigurationError(f"snapshot interval must be > 0, got {interval!r}")
        self.response_time = Histogram(response_time_bounds(qos_response_time))
        self.qos_response_time = float(qos_response_time)
        self.interval = float(interval)
        self.collector = collector
        self.fleet_size_fn = fleet_size_fn
        self.cache_fn = cache_fn
        self.tracer = tracer
        self.snapshots: List[dict] = []
        self._sink = JsonlSink(path) if path is not None else None
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
        budget = 1.0 - SLO_QUANTILE
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
        self.snapshots.append(snapshot)
        if self._sink is not None:
            self._sink.write(snapshot)
            self._sink.flush()
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
        keeps, read once here rather than incremented on the hot path:

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
        """
        values = {
            "requests.arrived": fields["total_requests"],
            "requests.accepted": fields["accepted"],
            "requests.rejected": fields["rejected"],
            "requests.completed": fields["completed"],
            "qos.violations": fields["qos_violations"],
            "control.cache_hits": fields["cache_hits"],
            "control.cache_misses": fields["cache_misses"],
            "fleet.size": int(fleet),
        }
        if actions is not None:
            values["control.decisions"] = len(actions)
            values["fleet.target"] = actions[-1].target if actions else 0.0
        if batch is not None:
            values["batch.spans"], values["batch.flushed_requests"] = batch
        if "revenue" in fields:
            for key in ("revenue", "cost", "penalty", "profit", "spot_vm_hours", "revocations"):
                values[f"economy.{key}"] = fields[key]
        registry = {
            name: {"kind": METRIC_NAMES[name][0], "value": v} for name, v in values.items()
        }
        registry["qos.response_time"] = self.response_time.to_dict()
        return {
            "version": 1,
            "interval": self.interval,
            "slo_quantile": SLO_QUANTILE,
            "qos_target": self.qos_response_time,
            "registry": dict(sorted(registry.items())),
            "snapshots": list(self.snapshots),
        }

    def close(self) -> None:
        """End the snapshot file (no-op without a ``path``; idempotent)."""
        if self._sink is not None:
            self._sink.close()
