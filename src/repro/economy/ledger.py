"""Profit ledger — deterministic per-interval and end-of-run accounting.

The ledger folds counters the simulation already keeps (completions,
rejections, QoS violations from :class:`~repro.metrics.collector.
MetricsCollector`; core-hours from the datacenter) into an economic
trajectory: one immutable :class:`IntervalRecord` per accounting
interval, and exact end-of-run totals.

Determinism is the load-bearing property:

* records are plain tuples of the interval's *deltas*, so a record is
  independent of every other record;
* totals are computed with :func:`math.fsum` over the record set, so
  they are the correctly-rounded true sums — **exactly** invariant
  under record order (property-tested in ``tests/test_economy.py``).

On the DES backends the ledger installs a low-priority periodic engine
tick (same cadence discipline as
:class:`~repro.obs.metrics.RunTelemetry`); the fluid backend skips
interval sampling and bills straight from its aggregates via
:meth:`EconomyTotals.from_aggregates`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .pricing import PricingModel

__all__ = ["EconomyTotals", "IntervalRecord", "ProfitLedger", "publish_totals"]


def publish_totals(
    totals: "EconomyTotals",
    now: float,
    violating_intervals: int = 0,
    tracer=None,
) -> None:
    """Publish end-of-run billing to the trace as ``economy.summary``.

    Used by :meth:`ProfitLedger.finalize` (DES backends) and directly
    by the fluid backend, which bills from aggregates without a ledger.
    The ``economy.*`` metrics are a view of the same totals, carried in
    :class:`~repro.backends.base.RunMetrics` and assembled by
    :meth:`repro.obs.metrics.RunTelemetry.finalize`.
    """
    if tracer is not None:
        tracer.emit(
            "economy.summary",
            now,
            revenue=totals.revenue,
            cost=totals.cost,
            penalty=totals.penalty,
            profit=totals.profit,
            spot_vm_hours=totals.spot_vm_hours,
            revocations=totals.revocations,
            violating_intervals=int(violating_intervals),
        )


class IntervalRecord(NamedTuple):
    """Deltas of one accounting interval ``[start, start + duration)``."""

    start: float
    duration: float
    completed: int
    rejected: int
    violations: int
    core_seconds: float
    spot_core_seconds: float


@dataclass(frozen=True)
class EconomyTotals:
    """End-of-run economic summary (all in the pricing model's units)."""

    revenue: float = 0.0
    cost: float = 0.0
    penalty: float = 0.0
    spot_vm_hours: float = 0.0
    revocations: int = 0

    @property
    def profit(self) -> float:
        return self.revenue - self.cost - self.penalty

    @classmethod
    def from_aggregates(
        cls,
        pricing: PricingModel,
        completed: float,
        core_hours: float,
        vm_hours: float,
        spot_fraction: float = 0.0,
        violating_intervals: int = 0,
        revocations: int = 0,
    ) -> "EconomyTotals":
        """Bill a run straight from its aggregate counters.

        The spot-split billing model charges a constant ``spot_fraction``
        of all capacity-hours at the discounted rate — the declared
        on-demand/spot split of the fleet, not a per-VM tag.
        """
        spot_core_hours = spot_fraction * float(core_hours)
        return cls(
            revenue=pricing.revenue(completed),
            cost=pricing.capacity_cost(core_hours, spot_core_hours),
            penalty=pricing.sla_penalty * int(violating_intervals),
            spot_vm_hours=spot_fraction * float(vm_hours),
            revocations=int(revocations),
        )


class ProfitLedger:
    """Interval-sampled profit accounting for one run.

    Parameters
    ----------
    pricing:
        The economic contract to bill against.
    interval:
        Accounting-interval length in seconds (DES sampling cadence).
    cores_per_vm:
        Cores billed per fleet instance (VM-seconds → core-seconds).
    spot_fraction:
        Declared fraction of capacity billed at the spot rate.
    collector:
        The run's :class:`~repro.metrics.collector.MetricsCollector`
        (read-only; the ledger samples its cumulative counters).
    vm_hours_fn:
        ``now -> cumulative VM-hours`` (the datacenter ledger).
    tracer:
        Optional :class:`repro.obs.bus.TraceBus`: ``economy.interval``
        / ``economy.summary`` trace events.
    """

    def __init__(
        self,
        pricing: PricingModel,
        interval: float,
        cores_per_vm: float = 1.0,
        spot_fraction: float = 0.0,
        collector=None,
        vm_hours_fn: Optional[Callable[[float], float]] = None,
        tracer=None,
        records: Sequence[IntervalRecord] = (),
    ) -> None:
        if not interval > 0.0:
            from ..errors import ConfigurationError

            raise ConfigurationError(
                f"ledger interval must be > 0 seconds, got {interval!r}"
            )
        self.pricing = pricing
        self.interval = float(interval)
        self.cores_per_vm = float(cores_per_vm)
        self.spot_fraction = float(spot_fraction)
        self._collector = collector
        self._vm_hours_fn = vm_hours_fn
        self._tracer = tracer
        self.records: List[IntervalRecord] = sorted(records)
        # Cumulative state at the last sample (delta baseline).
        self._last_t = 0.0
        self._last = (0, 0, 0, 0.0)  # completed, rejected, violations, vm_hours

    # ------------------------------------------------------------------
    # DES sampling
    # ------------------------------------------------------------------
    def install(self, engine) -> None:
        """Schedule the periodic accounting tick on the engine."""
        from ..sim.events import PRIORITY_LOW

        def _tick() -> None:
            self.sample(engine.now)
            engine.schedule(self.interval, _tick, PRIORITY_LOW)

        engine.schedule(self.interval, _tick, PRIORITY_LOW)

    def sample(self, now: float) -> Optional[IntervalRecord]:
        """Close the accounting interval ending at ``now``.

        Reads the cumulative counters, converts them to deltas against
        the previous sample, and appends one record.  Zero-length
        intervals (finalize landing exactly on a tick) are skipped.
        """
        duration = now - self._last_t
        if duration <= 0.0:
            return None
        completed = int(self._collector.completed) if self._collector else 0
        rejected = int(self._collector.rejected) if self._collector else 0
        violations = int(self._collector.violations) if self._collector else 0
        vm_hours = float(self._vm_hours_fn(now)) if self._vm_hours_fn else 0.0
        last_c, last_r, last_v, last_h = self._last
        core_seconds = (vm_hours - last_h) * 3600.0 * self.cores_per_vm
        record = IntervalRecord(
            start=self._last_t,
            duration=duration,
            completed=completed - last_c,
            rejected=rejected - last_r,
            violations=violations - last_v,
            core_seconds=core_seconds,
            spot_core_seconds=self.spot_fraction * core_seconds,
        )
        self.records.append(record)
        self._last_t = now
        self._last = (completed, rejected, violations, vm_hours)
        if self._tracer is not None:
            self._tracer.emit(
                "economy.interval",
                now,
                duration=record.duration,
                completed=record.completed,
                rejected=record.rejected,
                violations=record.violations,
                core_seconds=record.core_seconds,
                spot_core_seconds=record.spot_core_seconds,
                violating=self.pricing.interval_violates(
                    record.completed, record.violations
                ),
            )
        return record

    # ------------------------------------------------------------------
    # Totals
    # ------------------------------------------------------------------
    @property
    def violating_intervals(self) -> int:
        return sum(
            1
            for r in self.records
            if self.pricing.interval_violates(r.completed, r.violations)
        )

    def totals(self, revocations: int = 0) -> EconomyTotals:
        """Exact (fsum, order-invariant) totals over the record set."""
        core_hours = math.fsum(r.core_seconds for r in self.records) / 3600.0
        spot_core_hours = math.fsum(r.spot_core_seconds for r in self.records) / 3600.0
        completed = sum(r.completed for r in self.records)
        vm_hours = core_hours / self.cores_per_vm if self.cores_per_vm else 0.0
        return EconomyTotals(
            revenue=self.pricing.revenue(completed),
            cost=self.pricing.capacity_cost(core_hours, spot_core_hours),
            penalty=self.pricing.sla_penalty * self.violating_intervals,
            spot_vm_hours=self.spot_fraction * vm_hours,
            revocations=int(revocations),
        )

    # ------------------------------------------------------------------
    # Finalize
    # ------------------------------------------------------------------
    def finalize(self, now: float, revocations: int = 0) -> EconomyTotals:
        """Close the tail interval, publish obs state, return totals."""
        self.sample(now)
        totals = self.totals(revocations=revocations)
        publish_totals(
            totals,
            now,
            violating_intervals=self.violating_intervals,
            tracer=self._tracer,
        )
        return totals
