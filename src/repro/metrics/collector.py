"""Online metric accumulation for simulation runs.

The collector accumulates everything the paper reports (§V-A "output
metrics") in O(1) memory per request:

* average response time ``T_r`` of accepted requests and its standard
  deviation (Welford's algorithm, numerically stable over 10⁶+ samples);
* number of requests whose response time violated QoS (``T_r > T_s``);
* percentage of rejected requests;
* minimum / maximum number of virtualized application instances alive
  at any single time;
* VM hours (finalized from the data center ledger);
* resource-utilization rate = Σ busy time / Σ VM seconds.

Optionally it samples time series (arrival counts, fleet size) used to
regenerate Figures 3, 4 and the instance-count trajectories.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["MetricsCollector"]


class MetricsCollector:
    """Accumulates per-run output metrics.

    Parameters
    ----------
    qos_response_time:
        The negotiated ``T_s``; responses above it count as violations.
    track_fleet_series:
        When true, every fleet-size change is recorded as a
        ``(time, instances)`` step — needed for the instance-trajectory
        figures but off by default in the hot benchmarks.
    """

    def __init__(
        self,
        qos_response_time: float = math.inf,
        track_fleet_series: bool = False,
    ) -> None:
        self.qos_response_time = float(qos_response_time)
        # -- requests -------------------------------------------------
        self.accepted = 0  # admitted by admission control
        self.completed = 0  # finished service (response recorded)
        self.rejected = 0
        self.violations = 0
        # -- failure injection ------------------------------------------
        self.failures = 0  # instance crashes observed
        self.lost_requests = 0  # admitted requests that died in a crash
        # Welford accumulators for response time.  The scalar data
        # plane's one completion sink, Monitor.record_response, updates
        # them (with ``completed``, ``violations`` and ``busy_seconds``)
        # in place; record_responses merges a batch.
        self._resp_mean = 0.0
        self._resp_m2 = 0.0
        # -- service accounting ----------------------------------------
        self.busy_seconds = 0.0
        # -- fleet ------------------------------------------------------
        self.min_instances: Optional[int] = None
        self.max_instances: Optional[int] = None
        self._track_series = bool(track_fleet_series)
        self.fleet_series: List[Tuple[float, int]] = []
        # -- finalized by the runner -------------------------------------
        self.vm_hours = 0.0
        self.horizon = 0.0

    # ------------------------------------------------------------------
    # bulk recording (vectorized data plane; the scalar plane counts in
    # its own frames: admission control bumps accepted / rejected and
    # Monitor.record_response folds in each response)
    # ------------------------------------------------------------------
    def record_acceptances(self, count: int) -> None:
        """Record ``count`` admitted requests at once."""
        self.accepted += int(count)

    def record_rejections(self, count: int) -> None:
        """Record ``count`` rejected requests at once."""
        self.rejected += int(count)

    def record_responses(
        self, response_times: np.ndarray, service_times: np.ndarray
    ) -> None:
        """Record a batch of completions (Chan's parallel Welford merge).

        Violation counting and busy-time accumulation are exact; the
        running mean/M2 merge is the standard pairwise-combination
        update, algebraically identical to feeding the batch through
        the monitor's scalar sink one by one (floating-point rounding
        may differ in the last ulp, which is why cross-backend tests
        compare the derived statistics with tolerances while counters
        compare exactly).
        """
        responses = np.asarray(response_times, dtype=np.float64)
        n = responses.size
        if n == 0:
            return
        self.violations += int(np.count_nonzero(responses > self.qos_response_time))
        self.busy_seconds += float(np.sum(service_times))
        batch_mean = float(responses.mean())
        batch_m2 = float(np.sum((responses - batch_mean) ** 2))
        prior = self.completed
        total = prior + n
        if prior == 0:
            self._resp_mean = batch_mean
            self._resp_m2 = batch_m2
        else:
            delta = batch_mean - self._resp_mean
            self._resp_mean += delta * n / total
            self._resp_m2 += batch_m2 + delta * delta * prior * n / total
        self.completed = total

    def record_loss(self, count: int) -> None:
        """Record an instance crash that killed ``count`` admitted requests."""
        self.failures += 1
        self.lost_requests += count

    def record_fleet_size(self, now: float, instances: int) -> None:
        """Record a change in the number of live application instances."""
        if self.min_instances is None or instances < self.min_instances:
            self.min_instances = instances
        if self.max_instances is None or instances > self.max_instances:
            self.max_instances = instances
        if self._track_series:
            self.fleet_series.append((now, instances))

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def total_requests(self) -> int:
        """Accepted + rejected arrivals seen so far."""
        return self.accepted + self.rejected

    @property
    def in_flight(self) -> int:
        """Admitted requests not yet completed (excluding crash losses)."""
        return self.accepted - self.completed - self.lost_requests

    @property
    def rejection_rate(self) -> float:
        """Fraction of arrivals rejected (0 when no traffic)."""
        total = self.total_requests
        return self.rejected / total if total else 0.0

    @property
    def mean_response_time(self) -> float:
        """Average ``T_r`` over completed requests (0 when none)."""
        return self._resp_mean if self.completed else 0.0

    @property
    def response_time_std(self) -> float:
        """Sample standard deviation of ``T_r`` (0 with < 2 samples)."""
        if self.completed < 2:
            return 0.0
        return math.sqrt(self._resp_m2 / (self.completed - 1))

    @property
    def utilization(self) -> float:
        """Busy time over provisioned VM time (the paper's definition)."""
        if self.vm_hours <= 0.0:
            return 0.0
        return self.busy_seconds / (self.vm_hours * 3600.0)

    # ------------------------------------------------------------------
    def finalize(self, now: float, vm_hours: float) -> None:
        """Close the books at the end of a run."""
        self.horizon = now
        self.vm_hours = vm_hours

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MetricsCollector acc={self.accepted} rej={self.rejected} "
            f"Tr={self.mean_response_time:.4g}s rejrate={self.rejection_rate:.3%}>"
        )
