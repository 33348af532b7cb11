"""Load predictor & performance modeler — Algorithm 1.

This component (paper §IV-B) "solves an analytical model based on the
observed system performance and predicted load to decide the number of
VM instances that should be allocated to an application".  The model is
the Figure-2 queueing network (:class:`repro.queueing.ProvisioningNetwork`):
an M/M/∞ dispatch station feeding ``m`` parallel M/M/1/k instances,
each offered ``λ/m``.  Dispatch takes no time, in the simulator and in
the model alike, so ``T_q`` is the instance sojourn.

Algorithm 1 (reproduced faithfully, with two documented fixes):

1. start from the current fleet size ``m``; bounds ``min = 1``,
   ``max = MaxVMs``;
2. evaluate blocking ``Pr(S_k)`` and response time ``T_q`` at ``m``;
3. if QoS is not met: record ``m`` as insufficient (``min ← oldm + 1``
   — the paper prints ``min ← m + 1`` *after* growing ``m``, which
   would push the lower bound above the candidate; we use the evident
   intent), grow ``m ← m + m/2`` capped at ``max``;
4. else if predicted utilization is below the threshold: ``max ← m``,
   bisect down ``m ← min + (max − min)/2``, reverting to ``oldm`` when
   the bisection cannot move;
5. stop when ``m`` does not change (plus an explicit ``min > max``
   guard, the second fix).

QoS-check calibration (DESIGN.md §3): the scenarios declare a 0 %
rejection *target* while the reported fleet sizes correspond to
per-instance loads ρ ≈ 0.8–0.85 — where an M/M/1/2 model predicts ~26 %
blocking but the low-variability simulated workload rejects ≈ nothing.
The modeler therefore accepts a candidate when its *offered load* stays
below ``rho_max`` (default 0.85): the blocking tolerance is derived as
``mm1k_blocking(rho_max, k)`` so the check is still expressed in the
paper's terms (``Pr(S_k)`` against a tolerance) and still responds to
``k``.  Utilization in step 4 is predicted as offered load ``ρ`` capped
at 1 — the carried load of a lightly-variable system.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..queueing.mm1k import MM1KQueue, mm1k_blocking
from ..queueing.network import NetworkPerformance, ProvisioningNetwork
from .qos import QoSTarget

__all__ = ["ProvisioningDecision", "PerformanceModeler"]


#: Significant digits of ``λ`` and ``T_m`` in a decision-cache key.
_CACHE_SIG = 3


def _round_sig(x: float) -> float:
    """Round ``x`` to :data:`_CACHE_SIG` significant digits (a
    scale-free grid)."""
    if x == 0.0:
        return 0.0
    return round(x, _CACHE_SIG - 1 - int(math.floor(math.log10(abs(x)))))


@dataclass(frozen=True)
class ProvisioningDecision:
    """Outcome of one Algorithm-1 run.

    Attributes
    ----------
    instances:
        The fleet size ``m`` selected.
    predicted:
        Network performance at the selected ``m``.
    iterations:
        Search iterations used (the algorithm's loop count).
    meets_qos:
        Whether the selected ``m`` satisfies the QoS check (it may not
        when ``MaxVMs`` caps the search).
    trace:
        Sequence of candidate fleet sizes examined, for diagnostics.
    """

    instances: int
    predicted: NetworkPerformance
    iterations: int
    meets_qos: bool
    trace: List[int] = field(default_factory=list)


class PerformanceModeler:
    """Runs Algorithm 1 against the analytical network model.

    Parameters
    ----------
    qos:
        The application's QoS contract.
    capacity:
        Per-instance queue capacity ``k`` (Eq. 1).
    max_vms:
        ``MaxVMs`` — quota negotiated with the IaaS provider.
    min_vms:
        Floor on the fleet size (≥ 1).
    rho_max:
        Maximum acceptable per-instance offered load; the blocking
        tolerance is ``mm1k_blocking(rho_max, k)``.
    instance_model:
        Queue-model factory ``(lam, mu, k) -> QueueModel`` for each
        instance station (the queue-model ablation swaps in M/D/1/K).
    decision_cache_size:
        Capacity of the quantized LRU decision cache (0 disables it).
        Analyzer ticks under steady load re-pose the same
        ``(λ, T_m, m)`` point every interval; caching skips the whole
        grow/shrink search on those hits.  ``λ`` and ``T_m`` are
        rounded to three significant digits to form the key, so
        near-identical monitored inputs (e.g. an EWMA ``T_m`` wobbling
        in its last digits) collapse onto one cache line; the grid is
        scale-free and keeps key collisions well inside the search's
        own ±1-instance noise.
    tracer:
        Optional :class:`repro.obs.bus.TraceBus`; every invocation of
        :meth:`decide` then emits a ``decision`` event carrying the
        inputs, the grow/shrink search path, and whether it was a
        cache hit.  Needs ``time_fn`` for timestamps.
    time_fn:
        Zero-argument callable returning the current simulation time
        (``lambda: engine.now``); required when ``tracer`` is set,
        ignored otherwise.

    Notes
    -----
    The cache is invalidated automatically when :attr:`qos` is
    reassigned.  Mutating other decision inputs in place
    (``rho_max``, ``rejection_tolerance``, ``capacity`` …) requires an
    explicit :meth:`clear_cache`.  Hit/miss counters are exposed via
    :attr:`cache_hits` / :attr:`cache_misses` / :meth:`cache_info`.
    """

    def __init__(
        self,
        qos: QoSTarget,
        capacity: int,
        max_vms: int,
        min_vms: int = 1,
        rho_max: float = 0.85,
        instance_model: Callable[[float, float, int], object] = MM1KQueue,
        decision_cache_size: int = 256,
        tracer: Optional[object] = None,
        time_fn: Optional[Callable[[], float]] = None,
    ) -> None:
        if decision_cache_size < 0:
            raise ConfigurationError(
                f"decision cache size must be >= 0, got {decision_cache_size}"
            )
        self._cache: "OrderedDict[Tuple[float, float, int], ProvisioningDecision]" = OrderedDict()
        self._cache_size = int(decision_cache_size)
        #: Decision-cache hit counter (observability).
        self.cache_hits = 0
        #: Decision-cache miss counter (observability).
        self.cache_misses = 0
        if capacity < 1:
            raise ConfigurationError(f"capacity k must be >= 1, got {capacity}")
        if min_vms < 1 or max_vms < min_vms:
            raise ConfigurationError(
                f"need 1 <= min_vms <= max_vms, got min={min_vms} max={max_vms}"
            )
        if not 0.0 < rho_max < 1.0:
            raise ConfigurationError(f"rho_max must be in (0, 1), got {rho_max!r}")
        self.qos = qos
        self.capacity = int(capacity)
        self.max_vms = int(max_vms)
        self.min_vms = int(min_vms)
        self.rho_max = float(rho_max)
        #: Predicted-blocking tolerance of the QoS check.
        self.rejection_tolerance = mm1k_blocking(rho_max, capacity)
        self._instance_model = instance_model
        if tracer is not None and time_fn is None:
            raise ConfigurationError(
                "a modeler with a tracer needs time_fn "
                "(e.g. lambda: engine.now) to timestamp decisions"
            )
        #: Optional trace bus (``decision`` events).
        self.tracer = tracer
        #: Simulation-clock accessor for decision timestamps.
        self.time_fn = time_fn

    # ------------------------------------------------------------------
    # decision cache
    # ------------------------------------------------------------------
    @property
    def qos(self) -> QoSTarget:
        """The QoS contract; reassigning it invalidates the cache."""
        return self._qos

    @qos.setter
    def qos(self, value: QoSTarget) -> None:
        self._qos = value
        self.clear_cache()

    def clear_cache(self) -> None:
        """Drop all cached decisions (counters are preserved)."""
        self._cache.clear()

    def cache_info(self) -> Dict[str, int]:
        """Hit/miss/size snapshot of the decision cache."""
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "size": len(self._cache),
            "maxsize": self._cache_size,
        }

    def _cache_key(
        self, arrival_rate: float, service_time: float, m: int
    ) -> Tuple[float, float, int]:
        return (_round_sig(arrival_rate), _round_sig(service_time), m)

    # ------------------------------------------------------------------
    def _network(self, service_time: float) -> ProvisioningNetwork:
        return ProvisioningNetwork(
            service_time=service_time,
            capacity=self.capacity,
            instance_model=self._instance_model,
        )

    def meets_qos(self, perf: NetworkPerformance) -> bool:
        """The paper's line-9 test: do ``Pr(S_k)`` and ``T_q`` meet QoS?"""
        return (
            perf.blocking_probability <= self.rejection_tolerance
            and perf.response_time <= self.qos.max_response_time
            and perf.rho <= self.rho_max
        )

    def predicted_utilization(self, perf: NetworkPerformance) -> float:
        """Offered per-instance load capped at 1 (see module docstring)."""
        return min(1.0, perf.rho)

    # ------------------------------------------------------------------
    def decide(
        self,
        arrival_rate: float,
        service_time: float,
        current_instances: int,
    ) -> ProvisioningDecision:
        """Run Algorithm 1 and return the target fleet size.

        Parameters
        ----------
        arrival_rate:
            ``λ`` — the analyzer's predicted request arrival rate.
        service_time:
            ``T_m`` — the monitored average request execution time.
        current_instances:
            The fleet size the search starts from (Algorithm 1 line 1).

        Notes
        -----
        Results are served from the quantized LRU cache when an
        equivalent ``(λ, T_m, m)`` point was decided recently; see the
        class docstring for the quantization and invalidation rules.
        """
        if arrival_rate < 0.0 or not math.isfinite(arrival_rate):
            raise ConfigurationError(
                f"arrival rate must be finite and >= 0, got {arrival_rate!r}"
            )
        if service_time <= 0.0 or not math.isfinite(service_time):
            raise ConfigurationError(
                f"service time must be finite and > 0, got {service_time!r}"
            )
        if self._cache_size == 0:
            decision = self._decide_uncached(arrival_rate, service_time, current_instances)
            if self.tracer is not None:
                self._observe(decision, arrival_rate, service_time, current_instances, False)
            return decision
        start = min(max(int(current_instances), self.min_vms), self.max_vms)
        key = self._cache_key(arrival_rate, service_time, start)
        cache = self._cache
        hit = cache.get(key)
        if hit is not None:
            cache.move_to_end(key)
            self.cache_hits += 1
            if self.tracer is not None:
                self._observe(hit, arrival_rate, service_time, current_instances, True)
            return hit
        decision = self._decide_uncached(arrival_rate, service_time, current_instances)
        self.cache_misses += 1
        cache[key] = decision
        if len(cache) > self._cache_size:
            cache.popitem(last=False)
        if self.tracer is not None:
            self._observe(decision, arrival_rate, service_time, current_instances, False)
        return decision

    def _observe(
        self,
        decision: ProvisioningDecision,
        arrival_rate: float,
        service_time: float,
        current_instances: int,
        cache_hit: bool,
    ) -> None:
        """Emit one invocation as a ``decision`` trace event.

        Called only when a tracer is attached, so the untraced
        :meth:`decide` path pays a single attribute check.
        """
        perf = decision.predicted
        self.tracer.emit(
            "decision",
            self.time_fn(),
            arrival_rate=arrival_rate,
            service_time=service_time,
            current=int(current_instances),
            chosen=decision.instances,
            iterations=decision.iterations,
            meets_qos=decision.meets_qos,
            cache_hit=cache_hit,
            path=list(decision.trace),
            rho=perf.rho,
            blocking=perf.blocking_probability,
            response=perf.response_time,
        )

    def _decide_uncached(
        self,
        arrival_rate: float,
        service_time: float,
        current_instances: int,
    ) -> ProvisioningDecision:
        """Algorithm 1 proper (no cache in front); inputs pre-validated."""
        net = self._network(service_time)
        if arrival_rate == 0.0:
            # No expected traffic: the floor fleet.  (The paper's search
            # cannot reach its own lower bound because line 18 reverts
            # any bisection that lands on it; short-circuit instead.)
            perf = net.evaluate(0.0, self.min_vms)
            return ProvisioningDecision(
                instances=self.min_vms,
                predicted=perf,
                iterations=0,
                meets_qos=self.meets_qos(perf),
                trace=[self.min_vms],
            )
        lo, hi = self.min_vms, self.max_vms
        m = min(max(int(current_instances), lo), hi)
        trace: List[int] = []
        iterations = 0
        # The search space is [1, MaxVMs]; each iteration either grows m
        # geometrically or halves the bracket, so 4·log2(MaxVMs) + a
        # constant bounds the loop.  The explicit cap is a safety net.
        max_iterations = 8 * (int(math.log2(max(2, self.max_vms))) + 2)
        while True:
            iterations += 1
            oldm = m
            trace.append(m)
            perf = net.evaluate(arrival_rate, m)
            if not self.meets_qos(perf):
                lo = oldm + 1  # documented fix of paper line 11
                m = m + max(1, m // 2)  # line 10 (integer semantics)
                if m > hi:
                    m = hi
                if lo > hi:  # nothing feasible: run at the quota
                    m = hi
                    break
            elif self.predicted_utilization(perf) < self.qos.min_utilization:
                hi = m  # line 16
                m = lo + (hi - lo) // 2  # line 17
                if m <= lo:
                    m = oldm  # lines 18–19
            if m == oldm or iterations >= max_iterations:
                break
        final = net.evaluate(arrival_rate, m)
        return ProvisioningDecision(
            instances=m,
            predicted=final,
            iterations=iterations,
            meets_qos=self.meets_qos(final),
            trace=trace,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PerformanceModeler k={self.capacity} max_vms={self.max_vms} "
            f"rho_max={self.rho_max} tol={self.rejection_tolerance:.4f}>"
        )
