"""Profit-aware provisioning policies.

Two policies beside the paper's adaptive-QoS mechanism, both built by
*subclassing* :class:`~repro.core.policies.AdaptivePolicy` so every
piece of shared machinery — analyzer cadence, predictor, decision
cache, control-plane extraction, fluid execution — is inherited rather
than re-implemented:

* :class:`ProfitPolicy` swaps Algorithm 1 for a profit-maximizing
  ``m*`` search (:class:`ProfitModeler`): pick the fleet size that
  maximizes ``r·λ·(1 − B(m)) − c·cores·m / 3600`` where ``B(m)`` is
  the closed-form blocking probability of the m-parallel M/M/1/K
  network.  This is the Mazzucco et al. revenue/cost tradeoff expressed
  through the repo's existing Erlang library.
* :class:`SpotPolicy` keeps Algorithm 1's sizing but declares a
  fraction of the fleet as cheap-but-revocable spot capacity: the
  ledger bills that fraction at the discounted rate, and a
  :class:`~repro.economy.revocation.RevocationInjector` reclaims
  instances at seeded exponential intervals (EC2-fleet-style
  on-demand/spot split).

The ``m*`` search exploits that the marginal profit of one more
instance, ``Δ(m) = profit(m+1) − profit(m)``, is decreasing in ``m``
(blocking is convex-decreasing): the optimum is the first ``m`` with
``Δ(m) ≤ 0``.  Warm-started from the current fleet size with a
two-sided galloping bracket plus bisection, a steady-state decision
costs ~3 network evaluations — the same order as a converged
Algorithm-1 pass, which is what keeps the per-decision cost within the
1.35x of ``benchmarks/bench_overhead_gates.py::test_profit_policy_overhead``.
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..core.modeler import PerformanceModeler, ProvisioningDecision
from ..core.policies import AdaptivePolicy
from ..errors import ConfigurationError
from .pricing import PricingModel
from .revocation import RevocationInjector

__all__ = ["ProfitModeler", "ProfitPolicy", "SpotPolicy"]

#: Name of the dedicated random stream revocation schedules draw from.
#: FNV-1a spawn keys make the stream a pure function of ``(seed, name)``,
#: so every backend sees the identical schedule.
REVOCATION_STREAM = "economy.revocation"


class ProfitModeler(PerformanceModeler):
    """Profit-maximizing ``m*`` search over the M/M/1/K network.

    Inherits the full :class:`PerformanceModeler` surface — quantized
    LRU decision cache, tracer observability, the network
    builder — and replaces only the uncached search.
    """

    def __init__(
        self,
        pricing: PricingModel,
        cores_per_vm: float = 1.0,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.pricing = pricing
        self.cores_per_vm = float(cores_per_vm)
        # (λ·Ts, m*) of the last uncached decision.  Per-instance load
        # at the optimum is nearly invariant as λ moves, so rescaling
        # the previous optimum by the offered load lands the warm start
        # within ~1 instance of the new optimum — the bracketing then
        # certifies it with 3-4 network evaluations, which is what
        # keeps ``test_profit_policy_overhead`` under 1.35x.  A
        # pure accelerator: the certified answer does not depend on it.
        self._opt_hint: Optional[tuple] = None

    def profit_rate(self, arrival_rate: float, service_time: float, m: int) -> float:
        """Expected profit per second of running ``m`` instances."""
        perf = self._network(service_time).evaluate(arrival_rate, m)
        return self._profit_value(arrival_rate, perf, m)

    def _profit_value(self, arrival_rate: float, perf, m: int) -> float:
        revenue = (
            self.pricing.revenue_per_request
            * arrival_rate
            * (1.0 - perf.blocking_probability)
        )
        cost = self.pricing.cost_per_core_hour * self.cores_per_vm * m / 3600.0
        return revenue - cost

    def _decide_uncached(
        self,
        arrival_rate: float,
        service_time: float,
        current_instances: int,
    ) -> ProvisioningDecision:
        net = self._network(service_time)
        lo_bound, hi_bound = self.min_vms, self.max_vms
        if arrival_rate == 0.0:
            perf = net.evaluate(0.0, lo_bound)
            return ProvisioningDecision(
                instances=lo_bound,
                predicted=perf,
                iterations=0,
                meets_qos=self.meets_qos(perf),
                trace=[lo_bound],
            )

        evals = {}

        def profit(m: int) -> float:
            cached = evals.get(m)
            if cached is None:
                perf = net.evaluate(arrival_rate, m)
                cached = evals[m] = (self._profit_value(arrival_rate, perf, m), perf)
            return cached[0]

        def falling(m: int) -> bool:
            # Δ(m) ≤ 0: adding the (m+1)-th instance no longer pays.
            return profit(m + 1) - profit(m) <= 0.0

        trace: List[int] = []
        iterations = 0
        m = min(max(int(current_instances), lo_bound), hi_bound)
        hint = self._opt_hint
        if hint is not None and hint[0] > 0.0:
            load = arrival_rate * service_time
            m = min(max(int(round(hint[1] * load / hint[0])), lo_bound), hi_bound)
        trace.append(m)
        # Bracket the optimum (the first m where Δ(m) ≤ 0) around the
        # warm start with a doubling gallop, then bisect inside it.
        if m < hi_bound and not falling(m):
            lo, hi, probe, step = m + 1, hi_bound, m, 1
            while True:
                iterations += 1
                probe = min(hi_bound, probe + step)
                trace.append(probe)
                if probe >= hi_bound or falling(probe):
                    hi = probe
                    break
                lo = probe + 1
                step *= 2
        else:
            # Δ(m) ≤ 0: the optimum is at or below the warm start.
            # Gallop down until a probe with Δ(probe) > 0 brackets it
            # from below; at steady state the first probe (m − 1) does,
            # so the whole search costs one extra network evaluation.
            lo, hi = lo_bound, m
            probe, step = m, 1
            while True:
                iterations += 1
                probe = max(lo_bound, probe - step)
                trace.append(probe)
                if not falling(probe):
                    lo = probe + 1
                    break
                hi = probe
                step *= 2
                if probe <= lo_bound:
                    break
        while lo < hi:
            iterations += 1
            mid = (lo + hi) // 2
            trace.append(mid)
            if mid < hi_bound and not falling(mid):
                lo = mid + 1
            else:
                hi = mid
        best = lo
        self._opt_hint = (arrival_rate * service_time, best)
        perf = evals[best][1] if best in evals else net.evaluate(arrival_rate, best)
        return ProvisioningDecision(
            instances=best,
            predicted=perf,
            iterations=iterations,
            meets_qos=self.meets_qos(perf),
            trace=trace,
        )


class ProfitPolicy(AdaptivePolicy):
    """Adaptive provisioning that sizes for profit, not the QoS target.

    Identical control loop to :class:`AdaptivePolicy` (analyzer →
    predictor → modeler → provisioner, on the same cadence); only the
    modeler changes, so DES/des-vec/fluid all execute it through the
    inherited plumbing.
    """

    name = "Profit"

    def __init__(
        self,
        pricing=None,
        cores_per_vm: float = 1.0,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.pricing = PricingModel.coerce(pricing) or PricingModel()
        self.cores_per_vm = float(cores_per_vm)

    def _build_modeler(self, qos, capacity: int, max_vms: int) -> PerformanceModeler:
        return ProfitModeler(
            pricing=self.pricing,
            cores_per_vm=self.cores_per_vm,
            qos=qos,
            capacity=capacity,
            max_vms=max_vms,
            min_vms=self.min_instances,
            rho_max=self.rho_max,
        )


class SpotPolicy(AdaptivePolicy):
    """Adaptive-QoS sizing over an on-demand/spot split fleet.

    Algorithm 1 is untouched — the fleet is *sized* exactly like the
    paper's mechanism.  The policy declares ``spot_fraction`` of the
    capacity as revocable: the profit ledger bills that share at the
    pricing model's spot rate, and on the DES backends a
    :class:`~repro.economy.revocation.RevocationInjector` kills the
    newest live instance at seeded exponential intervals (mean
    ``pricing.spot_mtbf``).  The revocation schedule is drawn up front
    from the named ``"economy.revocation"`` stream, so ``des`` and
    ``des-vec`` see bit-identical revocations and the fluid backend can
    replay the same schedule as fleet-size interventions.
    """

    def __init__(
        self,
        spot_fraction: float,
        pricing=None,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if not 0.0 < spot_fraction < 1.0:
            raise ConfigurationError(
                f"spot_fraction must be in (0, 1), got {spot_fraction!r}"
            )
        self.spot_fraction = float(spot_fraction)
        self.pricing = PricingModel.coerce(pricing) or PricingModel()
        self.name = f"Spot-{int(round(self.spot_fraction * 100))}"

    def revocation_schedule(self, streams, horizon: float) -> List[float]:
        """Draw the run's revocation times (identical on every backend).

        Cumulative sums of exponential(``spot_mtbf``) gaps from the
        dedicated per-name stream, truncated at the horizon.
        """
        rng = streams.get(REVOCATION_STREAM)
        times: List[float] = []
        t = 0.0
        while True:
            t += float(rng.exponential(self.pricing.spot_mtbf))
            if not t < horizon or not math.isfinite(t):
                return times
            times.append(t)

    def attach(self, ctx) -> None:
        super().attach(ctx)
        schedule = self.revocation_schedule(ctx.streams, ctx.horizon)
        injector = RevocationInjector(
            engine=ctx.engine,
            fleet=ctx.fleet,
            schedule=schedule,
            horizon=ctx.horizon,
            tracer=ctx.tracer,
        )
        injector.start()
        # Backends read the injector back for RunMetrics accounting.
        ctx.revoker = injector
