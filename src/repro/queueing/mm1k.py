"""The M/M/1/K queue — the paper's per-instance performance model.

Each virtualized application instance is modeled as an M/M/1/K station
(paper §IV-B, Figure 2) with system capacity ``K = k = ⌊Ts/Tr⌋``
(Eq. 1): one request in service plus ``k − 1`` waiting.  When an
arrival finds ``k`` requests present it is *blocked* — in the paper the
SaaS admission controller rejects it before it ever reaches the
provisioner.

Closed forms (ρ = λ/μ):

* P(n) = ρⁿ·(1 − ρ)/(1 − ρ^{K+1})     for ρ ≠ 1, n = 0..K
* P(n) = 1/(K + 1)                      for ρ = 1
* blocking = P(K)                       (PASTA)
* L = ρ/(1 − ρ) − (K + 1)·ρ^{K+1}/(1 − ρ^{K+1})   for ρ ≠ 1
* L = K/2                               for ρ = 1
* W = L / (λ·(1 − P(K)))                (Little's law on accepted traffic)

The ρ = 1 singularity is handled by a Taylor-safe branch: for
|ρ − 1| < 1e-9 the uniform-distribution limit is used, which keeps the
modeler's bisection numerically smooth.
"""

from __future__ import annotations

import math

from ..errors import QueueingModelError
from .base import QueueModel, validate_capacity

__all__ = ["MM1KQueue", "mm1k_blocking", "mm1k_mean_number"]

_RHO_EPS = 1e-9


def mm1k_blocking(rho: float, capacity: int) -> float:
    """Blocking probability of an M/M/1/K queue with offered load ``rho``.

    Stateless helper used by the performance modeler's QoS-tolerance
    calibration (see :class:`repro.core.modeler.PerformanceModeler`).

    >>> round(mm1k_blocking(0.5, 2), 6)
    0.142857
    """
    capacity = validate_capacity(capacity)
    if rho < 0.0 or not math.isfinite(rho):
        raise QueueingModelError(f"offered load must be finite and >= 0, got {rho!r}")
    if rho == 0.0:
        return 0.0
    if abs(rho - 1.0) < _RHO_EPS:
        return 1.0 / (capacity + 1)
    # P(K) = rho^K (1-rho) / (1 - rho^{K+1}); compute in a form stable for
    # both rho < 1 and rho > 1.
    num = rho**capacity * (1.0 - rho)
    den = 1.0 - rho ** (capacity + 1)
    return min(1.0, max(0.0, num / den))


def mm1k_mean_number(rho: float, capacity: int) -> float:
    """Mean number in system L for an M/M/1/K queue with load ``rho``."""
    capacity = validate_capacity(capacity)
    if rho < 0.0 or not math.isfinite(rho):
        raise QueueingModelError(f"offered load must be finite and >= 0, got {rho!r}")
    if rho == 0.0:
        return 0.0
    if abs(rho - 1.0) < _RHO_EPS:
        return capacity / 2.0
    term = rho / (1.0 - rho)
    corr = (capacity + 1) * rho ** (capacity + 1) / (1.0 - rho ** (capacity + 1))
    return term - corr


class MM1KQueue(QueueModel):
    """Steady-state M/M/1/K queue (capacity includes the one in service).

    Parameters
    ----------
    lam, mu:
        Arrival and service rates (requests/s).
    capacity:
        System capacity K ≥ 1.

    Examples
    --------
    >>> q = MM1KQueue(lam=8.0, mu=10.0, capacity=2)
    >>> round(q.blocking_probability, 4)
    0.2623
    >>> q.state_probability(0) + q.state_probability(1) + q.state_probability(2)
    1.0
    """

    kind = "M/M/1/K"

    def __init__(self, lam: float, mu: float, capacity: int) -> None:
        super().__init__(lam, mu)
        self.capacity = validate_capacity(capacity)

    @property
    def blocking_probability(self) -> float:
        return mm1k_blocking(self.rho, self.capacity)

    @property
    def mean_number_in_system(self) -> float:
        return mm1k_mean_number(self.rho, self.capacity)

    def state_probability(self, n: int) -> float:
        if n < 0 or int(n) != n:
            raise QueueingModelError(f"state index must be a non-negative int, got {n!r}")
        n = int(n)
        if n > self.capacity:
            return 0.0
        rho = self.rho
        if rho == 0.0:
            return 1.0 if n == 0 else 0.0
        if abs(rho - 1.0) < _RHO_EPS:
            return 1.0 / (self.capacity + 1)
        return rho**n * (1.0 - rho) / (1.0 - rho ** (self.capacity + 1))

    @property
    def utilization(self) -> float:
        """Probability the server is busy, 1 − P(0) = carried load."""
        return 1.0 - self.state_probability(0)
