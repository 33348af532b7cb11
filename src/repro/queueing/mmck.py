"""The M/M/c/K queue — c servers, finite system capacity K ≥ c.

This is the pooled-fleet analogue of the paper's per-instance M/M/1/k
model: m instances each with capacity k correspond (under perfect load
balancing) to an M/M/m/(m·k) station.  Only the tests use it: they
bracket the DES's blocking between the split M/M/1/k stations and this
pooled station, which bounds what the paper's independent-queues
assumption costs.  The fluid engine does not use it.

The stationary distribution is computed from the birth–death balance
equations with weights normalized by their maximum to avoid overflow
for large fleets (the web scenario reaches c = 150, K = 300).
"""

from __future__ import annotations

import numpy as np

from ..errors import QueueingModelError
from .base import QueueModel, validate_capacity

__all__ = ["MMCKQueue"]


class MMCKQueue(QueueModel):
    """Steady-state M/M/c/K queue (K counts requests in service too).

    Parameters
    ----------
    lam, mu:
        Pooled arrival rate and per-server service rate.
    servers:
        Number of servers c ≥ 1.
    capacity:
        System capacity K ≥ c.

    Examples
    --------
    >>> pooled = MMCKQueue(lam=8.0, mu=10.0, servers=1, capacity=2)
    >>> from repro.queueing.mm1k import MM1KQueue
    >>> single = MM1KQueue(lam=8.0, mu=10.0, capacity=2)
    >>> abs(pooled.blocking_probability - single.blocking_probability) < 1e-12
    True
    """

    kind = "M/M/c/K"

    def __init__(self, lam: float, mu: float, servers: int, capacity: int) -> None:
        super().__init__(lam, mu)
        if isinstance(servers, bool) or int(servers) != servers or int(servers) < 1:
            raise QueueingModelError(f"server count must be an integer >= 1, got {servers!r}")
        self.servers = int(servers)
        self.capacity = validate_capacity(capacity)
        if self.capacity < self.servers:
            raise QueueingModelError(
                f"capacity K={self.capacity} must be >= server count c={self.servers}"
            )
        self._probs = self._stationary()

    def _stationary(self) -> np.ndarray:
        """Solve the birth–death chain in log space for stability."""
        c, K = self.servers, self.capacity
        a = self.lam / self.mu
        # log-weights: w_0 = 0; w_n = w_{n-1} + log(a / min(n, c))
        n = np.arange(1, K + 1, dtype=np.float64)
        if self.lam == 0.0:
            probs = np.zeros(K + 1)
            probs[0] = 1.0
            return probs
        steps = np.log(a) - np.log(np.minimum(n, c))
        logw = np.concatenate(([0.0], np.cumsum(steps)))
        logw -= logw.max()
        w = np.exp(logw)
        return w / w.sum()

    @property
    def rho(self) -> float:
        """Per-server offered load, λ/(c·μ)."""
        return self.lam / (self.servers * self.mu)

    @property
    def blocking_probability(self) -> float:
        return float(self._probs[self.capacity])

    @property
    def mean_number_in_system(self) -> float:
        return float(np.arange(self.capacity + 1) @ self._probs)

    def state_probability(self, n: int) -> float:
        if n < 0 or int(n) != n:
            raise QueueingModelError(f"state index must be a non-negative int, got {n!r}")
        n = int(n)
        if n > self.capacity:
            return 0.0
        return float(self._probs[n])

    @property
    def mean_busy_servers(self) -> float:
        """Expected number of busy servers, Σ min(n, c)·P(n)."""
        n = np.arange(self.capacity + 1)
        return float(np.minimum(n, self.servers) @ self._probs)

    @property
    def utilization(self) -> float:
        """Carried load per server, E[busy]/c."""
        return self.mean_busy_servers / self.servers
