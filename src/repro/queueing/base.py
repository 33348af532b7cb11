"""Common scaffolding for analytical queueing models.

Every model in :mod:`repro.queueing` exposes the same small surface:

* construction from an arrival rate ``lam`` (requests/s) and either a
  service rate ``mu`` (requests/s) or a mean service time;
* steady-state quantities as properties — utilization, blocking
  probability, mean number in system ``L`` and mean response time
  ``W``;
* a ``state_probability(n)`` method for the stationary distribution,
  where the model has one.

The load predictor & performance modeler (paper §IV-B) consumes exactly
this interface, which is what lets the queue-model ablation swap the
M/D/1/K approximation for the M/M/1/K queue when probing the
sensitivity of Algorithm 1 to the queueing abstraction.

Numerical conventions
---------------------
* Rates must be non-negative; service rates strictly positive.
* ``rho`` is the *offered* load ``lam / mu`` (per server where
  applicable), which may exceed 1 for loss systems.
* Little's law gives the mean response time, so each model only
  implements its primitive formulas; the test-suite checks the
  identity independently against simulation.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from ..errors import QueueingModelError

__all__ = ["QueueModel"]


def validate_rates(lam: float, mu: float) -> None:
    """Raise :class:`QueueingModelError` unless ``lam >= 0 < mu``.

    Also rejects NaNs and infinities, which silently poison the
    closed-form expressions otherwise.
    """
    if not (lam >= 0.0 and math.isfinite(lam)):
        raise QueueingModelError(f"arrival rate must be finite and >= 0, got {lam!r}")
    if not (mu > 0.0 and math.isfinite(mu)):
        raise QueueingModelError(f"service rate must be finite and > 0, got {mu!r}")


def validate_capacity(capacity: int) -> int:
    """Validate a finite system capacity ``K >= 1`` and return it as int."""
    if isinstance(capacity, bool) or int(capacity) != capacity:
        raise QueueingModelError(f"capacity must be an integer, got {capacity!r}")
    capacity = int(capacity)
    if capacity < 1:
        raise QueueingModelError(f"capacity must be >= 1, got {capacity}")
    return capacity


class QueueModel(ABC):
    """Abstract steady-state queueing model.

    Subclasses implement blocking and the mean number in system; the
    derived quantities are provided here.

    Parameters
    ----------
    lam:
        Mean arrival rate λ (requests per second) offered to the queue.
    mu:
        Mean service rate μ (requests per second) of one server.
    """

    #: Short name used in reports, e.g. ``"M/M/1/K"``.
    kind: str = "queue"

    def __init__(self, lam: float, mu: float) -> None:
        validate_rates(lam, mu)
        self.lam = float(lam)
        self.mu = float(mu)

    # -- primitives -----------------------------------------------------
    @property
    def rho(self) -> float:
        """Offered load per server, λ/μ (may exceed 1 for loss systems)."""
        return self.lam / self.mu

    @property
    @abstractmethod
    def blocking_probability(self) -> float:
        """Probability an arriving request is rejected."""

    @property
    @abstractmethod
    def mean_number_in_system(self) -> float:
        """Steady-state mean number of requests in the system, L."""

    def state_probability(self, n: int) -> float:
        """Stationary probability of exactly ``n`` requests in system."""
        raise QueueingModelError(f"{self.kind} does not expose a stationary distribution")

    # -- derived (Little's law) -----------------------------------------
    @property
    def effective_arrival_rate(self) -> float:
        """Rate of *accepted* requests, λ·(1 − P_block)."""
        return self.lam * (1.0 - self.blocking_probability)

    @property
    def mean_response_time(self) -> float:
        """Mean time an *accepted* request spends in the system, W = L/λ_eff.

        Returns ``0`` when no traffic is accepted.
        """
        lam_eff = self.effective_arrival_rate
        if lam_eff <= 0.0:
            return 0.0
        return self.mean_number_in_system / lam_eff

    @property
    def utilization(self) -> float:
        """Fraction of time a server is busy (carried load per server)."""
        # Single-server definition; M/M/c/K overrides it.
        return min(1.0, self.effective_arrival_rate / self.mu)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{self.kind} lam={self.lam:.6g} mu={self.mu:.6g} rho={self.rho:.4f}>"
