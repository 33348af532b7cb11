"""M/D/1/K — the deterministic-service companion of M/M/1/K.

The simulated workloads give each request a service time of
``base·U(1.00, 1.10)`` — almost deterministic.  The paper still models
instances as M/M/1/k, which *over*-estimates blocking and delay; this
deterministic-service model is meant to bracket it from the optimistic side.
The ablation benchmark ``bench_ablation_queue_model`` swaps it into
Algorithm 1 to show how the provisioned fleet size reacts to the
modeling assumption.

M/D/1/K has no simple closed form; we use the standard approximation
that transforms the M/M/1/K blocking through the peakedness factor
(Smith, 2003 style two-moment interpolation): blocking is roughly
halved relative to M/M/1/K at moderate load, and so is the M/M/1/K
waiting line (its backlog above its own carried load ``ρ(1 − B)``).
The mean response time then rises with load and stays at or below
M/M/1/K's (``tests/test_queueing_misc.py`` checks both for k ∈ {2, 3}
over ρ ∈ [0.1, 1.2]).
``tests/test_integration_des_vs_theory.py::
test_single_instance_deterministic_service_bracketed`` checks, at three
points (ρ, k) = (0.5, 2), (0.7, 2) and (0.85, 3), that a one-instance
DES with Poisson arrivals and constant service lies strictly between it
and M/M/1/K, in blocking and in mean response time (μ = 1, k = 2:
1.154 < 1.213 < 1.333 at ρ = 0.5, 1.180 < 1.281 < 1.412 at ρ = 0.7).
"""

from __future__ import annotations

from ..errors import QueueingModelError
from .base import QueueModel, validate_capacity
from .mm1k import mm1k_blocking, mm1k_mean_number

__all__ = ["MD1KQueue"]


class MD1KQueue(QueueModel):
    """Two-moment approximation of M/D/1/K.

    Interpolates blocking between M/M/1/K (coefficient of variation
    cv² = 1) and a light-traffic deterministic limit using the standard
    cv²-scaling heuristic ``P_D ≈ P_M · 2·cv²/(1 + cv²)`` with cv² = 0
    replaced by the configured squared coefficient of variation of the
    service law (default 0.000826 ≈ Var/mean² of U(1.00, 1.10)·base).
    """

    kind = "M/D/1/K~"

    def __init__(self, lam: float, mu: float, capacity: int, scv: float = 0.000826) -> None:
        super().__init__(lam, mu)
        self.capacity = validate_capacity(capacity)
        if not (0.0 <= scv <= 1.0):
            raise QueueingModelError(f"squared CV must be in [0, 1], got {scv!r}")
        self.scv = float(scv)

    @property
    def blocking_probability(self) -> float:
        base = mm1k_blocking(self.rho, self.capacity)
        if self.rho >= 1.0:
            # Overload blocking is capacity-driven, variability-insensitive:
            # the queue rejects the excess flow regardless of service law.
            return max(base, 1.0 - 1.0 / self.rho)
        factor = (1.0 + self.scv) / 2.0
        return base * factor

    @property
    def mean_number_in_system(self) -> float:
        # Scale the M/M/1/K waiting line (its backlog above its carried
        # load) by the same variability factor as the blocking.
        mm = mm1k_mean_number(self.rho, self.capacity)
        carried = min(1.0, self.rho * (1.0 - self.blocking_probability))
        mm_carried = self.rho * (1.0 - mm1k_blocking(self.rho, self.capacity))
        waiting = max(0.0, mm - mm_carried) * (1.0 + self.scv) / 2.0
        return carried + waiting
