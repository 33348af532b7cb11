"""Distribution helpers used by the workload models.

The workload generators draw from numpy's ``Generator`` directly; this
module holds the *analytical* Weibull mean and mode the paper quotes (it
parameterizes its predictors by Weibull modes) and the homogeneous
Poisson process the validation workloads sample.

Weibull convention: ``shape`` k and ``scale`` λ, density
``f(x) = (k/λ)·(x/λ)^{k−1}·exp(−(x/λ)^k)``, matching both the paper's
``(4.25, 7.86)``-style parameter pairs and numpy's
``rng.weibull(shape) * scale`` sampling recipe.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import WorkloadError

__all__ = [
    "weibull_mean",
    "weibull_mode",
    "poisson_process",
]


def _check_weibull(shape: float, scale: float) -> None:
    if shape <= 0.0 or scale <= 0.0:
        raise WorkloadError(
            f"Weibull parameters must be > 0, got shape={shape!r} scale={scale!r}"
        )


def weibull_mean(shape: float, scale: float) -> float:
    """Mean λ·Γ(1 + 1/k) of a Weibull(k, λ).

    >>> round(weibull_mean(4.25, 7.86), 3)   # peak BoT interarrival
    7.155
    """
    _check_weibull(shape, scale)
    return scale * math.gamma(1.0 + 1.0 / shape)


def weibull_mode(shape: float, scale: float) -> float:
    """Mode λ·((k−1)/k)^{1/k} for k > 1, else 0.

    The paper's workload analyzer is parameterized by modes — e.g.
    7.379 s for the peak interarrival time:

    >>> round(weibull_mode(4.25, 7.86), 3)
    7.379
    >>> round(weibull_mode(1.76, 2.11), 3)
    1.309
    >>> round(weibull_mode(1.79, 24.16), 3)
    15.298
    """
    _check_weibull(shape, scale)
    if shape <= 1.0:
        return 0.0
    return scale * ((shape - 1.0) / shape) ** (1.0 / shape)


def poisson_process(
    rng: np.random.Generator, rate: float, t0: float, t1: float
) -> np.ndarray:
    """Sorted event times of a homogeneous Poisson process on [t0, t1).

    Used by the synthetic workloads and by the M/M/1/K validation tests
    (which need genuinely Poissonian arrivals to compare against the
    analytical formulas).
    """
    if rate < 0.0 or not math.isfinite(rate):
        raise WorkloadError(f"rate must be finite and >= 0, got {rate!r}")
    if t1 < t0:
        raise WorkloadError(f"bad interval [{t0}, {t1})")
    n = rng.poisson(rate * (t1 - t0))
    times = t0 + rng.random(n) * (t1 - t0)
    times.sort()
    return times
