"""The *web* workload — simplified Wikipedia traces (paper §V-B1).

The request rate follows Eq. 2 of the paper:

    r(t) = R_min + (R_max − R_min) · sin(π·t / 86400)

where ``t`` is seconds since the current midnight and ``R_min``/``R_max``
are the per-weekday bounds of Table II.  The curve troughs at midnight,
peaks at noon (12-hour offset), and the realized per-interval rate is
normally distributed around the curve with σ = 5 %.

Requests are received by the data center in 60-second intervals: for
each interval the generator draws the rate once, multiplies by the
interval length, and spreads that many arrivals across the interval
(uniformly at random by default, matching a memoryless within-interval
process; ``spread="even"`` reproduces a fully deterministic trace).

Paper parameters: ``T_r = 100 ms`` (+U(0,10 %) jitter), ``T_s = 250 ms``,
max rejection 0 %, minimum utilization 80 %, one-week horizon starting
Monday 12 a.m.
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

import numpy as np

from ..errors import WorkloadError
from ..sim.calendar import SECONDS_PER_DAY, day_of_week, seconds_of_day
from .base import Workload

__all__ = ["TABLE_II", "WebWorkload"]

#: Table II of the paper — (maximum, minimum) requests/s per weekday,
#: indexed 0=Monday … 6=Sunday (the simulation starts on Monday).
TABLE_II: Dict[int, Tuple[float, float]] = {
    0: (1000.0, 500.0),  # Monday
    1: (1200.0, 500.0),  # Tuesday
    2: (1200.0, 500.0),  # Wednesday
    3: (1200.0, 500.0),  # Thursday
    4: (1200.0, 500.0),  # Friday
    5: (1000.0, 500.0),  # Saturday
    6: (900.0, 400.0),   # Sunday
}

ArrayLike = Union[float, np.ndarray]


class WebWorkload(Workload):
    """Sinusoidal diurnal web traffic with weekday-dependent bounds.

    Parameters
    ----------
    rate_table:
        ``{day_index: (R_max, R_min)}``, defaults to the paper's
        Table II.
    noise_std:
        Relative standard deviation of the realized interval rate
        around Eq. 2 (paper: 0.05).
    interval:
        Length of one reception interval in seconds (paper: 60).
    base_service_time, service_jitter:
        Request service law (paper: 0.1 s, +U(0, 10 %)).
    spread:
        ``"uniform"`` (default) scatters arrivals uniformly at random
        inside each interval; ``"even"`` spaces them deterministically.

    Examples
    --------
    >>> w = WebWorkload()
    >>> float(w.mean_rate(0.0))            # Monday midnight trough
    500.0
    >>> float(w.mean_rate(43_200.0))       # Monday noon peak
    1000.0
    """

    name = "web"

    def __init__(
        self,
        rate_table: Dict[int, Tuple[float, float]] = None,
        noise_std: float = 0.05,
        interval: float = 60.0,
        base_service_time: float = 0.100,
        service_jitter: float = 0.10,
        spread: str = "uniform",
    ) -> None:
        table = dict(TABLE_II if rate_table is None else rate_table)
        if set(table) != set(range(7)):
            raise WorkloadError(
                f"rate table must map day indices 0..6, got {sorted(table)}"
            )
        for day, (rmax, rmin) in table.items():
            if not (0.0 <= rmin <= rmax):
                raise WorkloadError(
                    f"day {day}: need 0 <= R_min <= R_max, got ({rmax}, {rmin})"
                )
        if noise_std < 0.0:
            raise WorkloadError(f"noise std must be >= 0, got {noise_std}")
        if interval <= 0.0:
            raise WorkloadError(f"interval must be > 0, got {interval}")
        if spread not in ("uniform", "even"):
            raise WorkloadError(f"spread must be 'uniform' or 'even', got {spread!r}")
        self.rate_table = table
        self.noise_std = float(noise_std)
        self.window = float(interval)
        self.base_service_time = float(base_service_time)
        self.service_jitter = float(service_jitter)
        self.spread = spread
        # Lookup tables for mean_rate: arrays for the vectorized path,
        # (R_min, R_max) floats for the scalar one.
        self._rmax = np.array([table[d][0] for d in range(7)])
        self._rmin = np.array([table[d][1] for d in range(7)])
        self._bounds = [(float(table[d][1]), float(table[d][0])) for d in range(7)]

    # ------------------------------------------------------------------
    def mean_rate(self, t: ArrayLike) -> ArrayLike:
        """Eq. 2 evaluated at simulation time ``t`` (vectorized)."""
        if isinstance(t, (float, int)):
            # The scalar path (one call per arrival window): the array
            # path's float operations on plain floats, np.sin included.
            rmin, rmax = self._bounds[int(t // SECONDS_PER_DAY) % 7]
            sod = t % SECONDS_PER_DAY
            return rmin + (rmax - rmin) * float(np.sin(np.pi * sod / SECONDS_PER_DAY))
        t_arr = np.asarray(t, dtype=np.float64)
        day = day_of_week(t_arr)
        sod = seconds_of_day(t_arr)
        rmin = self._rmin[day]
        rmax = self._rmax[day]
        rate = rmin + (rmax - rmin) * np.sin(np.pi * sod / SECONDS_PER_DAY)
        if np.isscalar(t) or t_arr.ndim == 0:
            return float(rate)
        return rate

    def sample_window(self, rng: np.random.Generator, t0: float) -> np.ndarray:
        """Arrivals of the 60-s interval starting at ``t0``.

        The realized rate is ``N(r(t0), noise_std·r(t0))`` truncated at
        zero; the count is ``round(rate · interval)``.
        """
        return self.sample_window_thinned(rng, t0, 1.0)

    def sample_window_thinned(
        self, rng: np.random.Generator, t0: float, keep_prob: float
    ) -> np.ndarray:
        """Thinned window generated directly at the reduced rate.

        For a count-driven model, Bernoulli thinning is equivalent to
        binomially thinning the interval count — realized here as the
        count of a rate scaled by ``keep_prob`` — so the scaled stream
        is produced without materializing the full-rate one.
        """
        count = self._draw_count(rng, t0, keep_prob)
        if count <= 0:
            return np.empty(0)
        if self.spread == "even":
            # Deterministic spacing; offset by half a gap so arrivals never
            # coincide with interval boundaries.
            return t0 + (np.arange(count) + 0.5) * (self.window / count)
        times = t0 + rng.random(count) * self.window
        times.sort()
        return times

    def window_count(self, rng: np.random.Generator, t0: float) -> int:
        """Arrival count of the interval at ``t0``, without its arrivals.

        Draws exactly what :meth:`sample_window` draws, so ``rng`` is left
        in the same state and the two are interchangeable mid-stream: the
        count as it does, then, for ``spread="uniform"``, the generator is
        advanced past the ``count`` uniforms of the arrival times instead
        of drawing them.
        """
        count = self._draw_count(rng, t0, 1.0)
        if count > 0 and self.spread == "uniform":
            # One 64-bit step per float64 uniform (``Generator.random``).
            advance = getattr(rng.bit_generator, "advance", None)
            if advance is None:
                rng.random(count)
            else:
                advance(count)
        return max(count, 0)

    def _draw_count(self, rng: np.random.Generator, t0: float, keep_prob: float) -> int:
        """``round(rate · keep_prob · interval)`` with the rate drawn from
        ``N(r(t0), noise_std·r(t0))`` truncated at zero."""
        mean = float(self.mean_rate(t0))
        rate = mean
        if self.noise_std > 0.0 and mean > 0.0:
            rate = max(0.0, rng.normal(mean, self.noise_std * mean))
        return int(round(rate * keep_prob * self.window))
