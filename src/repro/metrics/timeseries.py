"""Time-series helper for figure regeneration.

Figures 3 and 4 plot arrival-rate curves; :func:`bin_counts` turns
event times into a fixed-bin rate series with numpy.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = ["bin_counts"]


def bin_counts(times: Sequence[float], t0: float, t1: float, bin_width: float) -> Tuple[np.ndarray, np.ndarray]:
    """Histogram event times into fixed bins; returns (bin_starts, rates).

    Rates are events per second within each bin — the quantity plotted
    in Figures 3 and 4.
    """
    if t1 <= t0 or bin_width <= 0.0:
        raise ValueError(f"bad binning range [{t0}, {t1}) width {bin_width}")
    edges = np.arange(t0, t1 + bin_width, bin_width)
    counts, _ = np.histogram(np.asarray(times, dtype=np.float64), bins=edges)
    return edges[:-1], counts / bin_width
