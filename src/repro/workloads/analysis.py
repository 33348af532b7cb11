"""Workload characterization — the paper's second contribution.

"An analysis of two well-known application-specific workloads aimed at
demonstrating the usefulness of workload modeling in providing feedback
for Cloud provisioning."  This module turns an arrival stream (a model
or a trace) into exactly that feedback:

* :func:`characterize` — rate statistics (mean/percentiles/peak), the
  peak-to-mean ratio, burstiness (index of dispersion for counts),
  lag-k autocorrelation of interval counts, and the detected peak
  hours;
* :meth:`WorkloadProfile.recommended_safety_factor` — the multiplier a
  rate predictor should apply so that short-term fluctuations above
  its estimate do not violate QoS (the paper hand-picks ×1.2 and ×2.6
  for the scientific workload; the profile derives comparable numbers
  from the stream itself);
* :meth:`WorkloadProfile.recommended_fleet` — the Algorithm-1-style
  fleet-size band implied by the profile for a given service time.

Everything is numpy-vectorized: one realized horizon is binned once and
all statistics fall out of the count vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import WorkloadError
from .base import Workload

__all__ = ["WorkloadProfile", "characterize"]


@dataclass(frozen=True)
class WorkloadProfile:
    """Statistical fingerprint of an arrival stream.

    Attributes
    ----------
    bin_width:
        Width (seconds) of the analysis bins.
    mean_rate, max_rate:
        Mean and maximum binned arrival rate (requests/s).
    rate_p50, rate_p95, rate_p99:
        Rate percentiles across bins.
    peak_to_mean:
        ``max_rate / mean_rate`` (1.0 for constant traffic).
    index_of_dispersion:
        Var/mean of bin *counts* — 1 for Poisson, > 1 for bursty
        (batch/BoT) traffic, < 1 for smoother-than-Poisson streams.
        Note this conflates slow rate trends with burstiness; use
        ``index_of_dispersion_detrended`` to separate them.
    index_of_dispersion_detrended:
        Var/mean of the bin counts' *residuals* after subtracting a
        one-hour rolling mean — count-level variability with diurnal
        trends removed (≈ 1 for Poisson).
    batch_fraction:
        Fraction of requests that arrived simultaneously with at least
        one other request — the signature of Bag-of-Tasks submission
        (multi-task jobs arrive as a batch).  ≈ 0 for continuous-time
        web/Poisson traffic, large for the BoT model.
    autocorrelation_lag1:
        Lag-1 autocorrelation of bin counts — high values mean the rate
        moves on timescales longer than a bin (predictable trends).
    peak_hours:
        ``(start_hour, end_hour)`` of the detected high-rate window, or
        ``None`` when no sustained peak exists.
    total_requests:
        Requests in the analyzed horizon.
    """

    bin_width: float
    mean_rate: float
    max_rate: float
    rate_p50: float
    rate_p95: float
    rate_p99: float
    peak_to_mean: float
    index_of_dispersion: float
    index_of_dispersion_detrended: float
    batch_fraction: float
    autocorrelation_lag1: float
    peak_hours: Optional[Tuple[float, float]]
    total_requests: int

    # ------------------------------------------------------------------
    def recommended_safety_factor(self) -> float:
        """Predictor inflation covering short-term fluctuation.

        The ratio of the 99th-percentile bin rate to the median bin
        rate within the *upper half* of the rate distribution — i.e.
        how far above its typical busy level the stream spikes.  For
        the smooth web model this lands near 1.05; for the bursty BoT
        model near the paper's hand-picked 1.2–1.3 peak factor.
        """
        if self.rate_p50 <= 0.0:
            return 1.0
        busy_typ = max(self.rate_p50, self.mean_rate)
        return max(1.0, self.rate_p99 / busy_typ) if busy_typ > 0 else 1.0

    def recommended_fleet(
        self, service_time: float, utilization_band: Tuple[float, float] = (0.80, 0.85)
    ) -> Tuple[int, int]:
        """Fleet-size band ``(min_m, max_m)`` implied by the profile.

        ``min_m`` covers the *median* rate at the band's upper load
        edge; ``max_m`` covers the 99th-percentile rate at the lower
        edge — the range an autoscaler built on this profile would
        sweep.
        """
        if service_time <= 0.0 or not math.isfinite(service_time):
            raise WorkloadError(f"service time must be finite and > 0, got {service_time!r}")
        lo_util, hi_util = utilization_band
        if not 0.0 < lo_util <= hi_util < 1.0:
            raise WorkloadError(f"bad utilization band {utilization_band!r}")
        min_m = max(1, math.ceil(self.rate_p50 * service_time / hi_util))
        max_m = max(min_m, math.ceil(self.rate_p99 * service_time / lo_util))
        return min_m, max_m

    def is_bursty(self, iod_threshold: float = 2.0, batch_threshold: float = 0.10) -> bool:
        """Whether the stream is bursty at provisioning-relevant scales.

        True when de-trended counts over-disperse past
        ``iod_threshold`` × Poisson *or* a meaningful fraction of
        requests arrive in simultaneous batches — either mechanism
        produces the short-term overload spikes that a provisioner's
        safety factor must absorb.  Slow diurnal swings count as trend,
        not burstiness.
        """
        return (
            self.index_of_dispersion_detrended > iod_threshold
            or self.batch_fraction > batch_threshold
        )


def characterize(
    workload: Workload,
    rng: np.random.Generator,
    horizon: float,
    bin_width: float = 60.0,
) -> WorkloadProfile:
    """Build a :class:`WorkloadProfile` from one realized horizon."""
    if horizon <= 0.0 or bin_width <= 0.0:
        raise WorkloadError(f"bad horizon/bin ({horizon!r}, {bin_width!r})")
    edges = np.arange(0.0, horizon + bin_width, bin_width)
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    batched = 0
    total_arrivals = 0
    t = 0.0
    while t < horizon:
        arrivals = workload.sample_window(rng, t)
        if arrivals.size:
            idx, _ = np.histogram(arrivals, bins=edges)
            counts += idx
            _, per_ts = np.unique(arrivals, return_counts=True)
            batched += int(per_ts[per_ts > 1].sum())
            total_arrivals += int(arrivals.size)
        t += workload.window
    batch_fraction = batched / total_arrivals if total_arrivals else 0.0
    rates = counts / bin_width
    mean_rate = float(rates.mean())
    mean_count = float(counts.mean())
    iod = float(counts.var() / mean_count) if mean_count > 0 else 0.0
    # De-trended dispersion: residuals around a one-hour rolling mean.
    trend_window = max(1, int(round(3600.0 / bin_width)))
    if counts.size >= 2 * trend_window and mean_count > 0:
        kernel = np.ones(trend_window) / trend_window
        # 'valid' avoids the zero-padded edges of 'same', which would
        # fabricate huge residuals in the first/last hour.
        trend = np.convolve(counts.astype(np.float64), kernel, mode="valid")
        start = trend_window // 2
        residual = counts[start : start + trend.size] - trend
        iod_detrended = float(residual.var() / mean_count)
    else:
        iod_detrended = iod
    # Lag-1 autocorrelation of counts.
    if counts.size > 1 and counts.std() > 0:
        x = counts - counts.mean()
        ac1 = float((x[:-1] @ x[1:]) / (x @ x))
    else:
        ac1 = 0.0
    peak_hours = _detect_peak_hours(rates, bin_width)
    return WorkloadProfile(
        bin_width=float(bin_width),
        mean_rate=mean_rate,
        max_rate=float(rates.max()) if rates.size else 0.0,
        rate_p50=float(np.percentile(rates, 50)),
        rate_p95=float(np.percentile(rates, 95)),
        rate_p99=float(np.percentile(rates, 99)),
        peak_to_mean=float(rates.max() / mean_rate) if mean_rate > 0 else 1.0,
        index_of_dispersion=iod,
        index_of_dispersion_detrended=iod_detrended,
        batch_fraction=batch_fraction,
        autocorrelation_lag1=ac1,
        peak_hours=peak_hours,
        total_requests=int(counts.sum()),
    )


def _detect_peak_hours(
    rates: np.ndarray, bin_width: float
) -> Optional[Tuple[float, float]]:
    """Longest contiguous run of above-daily-mean rates.

    Rates are folded onto a 24-hour profile first, so multi-day
    horizons detect the *recurring* peak window.  A contrast guard
    (max < 1.15 × median) filters constant-rate traffic whose noise
    would otherwise produce spurious "peaks".
    """
    bins_per_day = int(round(86_400.0 / bin_width))
    if bins_per_day <= 0 or rates.size < bins_per_day // 24:
        return None
    usable = rates[: (rates.size // bins_per_day) * bins_per_day]
    if usable.size == 0:
        daily = rates.astype(np.float64)
        if daily.size < bins_per_day:
            daily = np.pad(daily, (0, bins_per_day - daily.size))
    else:
        daily = usable.reshape(-1, bins_per_day).mean(axis=0)
    median = float(np.median(daily))
    if daily.max() < 1.15 * max(median, 1e-12):
        return None  # flat traffic: no meaningful peak window
    threshold = float(daily.mean())
    mask = daily > threshold
    if not mask.any():
        return None
    # Longest run of True (no wraparound — the paper's peaks are
    # intraday).
    best_len, best_start = 0, 0
    run_len, run_start = 0, 0
    for i, hot in enumerate(mask):
        if hot:
            if run_len == 0:
                run_start = i
            run_len += 1
            if run_len > best_len:
                best_len, best_start = run_len, run_start
        else:
            run_len = 0
    if best_len == 0:
        return None
    hours_per_bin = bin_width / 3600.0
    return (best_start * hours_per_bin, (best_start + best_len) * hours_per_bin)
