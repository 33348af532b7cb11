"""Tests of workload characterization (the paper's contribution 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.sim.calendar import SECONDS_PER_DAY
from repro.workloads import (
    PoissonWorkload,
    ScientificWorkload,
    WebWorkload,
    characterize,
)


@pytest.fixture(scope="module")
def web_profile():
    return characterize(
        WebWorkload().scaled(100.0),
        np.random.default_rng(0),
        horizon=SECONDS_PER_DAY,
        bin_width=60.0,
    )


@pytest.fixture(scope="module")
def sci_profile():
    return characterize(
        ScientificWorkload(),
        np.random.default_rng(0),
        horizon=SECONDS_PER_DAY,
        bin_width=300.0,
    )


def test_poisson_profile_is_calibration_anchor():
    profile = characterize(
        PoissonWorkload(rate=5.0, window=300.0),
        np.random.default_rng(1),
        horizon=50_000.0,
        bin_width=50.0,
    )
    assert profile.mean_rate == pytest.approx(5.0, rel=0.03)
    assert profile.index_of_dispersion == pytest.approx(1.0, abs=0.15)
    assert abs(profile.autocorrelation_lag1) < 0.1
    assert profile.peak_to_mean < 1.6
    assert not profile.is_bursty()


def test_web_profile_smooth_diurnal(web_profile):
    # Monday: 500 → 1000 req/s (scaled by 100).
    assert web_profile.mean_rate == pytest.approx(8.18, rel=0.1)
    assert 1.1 < web_profile.peak_to_mean < 1.5
    # Strong trend: the rate moves slowly relative to 60-s bins.
    assert web_profile.autocorrelation_lag1 > 0.5
    # Trendy but NOT bursty: the raw dispersion is inflated by the
    # diurnal swing; the de-trended one is modest and nothing arrives
    # in batches.
    assert web_profile.index_of_dispersion > 3.0
    assert web_profile.batch_fraction < 0.01
    assert not web_profile.is_bursty()
    # Peak window centred on noon.
    assert web_profile.peak_hours is not None
    start, end = web_profile.peak_hours
    assert start < 12.0 < end


def test_scientific_profile_bursty_with_business_hours(sci_profile):
    assert sci_profile.is_bursty()
    # BoT jobs submit multi-task batches: a large share of requests
    # arrive simultaneously with siblings.
    assert sci_profile.batch_fraction > 0.3
    # Detected peak window ≈ the model's 8 a.m.–5 p.m.
    assert sci_profile.peak_hours is not None
    start, end = sci_profile.peak_hours
    assert 6.5 <= start <= 9.5
    assert 15.5 <= end <= 18.5
    assert 7000 < sci_profile.total_requests < 9600


def test_safety_factor_ranks_workloads(web_profile, sci_profile):
    # The bursty BoT stream needs more predictor headroom than the
    # smooth web curve — the feedback the paper's analysis provides.
    assert sci_profile.recommended_safety_factor() > web_profile.recommended_safety_factor()
    assert web_profile.recommended_safety_factor() < 1.4


def test_recommended_fleet_band_matches_algorithm1(sci_profile):
    lo, hi = sci_profile.recommended_fleet(service_time=315.0)
    # Adaptive sweeps ~14 → ~82 on this workload; the profile's band
    # must bracket a comparable range.
    assert lo < 40
    assert 55 <= hi <= 110


def test_validation():
    w = PoissonWorkload(rate=1.0)
    rng = np.random.default_rng(0)
    with pytest.raises(WorkloadError):
        characterize(w, rng, horizon=0.0, bin_width=1.0)
    profile = characterize(w, rng, horizon=600.0, bin_width=60.0)
    with pytest.raises(WorkloadError):
        profile.recommended_fleet(service_time=0.0)
    with pytest.raises(WorkloadError):
        profile.recommended_fleet(service_time=1.0, utilization_band=(0.9, 0.5))
