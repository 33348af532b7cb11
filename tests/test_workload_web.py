"""Unit tests of the web (Wikipedia-model) workload."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.sim.calendar import SECONDS_PER_DAY, SECONDS_PER_WEEK
from repro.workloads import TABLE_II, WebWorkload


def test_table_ii_values():
    # Spot-check the constants against the paper's Table II.
    assert TABLE_II[6] == (900.0, 400.0)  # Sunday
    assert TABLE_II[0] == (1000.0, 500.0)  # Monday
    assert TABLE_II[1] == (1200.0, 500.0)  # Tuesday


def test_eq2_trough_and_peak():
    w = WebWorkload()
    # Monday: midnight trough at R_min, noon peak at R_max.
    assert float(w.mean_rate(0.0)) == 500.0
    assert float(w.mean_rate(43_200.0)) == 1000.0
    # Tuesday noon: 1200.
    assert float(w.mean_rate(SECONDS_PER_DAY + 43_200.0)) == 1200.0
    # Sunday midnight: 400.
    assert float(w.mean_rate(6 * SECONDS_PER_DAY)) == 400.0


def test_eq2_midmorning_value():
    w = WebWorkload()
    # Monday 6 a.m.: 500 + 500*sin(pi/4).
    t = 6 * 3600.0
    assert float(w.mean_rate(t)) == pytest.approx(500.0 + 500.0 * np.sin(np.pi / 4))


def test_rate_curve_is_vectorized():
    w = WebWorkload()
    grid = np.array([0.0, 21_600.0, 43_200.0])
    rates = w.mean_rate(grid)
    assert rates.shape == (3,)
    assert rates[2] == pytest.approx(1000.0)


def test_weekly_request_volume_matches_paper():
    # The paper reports ≈ 500.12 million requests per simulated week;
    # the Eq.-2 integral gives ≈ 530 M (the realized count is lower
    # because of admission and rounding).  Assert the right ballpark.
    w = WebWorkload()
    total = w.expected_requests(0.0, SECONDS_PER_WEEK)
    assert 4.8e8 < total < 5.6e8


def test_window_count_tracks_rate():
    w = WebWorkload(noise_std=0.0)
    rng = np.random.default_rng(1)
    arrivals = w.sample_window(rng, 43_200.0)  # Monday noon, rate 1000/s
    assert arrivals.size == 60_000
    assert np.all((arrivals >= 43_200.0) & (arrivals < 43_260.0))
    assert np.all(np.diff(arrivals) >= 0.0)


@pytest.mark.parametrize("spread", ["uniform", "even"])
def test_window_count_draws_like_sample_window(spread):
    """Counting a window leaves the stream where realizing it would, so
    counts and full windows interleave freely on one stream."""
    w = WebWorkload(spread=spread)
    full, counted = np.random.default_rng(6), np.random.default_rng(6)
    for t0 in (0.0, 43_200.0, 50_000.0):
        assert w.window_count(counted, t0) == w.sample_window(full, t0).size > 0
        assert counted.bit_generator.state == full.bit_generator.state
    np.testing.assert_array_equal(w.sample_window(counted, 0.0), w.sample_window(full, 0.0))


def test_window_noise_five_percent():
    w = WebWorkload(noise_std=0.05)
    rng = np.random.default_rng(2)
    counts = [w.sample_window(rng, 43_200.0).size for _ in range(64)]
    mean = np.mean(counts)
    std = np.std(counts)
    assert mean == pytest.approx(60_000, rel=0.02)
    assert std == pytest.approx(3000, rel=0.35)  # 5% of 60k


def test_even_spread_is_deterministic():
    w = WebWorkload(noise_std=0.0, spread="even")
    rng = np.random.default_rng(3)
    a = w.sample_window(rng, 0.0)
    gaps = np.diff(a)
    assert np.allclose(gaps, gaps[0])


def test_thinned_window_scales_count():
    w = WebWorkload(noise_std=0.0)
    rng = np.random.default_rng(4)
    full = w.sample_window(rng, 43_200.0).size
    thin = w.sample_window_thinned(rng, 43_200.0, 0.01).size
    assert thin == pytest.approx(full * 0.01, rel=0.05)


def test_zero_rate_table_yields_no_arrivals():
    table = {d: (0.0, 0.0) for d in range(7)}
    w = WebWorkload(rate_table=table)
    rng = np.random.default_rng(5)
    assert w.sample_window(rng, 0.0).size == 0


def test_invalid_configurations_rejected():
    with pytest.raises(WorkloadError):
        WebWorkload(rate_table={0: (1.0, 0.5)})  # missing days
    with pytest.raises(WorkloadError):
        WebWorkload(rate_table={d: (100.0, 200.0) for d in range(7)})  # min > max
    with pytest.raises(WorkloadError):
        WebWorkload(noise_std=-0.1)
    with pytest.raises(WorkloadError):
        WebWorkload(spread="bogus")


def test_service_sampler_jitter_band():
    w = WebWorkload()
    rng = np.random.default_rng(6)
    sampler = w.service_sampler(rng)
    draws = np.array([sampler.draw() for _ in range(5000)])
    assert np.all(draws >= 0.100 - 1e-12)
    assert np.all(draws <= 0.110 + 1e-12)
    assert draws.mean() == pytest.approx(0.105, rel=0.01)
    assert sampler.mean == pytest.approx(0.105)


class _ArrayPathWeb(WebWorkload):
    """The web workload with every rate taken through the array path."""

    def mean_rate(self, t):
        return super().mean_rate(np.array(t))


@pytest.mark.parametrize("scale", [100.0, 2000.0])
def test_scalar_mean_rate_is_the_array_path(scale):
    """A float ``t`` takes a plain-float path; it gives the array path's
    rate (a 0-d array) bit for bit at every window start of a week, so
    a week of sampled windows is unchanged for seeds 0-2."""
    w, ref = WebWorkload(), _ArrayPathWeb()
    starts = [60.0 * i for i in range(7 * 1440)]
    assert [w.mean_rate(t) for t in starts] == [ref.mean_rate(t) for t in starts]
    for seed in (0, 1, 2):
        fast, slow = w.scaled(scale), ref.scaled(scale)
        rng_fast, rng_slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for t in starts:
            assert np.array_equal(
                fast.sample_window(rng_fast, t), slow.sample_window(rng_slow, t)
            ), (seed, t)
