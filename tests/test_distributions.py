"""Unit tests of the distribution helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads import poisson_process, weibull_mean, weibull_mode


def test_weibull_mean_known_value():
    # Exponential case: shape 1 → mean = scale.
    assert weibull_mean(1.0, 4.2) == pytest.approx(4.2)
    # Paper's interarrival law.
    assert weibull_mean(4.25, 7.86) == pytest.approx(7.149, abs=2e-3)


def test_weibull_mode_paper_constants():
    assert weibull_mode(4.25, 7.86) == pytest.approx(7.379, abs=5e-4)
    assert weibull_mode(1.76, 2.11) == pytest.approx(1.309, abs=5e-4)
    assert weibull_mode(1.79, 24.16) == pytest.approx(15.298, abs=5e-4)


def test_weibull_mode_below_shape_one_is_zero():
    assert weibull_mode(0.9, 5.0) == 0.0


def test_weibull_moments_match_samples():
    rng = np.random.default_rng(0)
    shape, scale = 1.76, 2.11
    draws = rng.weibull(shape, size=200_000) * scale
    assert draws.mean() == pytest.approx(weibull_mean(shape, scale), rel=0.01)


def test_weibull_invalid_params():
    with pytest.raises(WorkloadError):
        weibull_mean(0.0, 1.0)
    with pytest.raises(WorkloadError):
        weibull_mode(1.0, -1.0)


def test_poisson_process_statistics():
    rng = np.random.default_rng(3)
    counts = [poisson_process(rng, 4.0, 0.0, 50.0).size for _ in range(300)]
    assert np.mean(counts) == pytest.approx(200.0, rel=0.03)
    assert np.var(counts) == pytest.approx(200.0, rel=0.25)


def test_poisson_process_sorted_within_bounds():
    rng = np.random.default_rng(4)
    times = poisson_process(rng, 10.0, 5.0, 15.0)
    assert np.all((times >= 5.0) & (times < 15.0))
    assert np.all(np.diff(times) >= 0.0)


def test_poisson_process_zero_rate():
    rng = np.random.default_rng(5)
    assert poisson_process(rng, 0.0, 0.0, 100.0).size == 0


def test_poisson_process_invalid():
    rng = np.random.default_rng(6)
    with pytest.raises(WorkloadError):
        poisson_process(rng, -1.0, 0.0, 1.0)
    with pytest.raises(WorkloadError):
        poisson_process(rng, 1.0, 5.0, 1.0)
