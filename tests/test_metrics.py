"""Unit tests of metric collection, summary stats, and reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.monitor import Monitor
from repro.metrics import (
    MetricsCollector,
    Summary,
    bin_counts,
    format_markdown_table,
    format_table,
    summarize,
)
from repro.sim import Engine


# ----------------------------------------------------------------------
# collector
# ----------------------------------------------------------------------
def sink(collector):
    """The scalar data plane's completion sink over ``collector``."""
    return Monitor(Engine(), collector, default_service_time=1.0)


def test_welford_matches_numpy():
    rng = np.random.default_rng(0)
    samples = rng.exponential(2.0, size=5000)
    c = MetricsCollector()
    monitor = sink(c)
    for s in samples:
        monitor.record_response(float(s), 0.1)
    assert c.mean_response_time == pytest.approx(float(samples.mean()), rel=1e-9)
    assert c.response_time_std == pytest.approx(float(samples.std(ddof=1)), rel=1e-9)


def test_violation_counting():
    c = MetricsCollector(qos_response_time=1.0)
    monitor = sink(c)
    monitor.record_response(0.5, 0.5)
    monitor.record_response(1.5, 0.5)
    monitor.record_response(1.0, 0.5)  # exactly Ts is not a violation
    assert c.violations == 1


def test_rejection_rate():
    c = MetricsCollector()
    monitor = sink(c)
    for _ in range(3):
        c.record_acceptances(1)
        monitor.record_response(1.0, 1.0)
    c.record_rejections(1)
    assert c.total_requests == 4
    assert c.rejection_rate == pytest.approx(0.25)
    assert c.in_flight == 0


def test_empty_collector_safe_defaults():
    c = MetricsCollector()
    assert c.mean_response_time == 0.0
    assert c.response_time_std == 0.0
    assert c.rejection_rate == 0.0
    assert c.utilization == 0.0


def test_fleet_extrema_and_series():
    c = MetricsCollector(track_fleet_series=True)
    c.record_fleet_size(0.0, 5)
    c.record_fleet_size(10.0, 2)
    c.record_fleet_size(20.0, 9)
    assert c.min_instances == 2
    assert c.max_instances == 9
    assert c.fleet_series == [(0.0, 5), (10.0, 2), (20.0, 9)]


def test_series_not_tracked_by_default():
    c = MetricsCollector()
    c.record_fleet_size(0.0, 5)
    assert c.fleet_series == []
    assert c.max_instances == 5


def test_utilization_from_busy_and_vm_hours():
    c = MetricsCollector()
    monitor = sink(c)
    monitor.record_response(1.0, 0.5)
    monitor.record_response(1.0, 0.5)
    c.finalize(now=100.0, vm_hours=2.0 / 3600.0)  # 2 VM-seconds
    assert c.utilization == pytest.approx(0.5)


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------
def test_summarize_basics():
    s = summarize([1.0, 2.0, 3.0])
    assert isinstance(s, Summary)
    assert s.mean == 2.0
    assert s.std == pytest.approx(1.0)
    assert s.n == 3
    assert s.minimum == 1.0 and s.maximum == 3.0
    assert s.ci95 == pytest.approx(1.96 * 1.0 / np.sqrt(3), rel=1e-3)


def test_summarize_single_value():
    s = summarize([5.0])
    assert s.std == 0.0 and s.ci95 == 0.0
    assert str(s) == "5"


def test_summarize_rejects_empty_and_nan():
    with pytest.raises(ValueError):
        summarize([])
    with pytest.raises(ValueError):
        summarize([1.0, float("nan")])


# ----------------------------------------------------------------------
# report rendering
# ----------------------------------------------------------------------
def test_format_table_alignment():
    out = format_table(["policy", "rate"], [["Adaptive", 0.12345], ["Static-50", 1]])
    lines = out.splitlines()
    assert lines[0].startswith("policy")
    assert "Adaptive" in lines[2]
    assert "0.1235" in out  # 4 significant digits


def test_format_table_validates_row_width():
    with pytest.raises(ValueError):
        format_table(["a"], [[1, 2]])


def test_format_markdown_table():
    out = format_markdown_table(["a", "b"], [[1, 2]])
    assert out.splitlines()[0] == "| a | b |"
    assert out.splitlines()[1] == "|---|---|"
    assert out.splitlines()[2] == "| 1 | 2 |"


# ----------------------------------------------------------------------
# time series helpers
# ----------------------------------------------------------------------
def test_bin_counts():
    starts, rates = bin_counts([0.5, 1.5, 1.6], t0=0.0, t1=2.0, bin_width=1.0)
    assert list(starts) == [0.0, 1.0]
    assert list(rates) == [1.0, 2.0]


def test_bin_counts_validation():
    with pytest.raises(ValueError):
        bin_counts([1.0], 0.0, 0.0, 1.0)
