"""Metrics: collection, aggregation, and reporting.

* :class:`MetricsCollector` — O(1)-memory accumulation of the paper's
  per-run output metrics (response time ± σ, rejections, QoS
  violations, fleet extrema, VM hours, utilization).
* :func:`summarize` / :class:`Summary` — replication statistics.
* :func:`format_table` / :func:`format_markdown_table` — paper-style
  result tables.
* :func:`bin_counts` — the arrival-rate series of Figures 3 and 4.
"""

from .collector import MetricsCollector
from .report import format_markdown_table, format_table
from .stats import Summary, summarize
from .timeseries import bin_counts

__all__ = [
    "MetricsCollector",
    "Summary",
    "summarize",
    "format_table",
    "format_markdown_table",
    "bin_counts",
]
