"""Workload models.

* :class:`WebWorkload` — the paper's Wikipedia-derived diurnal web
  traffic (Table II + Eq. 2).
* :class:`ScientificWorkload` — the paper's Bag-of-Tasks grid model
  (Iosup et al. Weibull parameters).
* :class:`PoissonWorkload`, :class:`PiecewiseRateWorkload`,
  :class:`MMPPWorkload` — synthetic processes for validation and
  robustness experiments.
* :class:`TraceWorkload` — replay of explicit arrival timestamps.
* :class:`ScaledWorkload` — behaviour-preserving rate/service rescaling
  (DESIGN.md §4).
"""

from .analysis import WorkloadProfile, characterize
from .base import ScaledWorkload, ServiceTimeSampler, Workload
from .distributions import poisson_process, weibull_mean, weibull_mode
from .scientific import ScientificWorkload
from .synthetic import MMPPWorkload, PiecewiseRateWorkload, PoissonWorkload
from .trace import TraceWorkload, load_trace, save_trace
from .web import TABLE_II, WebWorkload

__all__ = [
    "Workload",
    "ServiceTimeSampler",
    "ScaledWorkload",
    "WebWorkload",
    "TABLE_II",
    "ScientificWorkload",
    "PoissonWorkload",
    "PiecewiseRateWorkload",
    "MMPPWorkload",
    "TraceWorkload",
    "save_trace",
    "load_trace",
    "WorkloadProfile",
    "characterize",
    "weibull_mean",
    "weibull_mode",
    "poisson_process",
]
