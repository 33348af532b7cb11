"""Experiment harness: scenarios, runner, and figure regeneration.

* :func:`web_scenario` / :func:`scientific_scenario` — the paper's two
  evaluation setups (§V-B), optionally rate-rescaled.
* :func:`run_policy` / :func:`run_replications` — one replication of
  (scenario, policy) → :class:`~repro.backends.base.RunMetrics`, on any
  execution backend (``backend="des"``, ``"des-vec"`` or ``"fluid"``); ``workers=N``
  dispatches replications to a process pool
  (:mod:`repro.backends.pool`).
* :class:`PolicySpec` — picklable policy factory for the pool path.
* :mod:`repro.experiments.figures` — one function per workload table
  or figure (Table II, Figures 3 and 4, the workload analysis).
* the ``repro`` CLI (:mod:`repro.experiments.cli`), whose Figure 5/6
  ids run a campaign scenario block's cells and print
  :func:`~repro.campaigns.report.campaign_report`.
"""

from ..backends.pool import PolicySpec
from .figures import (
    FigureData,
    fig3_data,
    fig4_data,
    table2_data,
    workload_analysis_data,
)
from .persist import load_results, result_from_dict, result_to_dict, save_results
from .runner import RunMetrics, build_context, run_policy, run_replications
from .scenario import ScenarioConfig, scientific_scenario, web_scenario

__all__ = [
    "ScenarioConfig",
    "web_scenario",
    "scientific_scenario",
    "RunMetrics",
    "build_context",
    "run_policy",
    "run_replications",
    "PolicySpec",
    "FigureData",
    "table2_data",
    "fig3_data",
    "fig4_data",
    "workload_analysis_data",
    "save_results",
    "load_results",
    "result_to_dict",
    "result_from_dict",
]
