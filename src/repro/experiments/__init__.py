"""Experiment harness: scenarios, runner, and figure regeneration.

* :func:`web_scenario` / :func:`scientific_scenario` — the paper's two
  evaluation setups (§V-B), optionally rate-rescaled.
* :func:`run_policy` / :func:`run_replications` — one replication of
  (scenario, policy) → :class:`~repro.backends.base.RunMetrics`, on any
  execution backend (``backend="des"``, ``"des-vec"`` or ``"fluid"``); ``workers=N``
  dispatches replications to a process pool
  (:mod:`repro.backends.pool`).
* :class:`PolicySpec` — picklable policy factory for the pool path.
* :mod:`repro.experiments.figures` — one function per paper artifact.
* the ``repro`` CLI (:mod:`repro.experiments.cli`).
"""

from ..backends.pool import PolicySpec
from .figures import (
    SCI_STATIC_SIZES,
    WEB_STATIC_SIZES,
    FigureData,
    fig3_data,
    fig4_data,
    fig5_data,
    fig6_data,
    policy_comparison,
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
    "fig5_data",
    "fig6_data",
    "policy_comparison",
    "workload_analysis_data",
    "WEB_STATIC_SIZES",
    "SCI_STATIC_SIZES",
    "save_results",
    "load_results",
    "result_to_dict",
    "result_from_dict",
]
