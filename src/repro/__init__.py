"""repro — adaptive QoS-driven VM provisioning with analytical models.

A faithful, from-scratch Python reproduction of

    R. N. Calheiros, R. Ranjan, R. Buyya,
    "Virtual Machine Provisioning Based on Analytical Performance and
    QoS in Cloud Computing Environments", ICPP 2011.

The library contains the paper's adaptive provisioning mechanism
(workload analyzer → Algorithm-1 performance modeler → application
provisioner) plus every substrate it is evaluated on: a discrete-event
cloud simulator, an analytical queueing library, the two production
workload models, admission control, load balancing, and a full
benchmark harness regenerating every table and figure.

Quickstart
----------
>>> from repro import web_scenario, AdaptivePolicy, run_policy
>>> scenario = web_scenario(scale=2000.0, horizon=86_400.0)
>>> result = run_policy(scenario, AdaptivePolicy(), seed=0)
>>> result.rejection_rate < 0.01
True
"""

from ._version import __version__
from .backends import DESBackend, ExecutionBackend, FluidBackend, RunMetrics, resolve_backend
from .core import (
    AdaptivePolicy,
    PerformanceModeler,
    ProvisioningDecision,
    ProvisioningPolicy,
    QoSTarget,
    SimulationContext,
    StaticPolicy,
    VerticalScalingPolicy,
    WorkloadAnalyzer,
)
from .experiments import (
    PolicySpec,
    ScenarioConfig,
    run_policy,
    run_replications,
    scientific_scenario,
    web_scenario,
)
from .sim import Engine, RandomStreams
from .workloads import (
    MMPPWorkload,
    PiecewiseRateWorkload,
    PoissonWorkload,
    ScientificWorkload,
    TraceWorkload,
    WebWorkload,
    Workload,
)

__all__ = [
    "__version__",
    # core mechanism
    "QoSTarget",
    "PerformanceModeler",
    "ProvisioningDecision",
    "WorkloadAnalyzer",
    "ProvisioningPolicy",
    "AdaptivePolicy",
    "StaticPolicy",
    "VerticalScalingPolicy",
    "SimulationContext",
    # simulation
    "Engine",
    "RandomStreams",
    "FluidSimulator",
    "FluidAggregates",
    # backends
    "ExecutionBackend",
    "DESBackend",
    "FluidBackend",
    "RunMetrics",
    "resolve_backend",
    # workloads
    "Workload",
    "WebWorkload",
    "ScientificWorkload",
    "PoissonWorkload",
    "PiecewiseRateWorkload",
    "MMPPWorkload",
    "TraceWorkload",
    # experiments
    "ScenarioConfig",
    "web_scenario",
    "scientific_scenario",
    "run_policy",
    "run_replications",
    "PolicySpec",
]


def __getattr__(name: str):
    # Lazy PEP-562 exports: the package root must not import both
    # engines at module level (repro.backends is the only module
    # allowed to — see docs/architecture.md), so the fluid engine's
    # classes resolve on first attribute access instead.
    if name in ("FluidSimulator", "FluidAggregates"):
        from .sim import fluid

        return getattr(fluid, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
