"""The paper's contribution: adaptive QoS-driven VM provisioning.

Components (paper §IV, Figure 1):

* :class:`WorkloadAnalyzer` — runs the control plane's alerts on the
  DES engine and watches the monitored rate between them;
* :class:`PerformanceModeler` — Algorithm 1 over the Figure-2 queueing
  network, returning the fleet size ``m`` that meets QoS at acceptable
  utilization;
* :class:`ControlPlane` — the backend-agnostic analyzer-cadence →
  modeler → actuation loop (:mod:`repro.core.controlplane`), whose
  ``step`` every adaptive policy decides through on every backend; the
  fleet it actuates is a :class:`FleetActuator`;
* :class:`QoSTarget` — the negotiated contract and the Eq.-1 capacity
  rule;
* :class:`AdaptivePolicy` / :class:`StaticPolicy` — the evaluated
  provisioning policies, attachable to a :class:`SimulationContext`;
  :class:`VerticalScalingPolicy` is an adaptive policy whose actuator
  resizes cores.
"""

from .analyzer import WorkloadAnalyzer
from .context import SimulationContext
from .controlplane import (
    ControlPlane,
    FleetActuator,
    RecordingActuator,
    ScalingAction,
    next_alert_time,
)
from .modeler import PerformanceModeler, ProvisioningDecision
from .policies import AdaptivePolicy, ProvisioningPolicy, StaticPolicy, default_predictor
from .qos import QoSTarget
from .vertical import VerticalScalingPolicy

__all__ = [
    "QoSTarget",
    "PerformanceModeler",
    "ProvisioningDecision",
    "WorkloadAnalyzer",
    "ScalingAction",
    "ControlPlane",
    "FleetActuator",
    "RecordingActuator",
    "next_alert_time",
    "SimulationContext",
    "ProvisioningPolicy",
    "StaticPolicy",
    "AdaptivePolicy",
    "VerticalScalingPolicy",
    "default_predictor",
]
