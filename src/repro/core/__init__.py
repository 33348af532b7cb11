"""The paper's contribution: adaptive QoS-driven VM provisioning.

Components (paper §IV, Figure 1):

* :class:`WorkloadAnalyzer` — arrival-rate estimation and alerts;
* :class:`PerformanceModeler` — Algorithm 1 over the Figure-2 queueing
  network, returning the fleet size ``m`` that meets QoS at acceptable
  utilization;
* :class:`ControlPlane` — the backend-agnostic analyzer-cadence →
  modeler → actuation loop (:mod:`repro.core.controlplane`), the one
  loop every adaptive policy decides through on every backend; the
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
    ControlClock,
    ControlPlane,
    FleetActuator,
    RecordingActuator,
    ScalingAction,
    alert_schedule,
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
    "ControlClock",
    "FleetActuator",
    "RecordingActuator",
    "next_alert_time",
    "alert_schedule",
    "SimulationContext",
    "ProvisioningPolicy",
    "StaticPolicy",
    "AdaptivePolicy",
    "VerticalScalingPolicy",
    "default_predictor",
]
