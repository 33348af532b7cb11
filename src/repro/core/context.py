"""Simulation context — the wired-up deployment a policy plugs into.

The experiment runner builds one :class:`SimulationContext` per run
(engine, data center, fleet, monitor, metrics, admission, source) and
then hands it to a :class:`~repro.core.policies.ProvisioningPolicy`,
which contributes only the *control plane* (static sizing, or the
analyzer → modeler → provisioner chain).  Keeping the data plane
identical across policies is what makes the Figure-5/6 comparisons
fair, and the shared random streams make them variance-reduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..cloud.admission import AdmissionControl
from ..cloud.broker import WorkloadSource
from ..cloud.datacenter import Datacenter
from ..cloud.fleet import ApplicationFleet
from ..cloud.monitor import Monitor
from ..metrics.collector import MetricsCollector
from ..sim.engine import Engine
from ..sim.rng import RandomStreams
from ..workloads.base import Workload
from .qos import QoSTarget

__all__ = ["SimulationContext"]


@dataclass
class SimulationContext:
    """Everything a provisioning policy needs to attach itself.

    Attributes
    ----------
    engine, streams:
        Simulation kernel and the run's random streams.
    workload, qos:
        The scenario's demand model and QoS contract.
    capacity:
        Per-instance queue size ``k`` (Eq. 1, already computed).
    datacenter, fleet, monitor, metrics, admission, source:
        The wired data plane.
    horizon:
        Simulation end time.
    provisioner:
        The :class:`~repro.core.controlplane.ControlPlane` an adaptive
        policy attached (``None`` for static fleets).
    analyzer:
        Set by adaptive policies after attaching (for diagnostics).
    tracer:
        Optional :class:`repro.obs.bus.TraceBus` shared by every
        instrumented component of the run (``None`` = tracing off).
    """

    engine: Engine
    streams: RandomStreams
    workload: Workload
    qos: QoSTarget
    capacity: int
    datacenter: Datacenter
    fleet: ApplicationFleet
    monitor: Monitor
    metrics: MetricsCollector
    admission: AdmissionControl
    source: WorkloadSource
    horizon: float
    provisioner: Optional[object] = field(default=None)
    analyzer: Optional[object] = field(default=None)
    tracer: Optional[object] = field(default=None)
