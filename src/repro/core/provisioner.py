"""Application provisioner — the DES adapter of the control plane.

"VM and application provisioning is performed by the application
provisioner component based on the estimated number of application
instances calculated by the load predictor and performance modeler"
(paper §IV-C).  :class:`ApplicationProvisioner` is the event-driven
face of the backend-agnostic :class:`~repro.core.controlplane.ControlPlane`:
it binds the plane to the simulation engine's clock, the real
:class:`~repro.cloud.fleet.ApplicationFleet` (which implements the
idle-first / graceful-drain actuation mechanics behind the
:class:`~repro.core.controlplane.FleetActuator` protocol), and the
monitor's mean-service-time estimate, then forwards each analyzer
estimate into the shared decide-and-actuate step.
"""

from __future__ import annotations

from typing import List, Optional

from ..cloud.fleet import ApplicationFleet
from ..cloud.monitor import Monitor
from ..core.modeler import PerformanceModeler
from ..sim.engine import Engine
from .controlplane import ControlPlane, ScalingAction

__all__ = ["ScalingAction", "ApplicationProvisioner"]


class ApplicationProvisioner:
    """Scales the fleet on every analyzer estimate (DES backend).

    Parameters
    ----------
    engine:
        Simulation engine (the control plane's time source).
    fleet:
        The actuation target (a real :class:`FleetActuator`).
    modeler:
        Algorithm-1 implementation.
    monitor:
        Source of the monitored mean service time ``T_m``.
    initial_instances:
        Fleet size deployed before the first request arrives.  The
        default of 0 lets the analyzer's time-zero alert size the
        initial fleet, so the run's minimum-instances metric reflects
        steady off-peak operation rather than a cold-start artifact.
    tracer:
        Optional :class:`repro.obs.bus.TraceBus`; each actuation then
        emits a ``scaling.actuated`` event (before/target/after), the
        companion of the modeler's ``decision`` event.
    """

    def __init__(
        self,
        engine: Engine,
        fleet: ApplicationFleet,
        modeler: PerformanceModeler,
        monitor: Monitor,
        initial_instances: int = 0,
        tracer: Optional[object] = None,
    ) -> None:
        self._engine = engine
        self.control = ControlPlane(
            modeler=modeler,
            actuator=fleet,
            service_time_fn=monitor.mean_service_time,
            initial_instances=initial_instances,
            tracer=tracer,
        )
        self.initial_instances = self.control.initial_instances

    @property
    def modeler(self) -> PerformanceModeler:
        """The Algorithm-1 modeler (exposes decision-cache counters)."""
        return self.control.modeler

    @property
    def actions(self) -> List[ScalingAction]:
        """Actuation log in time order (owned by the control plane)."""
        return self.control.actions

    def start(self) -> None:
        """Deploy the initial fleet (call before the run starts).

        With ``initial_instances == 0`` this is a no-op and the first
        analyzer alert (scheduled at time zero, before any arrival)
        performs the initial sizing.
        """
        self.control.start()

    def on_estimate(self, predicted_rate: float) -> None:
        """Analyzer callback: run Algorithm 1 and actuate the result."""
        self.control.on_estimate(self._engine.now, predicted_rate)

