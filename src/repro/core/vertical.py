"""Vertical-scaling baseline — the paper's §VI comparator.

Zhu & Agrawal (HPDC'10) "considers reconfiguration of available virtual
instances (increase or decrease their capacity) and not
increasing/decreasing number of instances"; the paper also lists
per-VM capacity changes as its own future work (§VII).
:class:`VerticalScalingPolicy` implements that alternative inside the
same analyzer/QoS framework so the two actuation styles can be compared
like-for-like:

* the fleet size ``n`` is *fixed*;
* on every analyzer estimate the controller picks the smallest integer
  per-instance core count ``s`` such that the per-core offered load
  ``λ·T̂m / (n·s)`` stays below ``rho_max`` (``T̂m`` is the monitored
  service time corrected back to single-core speed), clamped to the
  host's physical ceiling;
* every instance is resized to ``s`` cores (linear speedup).

The loop is the paper's :class:`~repro.core.controlplane.ControlPlane`;
only the modeler (:class:`VerticalModeler`) and the actuator
(:class:`VerticalActuator`) differ, and both speak cores per instance.
The cost unit becomes **core-hours** (``RunMetrics.core_hours``), which
equals VM-hours for the paper's one-core horizontal policies — so the
``bench_baseline_vertical`` benchmark can compare the two directly.
"""

from __future__ import annotations

import math
from typing import Callable

from ..cloud.fleet import ApplicationFleet
from ..errors import ConfigurationError
from ..prediction.base import ArrivalRatePredictor
from .context import SimulationContext
from .modeler import PerformanceModeler, ProvisioningDecision
from .policies import AdaptivePolicy, default_predictor

__all__ = ["VerticalModeler", "VerticalActuator", "VerticalScalingPolicy"]


class VerticalModeler(PerformanceModeler):
    """The ρ law for ``n = instances``: a decision's ``instances`` is the
    core count ``⌈λ·T̂m / (rho_max·n)⌉`` clamped to ``[1, max_speed]``,
    and its ``predicted`` field the network at ``n`` VMs of that speed.
    No decision cache: a rounded key could move the ceiling."""

    def __init__(self, instances: int, max_speed: int, **kwargs) -> None:
        if instances < 1:
            raise ConfigurationError(f"fleet size must be >= 1, got {instances}")
        if max_speed < 1:
            raise ConfigurationError(f"max speed must be >= 1, got {max_speed}")
        super().__init__(max_vms=max_speed, decision_cache_size=0, **kwargs)
        self.instances = int(instances)

    def _decide_uncached(
        self,
        arrival_rate: float,
        service_time: float,
        current_instances: int,
    ) -> ProvisioningDecision:
        needed = arrival_rate * service_time / (self.rho_max * self.instances)
        speed = max(1, min(self.max_vms, int(math.ceil(needed))))
        perf = self._network(service_time / speed).evaluate(arrival_rate, self.instances)
        return ProvisioningDecision(
            instances=speed,
            predicted=perf,
            iterations=1,
            meets_qos=self.meets_qos(perf),
            trace=[speed],
        )


class VerticalActuator:
    """A fixed fleet of ``instances`` VMs, deployed when built and then
    resized in cores per instance, booting ones included.  A full host
    refuses a resize, so the speed reached is the slowest serving
    instance's."""

    def __init__(self, fleet: ApplicationFleet, instances: int) -> None:
        reached = fleet.scale_to(instances)
        if reached < instances:
            raise ConfigurationError(
                f"data center placed only {reached} of {instances} instances"
            )
        self.fleet = fleet

    @property
    def serving_count(self) -> int:
        """Cores of the slowest serving instance (1 with none serving)."""
        return int(min((inst.speed for inst in self.fleet.serving_instances), default=1.0))

    def scale_to(self, target: int) -> int:
        """Resize every serving instance to ``target`` cores; return the
        cores the slowest one runs at."""
        for inst in self.fleet.serving_instances:
            self.fleet.set_speed(inst, target)
        return self.serving_count

    def speedup(self) -> float:
        """``T_base / T̂m``: round-robin makes the observed ``T̂m``
        ``T_base·mean(1/sᵢ)``, so this is the harmonic mean of the active
        speeds (exactly the speed when they all agree)."""
        speeds = [inst.speed for inst in self.fleet.active_instances] or [1.0]
        if min(speeds) == max(speeds):
            return speeds[0]
        return len(speeds) / sum(1.0 / s for s in speeds)


class VerticalScalingPolicy(AdaptivePolicy):
    """Fixed fleet, adaptive per-VM capacity (des backend only).

    Parameters
    ----------
    instances:
        The fixed fleet size ``n``.
    max_speed:
        Core ceiling per instance (paper hosts: 8).
    rho_max:
        Target per-core load band upper edge.
    update_interval, lead_time, predictor_factory:
        As for :class:`~repro.core.policies.AdaptivePolicy`.
    """

    backends = frozenset({"des"})

    def __init__(
        self,
        instances: int,
        max_speed: int = 8,
        rho_max: float = 0.85,
        update_interval: float = 900.0,
        lead_time: float = 60.0,
        predictor_factory: Callable[[SimulationContext], ArrivalRatePredictor] = default_predictor,
    ) -> None:
        super().__init__(
            update_interval=update_interval,
            lead_time=lead_time,
            rho_max=rho_max,
            predictor_factory=predictor_factory,
        )
        self.instances = int(instances)
        self.max_speed = int(max_speed)
        self.name = f"Vertical-{self.instances}"

    def _build_modeler(self, qos, capacity, max_vms, tracer=None, time_fn=None):
        return VerticalModeler(
            instances=self.instances,
            max_speed=self.max_speed,
            qos=qos,
            capacity=capacity,
            rho_max=self.rho_max,
            tracer=tracer,
            time_fn=time_fn,
        )

    def actuation(self, ctx: SimulationContext):
        actuator = VerticalActuator(ctx.fleet, self.instances)
        monitor = ctx.monitor
        return actuator, lambda: monitor.mean_service_time() * actuator.speedup()
