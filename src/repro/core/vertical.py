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

The cost unit becomes **core-hours** (``RunMetrics.core_hours``), which
equals VM-hours for the paper's one-core horizontal policies — so the
``bench_baseline_vertical`` benchmark can compare the two directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List

from ..cloud.fleet import ApplicationFleet
from ..cloud.monitor import Monitor
from ..errors import ConfigurationError
from ..prediction.base import ArrivalRatePredictor
from ..sim.engine import Engine
from .analyzer import WorkloadAnalyzer
from .context import SimulationContext
from .policies import ProvisioningPolicy, default_predictor

__all__ = ["VerticalScalingAction", "VerticalProvisioner", "VerticalScalingPolicy"]


@dataclass(frozen=True)
class VerticalScalingAction:
    """One vertical actuation, for diagnostics.

    Attributes
    ----------
    time, predicted_rate:
        When and on which estimate the resize happened.
    speed:
        The per-instance core count chosen.
    resized:
        How many instances the data center actually resized.
    """

    time: float
    predicted_rate: float
    speed: int
    resized: int


class VerticalProvisioner:
    """Resizes a fixed fleet's cores on every analyzer estimate."""

    def __init__(
        self,
        engine: Engine,
        fleet: ApplicationFleet,
        monitor: Monitor,
        instances: int,
        max_speed: int = 8,
        rho_max: float = 0.85,
    ) -> None:
        if instances < 1:
            raise ConfigurationError(f"fleet size must be >= 1, got {instances}")
        if max_speed < 1:
            raise ConfigurationError(f"max speed must be >= 1, got {max_speed}")
        if not 0.0 < rho_max < 1.0:
            raise ConfigurationError(f"rho_max must be in (0, 1), got {rho_max!r}")
        self._engine = engine
        self._fleet = fleet
        self._monitor = monitor
        self.instances = int(instances)
        self.max_speed = int(max_speed)
        self.rho_max = float(rho_max)
        self.actions: List[VerticalScalingAction] = []
        self._current_speed = 1

    def start(self) -> None:
        """Deploy the fixed fleet at single-core speed."""
        reached = self._fleet.scale_to(self.instances)
        if reached < self.instances:
            raise ConfigurationError(
                f"data center placed only {reached} of {self.instances} instances"
            )

    def target_speed(self, predicted_rate: float) -> int:
        """Smallest integer cores/instance keeping ρ ≤ rho_max."""
        observed_tm = self._monitor.mean_service_time()
        # The monitor observes sped-up services; undo the current speed
        # to recover the single-core service time the sizing law needs.
        tm_base = observed_tm * self._current_speed
        if predicted_rate <= 0.0:
            return 1
        needed = predicted_rate * tm_base / (self.rho_max * self.instances)
        return max(1, min(self.max_speed, int(math.ceil(needed))))

    def on_estimate(self, predicted_rate: float) -> None:
        """Analyzer callback — resize the whole fleet."""
        speed = self.target_speed(predicted_rate)
        resized = 0
        for inst in self._fleet.active_instances:
            if self._fleet.set_speed(inst, speed):
                resized += 1
        self._current_speed = speed
        self.actions.append(
            VerticalScalingAction(
                time=self._engine.now,
                predicted_rate=predicted_rate,
                speed=speed,
                resized=resized,
            )
        )


class VerticalScalingPolicy(ProvisioningPolicy):
    """Fixed fleet, adaptive per-VM capacity.

    Parameters
    ----------
    instances:
        The fixed fleet size ``n``.
    max_speed:
        Core ceiling per instance (paper hosts: 8).
    rho_max:
        Target per-core load band upper edge.
    update_interval, lead_time:
        Analyzer cadence, as for :class:`AdaptivePolicy`.
    predictor_factory:
        Arrival-rate predictor, as for :class:`AdaptivePolicy`.
    """

    def __init__(
        self,
        instances: int,
        max_speed: int = 8,
        rho_max: float = 0.85,
        update_interval: float = 900.0,
        lead_time: float = 60.0,
        predictor_factory: Callable[[SimulationContext], ArrivalRatePredictor] = default_predictor,
    ) -> None:
        self.instances = int(instances)
        self.max_speed = int(max_speed)
        self.rho_max = float(rho_max)
        self.update_interval = float(update_interval)
        self.lead_time = float(lead_time)
        self.predictor_factory = predictor_factory
        self.name = f"Vertical-{self.instances}"

    def attach(self, ctx: SimulationContext) -> None:
        provisioner = VerticalProvisioner(
            engine=ctx.engine,
            fleet=ctx.fleet,
            monitor=ctx.monitor,
            instances=self.instances,
            max_speed=self.max_speed,
            rho_max=self.rho_max,
        )
        analyzer = WorkloadAnalyzer(
            engine=ctx.engine,
            predictor=self.predictor_factory(ctx),
            on_estimate=provisioner.on_estimate,
            horizon=ctx.horizon,
            update_interval=self.update_interval,
            lead_time=self.lead_time,
            monitor=ctx.monitor,
        )
        provisioner.start()
        analyzer.start()
        ctx.provisioner = provisioner
        ctx.analyzer = analyzer
