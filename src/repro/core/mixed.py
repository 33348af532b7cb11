"""Mixed-fleet provisioning — heterogeneous VM classes (§IV-B).

"Virtual machines with different capacities might also be deployed in
the system.  In this case, the provisioner has to decide when to deploy
VMs with different capacity, and this topic is subject of future
research."

:class:`MixedFleetPolicy` implements that decision in the same
analyzer/Algorithm-1 framework:

1. Algorithm 1 runs against the *small* (1-core) instance model exactly
   as in the paper, yielding the equivalent small-fleet size ``m``;
2. the required capacity is then packed into VM classes greedily by
   core count — large instances (which serve ``c``× faster under the
   linear-speedup model) carry the bulk, small instances the
   remainder.  A ``large_threshold`` keeps small deployments on small
   VMs (large instances have coarse granularity and drain slowly);
3. scaling up prefers adding whichever class closes the core deficit
   with least overshoot; scaling down drains small instances first
   (cheapest capacity to release).

Because a ``c``-core instance is modeled as ``c`` small servers, the
per-instance queue capacity scales with the class (``k·c``), keeping
the Eq.-1 deadline guarantee intact.

The loop is the paper's :class:`~repro.core.controlplane.ControlPlane`;
only the actuator (:class:`MixedFleetActuator`) differs, and it speaks
total cores: the plane's ``before``/``target``/``after`` and the run's
``control_series`` count cores, not instances.
"""

from __future__ import annotations

from typing import Callable, Tuple

from ..cloud.fleet import ApplicationFleet
from ..cloud.vm import VMSpec
from ..errors import ConfigurationError
from ..prediction.base import ArrivalRatePredictor
from .context import SimulationContext
from .policies import AdaptivePolicy, default_predictor

__all__ = ["MixedFleetActuator", "MixedFleetPolicy"]


class MixedFleetActuator:
    """Packs a core requirement into two VM classes; ``serving_count``
    and :meth:`scale_to` speak total cores over the serving instances
    (active and still booting, as the fleet's own ``serving_count``)."""

    def __init__(
        self,
        fleet: ApplicationFleet,
        large_cores: int = 4,
        large_threshold: int = 8,
    ) -> None:
        if large_cores < 2:
            raise ConfigurationError(f"large class needs >= 2 cores, got {large_cores}")
        if large_threshold < large_cores:
            raise ConfigurationError(
                f"large threshold ({large_threshold}) must be >= large class "
                f"size ({large_cores})"
            )
        self._fleet = fleet
        self.large_cores = int(large_cores)
        self.large_threshold = int(large_threshold)
        self.large_spec = VMSpec(
            cores=self.large_cores,
            ram_mb=2048 * self.large_cores,
            name=f"app-large-{self.large_cores}c",
        )

    # ------------------------------------------------------------------
    def plan(self, target_cores: int) -> Tuple[int, int]:
        """Split a core requirement into (large, small) instance counts.

        Below the threshold everything stays small; above it, large
        instances carry the bulk and small ones the remainder.
        """
        if target_cores < self.large_threshold:
            return 0, max(1, target_cores)
        large = target_cores // self.large_cores
        small = target_cores - large * self.large_cores
        return large, small

    @property
    def serving_count(self) -> int:
        """Σ cores over the serving instances."""
        return sum(inst.vm.allocated_cores for inst in self._fleet.serving_instances)

    def average_speed(self) -> float:
        """Mean cores per active instance, the ones whose completions the
        monitor observes (1 with none active)."""
        active = self._fleet.active_instances
        if not active:
            return 1.0
        return sum(inst.vm.allocated_cores for inst in active) / len(active)

    def scale_to(self, target: int) -> int:
        """Re-plan the class mix for ``target`` cores; return the cores
        the serving instances reached."""
        want_large, want_small = self.plan(target)
        fleet = self._fleet
        small, large = [], []
        for inst in fleet.serving_instances:
            (large if inst.vm.allocated_cores > 1 else small).append(inst)
        # Grow/shrink the large class first (bulk capacity).
        for _ in range(max(0, want_large - len(large))):
            if not self._grow_one(self.large_spec, self.large_cores):
                break
        for inst in large[want_large:]:
            fleet.scale_down_instance(inst)
        # Then the small class.
        for _ in range(max(0, want_small - len(small))):
            if not self._grow_one(fleet.vm_spec, 1):
                break
        for inst in small[want_small:]:
            fleet.scale_down_instance(inst)
        return self.serving_count

    def _grow_one(self, spec: VMSpec, speed: int) -> bool:
        inst = self._fleet.grow_with_spec(spec)
        if inst is None:
            return False
        inst.speed = float(speed)
        # A c-core instance absorbs c small-instance queues while
        # keeping the same per-request deadline bound (k·c requests,
        # each finished c× faster).
        inst.capacity = self._fleet.capacity * speed
        return True


class MixedFleetPolicy(AdaptivePolicy):
    """Adaptive provisioning over heterogeneous VM classes (des only).

    Algorithm 1 runs unchanged against the single-core instance model;
    its fleet size is the core requirement the actuator packs.

    Parameters
    ----------
    large_cores:
        Core count of the large class (paper hosts fit up to 8).
    large_threshold:
        Core requirement below which only small VMs are used.
    update_interval, lead_time, rho_max, predictor_factory:
        As for :class:`~repro.core.policies.AdaptivePolicy`.
    """

    name = "Mixed"
    backends = frozenset({"des"})

    def __init__(
        self,
        large_cores: int = 4,
        large_threshold: int = 8,
        update_interval: float = 900.0,
        lead_time: float = 60.0,
        rho_max: float = 0.85,
        predictor_factory: Callable[[SimulationContext], ArrivalRatePredictor] = default_predictor,
    ) -> None:
        super().__init__(
            update_interval=update_interval,
            lead_time=lead_time,
            rho_max=rho_max,
            predictor_factory=predictor_factory,
        )
        self.large_cores = int(large_cores)
        self.large_threshold = int(large_threshold)
        self.name = f"Mixed-{large_cores}c"

    def actuation(self, ctx: SimulationContext):
        actuator = MixedFleetActuator(ctx.fleet, self.large_cores, self.large_threshold)
        monitor = ctx.monitor
        # The monitored T_m mixes speeds; correct it back to single-core
        # time with the current average speed.
        return actuator, lambda: monitor.mean_service_time() * actuator.average_speed()
