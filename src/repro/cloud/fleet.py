"""Application fleet — one instance lifecycle over two data planes.

The paper's application provisioner (§IV-C) has one scaling policy, and
:class:`FleetLifecycle` is its one implementation:

* **scale up** — first *revive* instances that were draining ("removes
  them from the list of instances to be destroyed"), then create fresh
  VMs through the data center's resource provisioner;
* **scale down** — cancel instances still booting, destroy idle
  instances immediately, then gracefully drain the non-idle victims
  with the fewest requests in progress (ties by id): they stop
  receiving requests and are destroyed "only when running requests
  finish".

The lifecycle owns the active, booting and draining buckets, boot
completion, crashes (:meth:`~FleetLifecycle.kill`), the retirement of
drained members, the ``vm.*`` trace events and the fleet-size record.
A data plane subclasses it and supplies the members and a few hooks
(see :class:`FleetLifecycle`):

* :class:`ApplicationFleet` (the ``des`` backend) — members are
  :class:`~repro.cloud.instance.AppInstance` objects, each request one
  engine event, dispatched by a :class:`~repro.cloud.loadbalancer.LoadBalancer`;
* :class:`~repro.cloud.vecfleet.VectorFleet` (``des-vec``) — members
  are station indices into a structure-of-arrays kernel.

The decision of *how many* instances to run belongs to the
:class:`repro.core.controlplane.ControlPlane`; the fleet only executes.
Through its ``serving_count`` / ``scale_to`` surface either fleet is
the DES-side :class:`repro.core.controlplane.FleetActuator` of the
shared control plane (analytical backends use
:class:`repro.core.controlplane.RecordingActuator` instead).
"""

from __future__ import annotations

import itertools
import math
from operator import attrgetter
from typing import Dict, List, Optional

from ..errors import ConfigurationError, PlacementError
from ..metrics.collector import MetricsCollector
from ..sim.engine import Engine
from ..workloads.base import ServiceTimeSampler
from .datacenter import Datacenter
from .instance import AppInstance
from .loadbalancer import LoadBalancer, RoundRobinBalancer
from .monitor import Monitor
from .vm import VirtualMachine

__all__ = ["FleetLifecycle", "ApplicationFleet"]


class FleetLifecycle:
    """The instance lifecycle both DES data planes share.

    Parameters
    ----------
    engine:
        Simulation engine.
    datacenter:
        IaaS substrate that places/destroys the backing VMs.
    sampler:
        Shared service-time sampler (instances are homogeneous).
    monitor:
        Monitoring sink of the data plane.
    metrics:
        Run metrics (fleet-size extrema and crash losses are recorded
        here).
    capacity:
        Per-instance queue capacity ``k`` (Eq. 1).
    boot_delay:
        Seconds between VM placement and the instance turning ACTIVE.
        The paper's simulations provision ahead of demand via the
        analyzer's lead time; 0 models an instantaneous boot.
    tracer:
        Optional :class:`repro.obs.bus.TraceBus`.  When set, lifecycle
        transitions emit ``vm.created`` / ``vm.draining`` /
        ``vm.destroyed`` events (destruction carries the reason:
        ``cancelled``, ``idle``, ``drained``, or the kill's reason).

    A subclass supplies the members through these hooks:

    * ``_new_member(vm)`` — a member backed by a freshly placed VM;
    * ``_member_id(member)`` — its fleet-unique, creation-ordered id
      (default: the member itself);
    * ``_occupancy(member)`` — requests on board (in service + queued);
    * ``_clear(member)`` — drop the requests on board;
    * ``_membership_changed()`` — the active set changed;
    * ``_activate(member)`` / ``_drain(member)`` — the member turned
      active (booted or revived) / started draining (default: no-op).
    """

    def __init__(
        self,
        engine: Engine,
        datacenter: Datacenter,
        sampler: ServiceTimeSampler,
        monitor: Monitor,
        metrics: MetricsCollector,
        capacity: int,
        boot_delay: float = 0.0,
        tracer: Optional[object] = None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(f"queue capacity k must be >= 1, got {capacity}")
        if not 0.0 <= boot_delay < math.inf:
            raise ConfigurationError(f"boot delay must be finite and >= 0, got {boot_delay!r}")
        self._engine = engine
        self._datacenter = datacenter
        self._sampler = sampler
        self._monitor = monitor
        self._metrics = metrics
        self.capacity = int(capacity)
        self.boot_delay = float(boot_delay)
        self._tracer = tracer
        self._active: List = []
        self._booting: List = []
        self._draining: List = []
        self._vms: Dict[object, VirtualMachine] = {}

    # Hook defaults (see the class docstring).
    _member_id = staticmethod(lambda member: member)
    _activate = _drain = staticmethod(lambda member: None)

    def _emit_vm(
        self, event_type: str, member, t: Optional[float] = None, **fields: object
    ) -> None:
        """Trace one lifecycle transition (no-op untraced)."""
        if self._tracer is not None:
            when = self._engine.now if t is None else t
            self._tracer.emit(event_type, when, instance=self._member_id(member), **fields)

    # ------------------------------------------------------------------
    # census
    # ------------------------------------------------------------------
    @property
    def active_count(self) -> int:
        """Instances currently accepting requests."""
        return len(self._active)

    @property
    def serving_count(self) -> int:
        """Instances provisioned for service (active + still booting).

        This is the fleet's notion of ``m`` — draining instances no
        longer count toward capacity.
        """
        return len(self._active) + len(self._booting)

    @property
    def live_count(self) -> int:
        """All non-destroyed instances (includes draining)."""
        return len(self._active) + len(self._booting) + len(self._draining)

    @property
    def active_instances(self) -> List:
        """The ACTIVE list (read-only by convention)."""
        return self._active

    @property
    def serving_instances(self) -> List:
        """The instances :attr:`serving_count` counts: active, then
        booting (a fresh list)."""
        return self._active + self._booting

    @property
    def live_instances(self) -> List:
        """Every non-destroyed instance (a fresh list): active, booting,
        then draining."""
        return self._active + self._booting + self._draining

    # ------------------------------------------------------------------
    # scaling
    # ------------------------------------------------------------------
    def scale_to(self, target: int) -> int:
        """Adjust the serving fleet toward ``target`` instances.

        Returns the serving count actually reached (placement limits
        may cap growth).  Never raises on data-center exhaustion — the
        provisioner treats the achieved size as the new plan, matching
        a real IaaS quota refusal.
        """
        if target < 0:
            raise ConfigurationError(f"target fleet size must be >= 0, got {target}")
        current = self.serving_count
        if target > current:
            self._grow(target - current)
        elif target < current:
            self._shrink(current - target)
        return self.serving_count

    def _grow(self, count: int) -> None:
        # 1. Revive draining instances (most recently drained first —
        #    they are the least drained and retain the most capacity).
        while count > 0 and self._draining:
            self._serve(self._draining.pop())
            count -= 1
        # 2. Create fresh VMs until quota/capacity stops us.
        while count > 0 and self._create_instance() is not None:
            count -= 1
        self._after_membership_change()

    def _create_instance(self):
        """Place one VM of the default spec and make it a member.

        Returns ``None`` when the data center refuses placement.
        Callers are responsible for :meth:`_after_membership_change`.
        """
        try:
            vm = self._datacenter.create_vm(self._engine.now)
        except PlacementError:
            return None
        member = self._new_member(vm)
        self._vms[member] = vm
        if self.boot_delay > 0.0:
            self._booting.append(member)
            self._engine.schedule(self.boot_delay, lambda m=member: self._boot_done(m))
        else:
            self._serve(member)
        self._emit_vm("vm.created", member, booting=self.boot_delay > 0.0)
        return member

    def _boot_done(self, member) -> None:
        if member not in self._booting:
            return  # cancelled or killed while booting
        self._booting.remove(member)
        self._serve(member)
        self._after_membership_change()

    def _serve(self, member) -> None:
        """Put a booted, revived or new member into service."""
        self._vms[member].boot_completed()
        self._activate(member)
        self._active.append(member)

    def _shrink(self, count: int) -> None:
        # 1. Cancel instances that have not even booted yet, newest first.
        victims = self._booting[::-1][:count]
        if count > len(victims):
            # 2. Idle actives go first ("the first ... to be destroyed
            #    are the idle ones"); 3. then "the instances with smaller
            #    number of requests in progress", which drain.
            load = {m: self._occupancy(m) for m in self._active}
            idle = [m for m in self._active if not load[m]]
            busy = sorted(
                (m for m in self._active if load[m]), key=lambda m: (load[m], self._member_id(m))
            )
            victims += (idle + busy)[: count - len(victims)]
        for member in victims:
            self._step_down(member)
        self._after_membership_change()

    def _step_down(self, member) -> None:
        """Take one serving member out of service: cancel it if booting,
        destroy it if idle, drain it otherwise.  Callers are responsible
        for :meth:`_after_membership_change`."""
        if member in self._booting:
            self._booting.remove(member)
            self._retire(member, "cancelled")
        elif member in self._active:
            self._active.remove(member)
            if self._occupancy(member) == 0:
                self._retire(member, "idle")
            else:
                self._draining.append(member)
                self._emit_vm("vm.draining", member)
                self._drain(member)

    def kill(self, member, reason: str = "crashed") -> int:
        """Crash ``member`` (failure/revocation injection); returns requests lost.

        Unlike a drain, the member's queued and in-service requests die
        with it; they are recorded as losses, not rejections.
        ``reason`` tags the ``vm.destroyed`` trace event (``"crashed"``
        for faults, ``"revoked"`` for spot reclamation).
        """
        for bucket in (self._active, self._booting, self._draining):
            if member in bucket:
                bucket.remove(member)
                break
        else:
            return 0  # already destroyed
        lost = self._occupancy(member)
        self._retire(member, reason, lost=lost)
        self._metrics.record_loss(lost)
        self._after_membership_change()
        return lost

    def _retire_drained(self, member, t: Optional[float] = None) -> None:
        """A draining member emptied at ``t`` (default: now) — destroy it."""
        self._draining.remove(member)
        self._retire(member, "drained", t)
        self._metrics.record_fleet_size(self._engine.now if t is None else t, self.live_count)

    def _retire(self, member, reason: str, t: Optional[float] = None, **fields: object) -> None:
        """Clear ``member`` and destroy its VM at ``t`` (default: now):
        the one destroy path of every member."""
        self._clear(member)
        self._datacenter.destroy_vm(self._vms.pop(member), self._engine.now if t is None else t)
        self._emit_vm("vm.destroyed", member, t, reason=reason, **fields)

    def _after_membership_change(self) -> None:
        self._membership_changed()
        self._metrics.record_fleet_size(self._engine.now, self.live_count)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} active={len(self._active)} "
            f"booting={len(self._booting)} draining={len(self._draining)}>"
        )


class ApplicationFleet(FleetLifecycle):
    """The event-per-request data plane: :class:`AppInstance` members
    behind a load balancer.

    Parameters are :class:`FleetLifecycle`'s, plus ``balancer``: the
    dispatch strategy, by default the paper's round-robin.
    """

    def __init__(
        self,
        engine: Engine,
        datacenter: Datacenter,
        sampler: ServiceTimeSampler,
        monitor: Monitor,
        metrics: MetricsCollector,
        capacity: int,
        balancer: Optional[LoadBalancer] = None,
        boot_delay: float = 0.0,
        tracer: Optional[object] = None,
    ) -> None:
        super().__init__(
            engine, datacenter, sampler, monitor, metrics, capacity, boot_delay, tracer
        )
        self.balancer = balancer if balancer is not None else RoundRobinBalancer()
        self._instance_ids = itertools.count()

    # -- lifecycle hooks ---------------------------------------------------
    _member_id = staticmethod(attrgetter("instance_id"))
    _occupancy = staticmethod(attrgetter("occupancy"))
    _clear = staticmethod(AppInstance.crash)
    _activate = staticmethod(AppInstance.activate)
    _drain = staticmethod(AppInstance.drain)  # retires the instance at once if idle

    def _new_member(self, vm: VirtualMachine) -> AppInstance:
        return AppInstance(
            next(self._instance_ids),
            vm,
            self.capacity,
            self._engine,
            self._sampler,
            self._monitor,
            self._retire_drained,
        )

    def _membership_changed(self) -> None:
        self.balancer.notify_membership_change(len(self._active))

    # ------------------------------------------------------------------
    # vertical scaling
    # ------------------------------------------------------------------
    def set_speed(self, inst: AppInstance, speed: int) -> bool:
        """Vertically scale one instance to ``speed`` cores.

        Linear-speedup model: an instance pinned to ``speed`` cores
        serves requests ``speed``× faster (subsequent service starts
        only).  Returns ``False`` when the host cannot grow the VM.
        """
        if speed < 1:
            raise ConfigurationError(f"speed must be >= 1, got {speed}")
        if not self._datacenter.resize_vm(inst.vm, int(speed), self._engine.now):
            return False
        inst.speed = float(speed)
        return True
