"""Virtualized application instance — the M/M/1/k station of Figure 2.

One instance ``s_j`` runs inside one VM ``v_j`` (the paper's one-to-one
mapping) and serves requests FIFO from a bounded queue: at most ``k``
requests may be present (one in service plus ``k − 1`` waiting), with
``k = ⌊Ts/Tr⌋`` enforced upstream by admission control — an instance is
never *offered* a request while full.

Lifecycle (paper §IV-C):

``BOOTING`` → ``ACTIVE`` → (``DRAINING`` ⇄ ``ACTIVE``) → ``DESTROYED``

A draining instance stops receiving work but finishes what it holds;
the provisioner may *revive* it back to ACTIVE if load returns before
it empties — exactly the paper's "removes them from the list of
instances to be destroyed".

This class sits on the DES hot path; it stores arrival timestamps as
plain floats in a ``deque`` and uses ``__slots__``.  Its request flow
takes one frame per hop: :attr:`AppInstance.occupancy` is a plain
counter (a request is in service iff it is > 0) that the round-robin
balancer reads directly, a service starts inline in :meth:`accept` or
:meth:`_complete`, and the completion event is the bound ``_complete``,
which finds the in-service request's arrival and service time in slots
— no closure per request.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable

from ..sim.engine import Engine
from ..sim.events import TIME
from ..workloads.base import ServiceTimeSampler
from .monitor import Monitor
from .vm import VirtualMachine

__all__ = ["InstanceState", "AppInstance"]


class InstanceState(enum.Enum):
    """Lifecycle state of an application instance."""

    BOOTING = "booting"
    ACTIVE = "active"
    DRAINING = "draining"
    DESTROYED = "destroyed"


class AppInstance:
    """A single-server bounded-queue application instance.

    Parameters
    ----------
    instance_id:
        Fleet-unique identifier (``j`` of ``s_j``).
    vm:
        The backing :class:`~repro.cloud.vm.VirtualMachine`.
    capacity:
        Maximum requests present at once (the paper's ``k``).
    engine:
        The simulation engine (for completion events).
    sampler:
        Per-request service-time sampler.
    monitor:
        Metric/monitoring sink notified of completions.
    on_drained:
        Callback ``(instance) -> None`` fired when a DRAINING instance
        empties and can be destroyed.
    """

    __slots__ = (
        "instance_id",
        "vm",
        "capacity",
        "state",
        "busy_seconds",
        "served",
        "_engine",
        "_sampler",
        "_monitor",
        "_on_drained",
        "_queue",
        "occupancy",
        "_pending",
        "_arrival",
        "_service",
        "speed",
    )

    def __init__(
        self,
        instance_id: int,
        vm: VirtualMachine,
        capacity: int,
        engine: Engine,
        sampler: ServiceTimeSampler,
        monitor: Monitor,
        on_drained: Callable[["AppInstance"], None],
    ) -> None:
        if capacity < 1:
            raise ValueError(f"instance capacity must be >= 1, got {capacity}")
        self.instance_id = instance_id
        self.vm = vm
        self.capacity = capacity
        self.state = InstanceState.BOOTING
        self.busy_seconds = 0.0
        self.served = 0
        self._engine = engine
        self._sampler = sampler
        self._monitor = monitor
        self._on_drained = on_drained
        self._queue: deque = deque()
        #: Requests currently present (waiting + in service).  Kept by
        #: the instance; read-only to everyone else.
        self.occupancy = 0
        self._pending = None  # completion-event handle, for crash cancellation
        # Arrival and (speed-scaled) service time of the request in service.
        self._arrival = 0.0
        self._service = 0.0
        #: Service-speed multiplier (vertical scaling): a request's
        #: service time is the sampled base time divided by ``speed``.
        #: Changing it affects services that start afterwards.
        self.speed = 1.0

    # ------------------------------------------------------------------
    # state inspection (hot path uses these constantly)
    # ------------------------------------------------------------------
    @property
    def is_full(self) -> bool:
        """Whether admission must not offer another request."""
        return self.occupancy >= self.capacity

    @property
    def is_idle(self) -> bool:
        """Whether the instance holds no requests at all."""
        return self.occupancy == 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def activate(self) -> None:
        """BOOTING/DRAINING → ACTIVE (boot completed or revived)."""
        if self.state is InstanceState.DESTROYED:
            raise ValueError(f"instance {self.instance_id} is destroyed")
        self.state = InstanceState.ACTIVE

    def drain(self) -> None:
        """ACTIVE → DRAINING; fires ``on_drained`` at once if empty."""
        if self.state is not InstanceState.ACTIVE:
            raise ValueError(
                f"instance {self.instance_id} cannot drain from {self.state.name}"
            )
        self.state = InstanceState.DRAINING
        if self.is_idle:
            self._on_drained(self)

    def crash(self) -> int:
        """Hard-kill the instance; returns the number of requests lost.

        Cancels the outstanding completion event (the in-service
        request dies with the VM) and empties the queue.  The fleet is
        responsible for VM destruction and metric accounting.
        """
        lost = self.occupancy
        if self._pending is not None:
            self._engine.cancel(self._pending)
            self._pending = None
        self.occupancy = 0
        self._queue.clear()
        self.state = InstanceState.DESTROYED
        return lost

    # ------------------------------------------------------------------
    # request flow (hot path)
    # ------------------------------------------------------------------
    def accept(self, arrival_time: float) -> None:
        """Take responsibility for a request that arrived at ``arrival_time``.

        The dispatcher guarantees the instance is ACTIVE and not full;
        violating that is a programming error and raises immediately
        rather than corrupting the queue invariant.
        """
        occupancy = self.occupancy
        if occupancy >= self.capacity or self.state is not InstanceState.ACTIVE:
            raise RuntimeError(
                f"instance {self.instance_id} offered a request while "
                f"{'full' if self.is_full else self.state.name}"
            )
        self.occupancy = occupancy + 1
        if occupancy:
            self._queue.append(arrival_time)
            return
        # Start service (inline, as in _complete: one frame per hop).
        self._arrival = arrival_time
        self._service = service_time = self._sampler.draw() / self.speed
        self._pending = self._engine.schedule(service_time, self._complete)

    def _complete(self) -> None:
        """Completion event of the request in service."""
        now = self._pending[TIME]  # == engine.now: this event's time
        service_time = self._service
        self.busy_seconds += service_time
        self.served += 1
        self.occupancy -= 1
        self._pending = None
        self._monitor.record_response(now - self._arrival, service_time)
        if self.occupancy:
            self._arrival = self._queue.popleft()
            self._service = service_time = self._sampler.draw() / self.speed
            self._pending = self._engine.schedule(service_time, self._complete)
        elif self.state is InstanceState.DRAINING:
            self._on_drained(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<AppInstance {self.instance_id} {self.state.name} "
            f"occ={self.occupancy}/{self.capacity}>"
        )
