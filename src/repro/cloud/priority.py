"""Priority-aware admission — the paper's §VII future-work extension.

"We will extend the model to support other QoS parameters such as
deadline and incentive/budget to ensure that high-priority requests are
served first in case of intense competition for resources and limited
resource availability."

:class:`PriorityAdmissionControl` implements the standard *trunk
reservation* discipline on top of the paper's queue-length gate:
requests carry a priority class; low-priority requests are additionally
rejected whenever the fleet's free capacity falls to or below a
reserved headroom, so under contention the remaining slots are kept for
high-priority traffic.  With zero reservation it degrades exactly to
the paper's admission control.

Per-class acceptance/rejection counters make the differentiated loss
visible (the run-level :class:`~repro.metrics.collector.MetricsCollector`
still sees every event, keeping Figure-5/6 metrics comparable).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..errors import ConfigurationError
from .admission import AdmissionControl
from .fleet import ApplicationFleet
from .monitor import Monitor

__all__ = ["PriorityClassStats", "PriorityAdmissionControl", "HIGH", "LOW"]

#: Conventional class labels; any hashable class key is accepted.
HIGH = "high"
LOW = "low"


@dataclass
class PriorityClassStats:
    """Acceptance accounting for one priority class."""

    accepted: int = 0
    rejected: int = 0

    @property
    def total(self) -> int:
        """Arrivals observed in this class."""
        return self.accepted + self.rejected

    @property
    def rejection_rate(self) -> float:
        """Class-conditional rejection probability."""
        return self.rejected / self.total if self.total else 0.0


class PriorityAdmissionControl:
    """Trunk-reservation admission over the fleet's bounded queues.

    Parameters
    ----------
    fleet:
        Dispatch target.
    monitor:
        Monitoring sink; acceptances and rejections are counted on its
        metrics collector, so global metrics still see every request.
        A request that passes the reservation is admitted by a plain
        :class:`~repro.cloud.admission.AdmissionControl` over the same
        fleet and monitor; when the monitor samples the arrival rate,
        every request is counted there, reserved-out ones included.
    reserved_slots:
        Number of request slots (across the whole fleet) kept free for
        privileged classes: a request of a *non*-privileged class is
        rejected when free slots ≤ ``reserved_slots``.
    privileged:
        The class keys exempt from the reservation (default: ``HIGH``).
    """

    def __init__(
        self,
        fleet: ApplicationFleet,
        monitor: Monitor,
        reserved_slots: int = 0,
        privileged: tuple = (HIGH,),
    ) -> None:
        if reserved_slots < 0:
            raise ConfigurationError(f"reserved slots must be >= 0, got {reserved_slots}")
        self._fleet = fleet
        self._gate = AdmissionControl(fleet, monitor)
        self._monitor = monitor
        self._metrics = monitor._metrics
        self.reserved_slots = int(reserved_slots)
        self.privileged = frozenset(privileged)
        self.per_class: Dict[object, PriorityClassStats] = {}

    # ------------------------------------------------------------------
    def free_slots(self) -> int:
        """Unoccupied request slots across the ACTIVE fleet."""
        fleet = self._fleet
        return sum(
            inst.capacity - inst.occupancy for inst in fleet.active_instances
        )

    def _free_exceeds_reserve(self) -> bool:
        """Whether :meth:`free_slots` > ``reserved_slots``; stops summing
        at the first instance that takes the total past the reserve."""
        free, reserve = 0, self.reserved_slots
        for inst in self._fleet.active_instances:
            free += inst.capacity - inst.occupancy
            if free > reserve:
                return True
        return False

    def _stats(self, klass: object) -> PriorityClassStats:
        stats = self.per_class.get(klass)
        if stats is None:
            stats = self.per_class[klass] = PriorityClassStats()
        return stats

    def submit(self, arrival_time: float, klass: object = HIGH) -> bool:
        """Admit or reject one request of class ``klass``."""
        stats = self._stats(klass)
        if klass not in self.privileged and not self._free_exceeds_reserve():
            if self._monitor.rate_sample_interval is not None:
                self._monitor.record_arrival()
            stats.rejected += 1
            self._metrics.rejected += 1
            return False
        if self._gate.submit(arrival_time):
            stats.accepted += 1
            return True
        stats.rejected += 1
        return False
