"""Admission control — the SaaS-layer request gate.

From the paper (§IV): "its SaaS layer contains an admission control
mechanism based on the number of requests on each application instance:
if all virtualized application instances have k requests in their
queues, new requests are rejected, because they are likely to violate
``Ts``.  Accepted requests are forwarded to the provider's PaaS layer."

Because ``k = ⌊Ts/Tr⌋`` (Eq. 1), an accepted request waits behind at
most ``k − 1`` others and therefore completes within ``Ts`` in
expectation — "requests are either rejected or served in a time
acceptable by clients".

:class:`AdmissionControl` is the front door of the whole deployment:
every arrival passes through :meth:`submit`, which asks the fleet's
balancer for a non-full instance and hands the request to it, or
records a rejection.  The hop costs one frame per component — the
gate, the balancer's ``select``, the instance's ``accept`` — with the
counters bumped inline; :class:`~repro.cloud.priority.PriorityAdmissionControl`
admits through the same :meth:`submit`.
"""

from __future__ import annotations

from typing import Optional

from ..obs.bus import narrowed
from .fleet import ApplicationFleet
from .monitor import Monitor

__all__ = ["AdmissionControl"]


class AdmissionControl:
    """Queue-length-based admission gate.

    Parameters
    ----------
    fleet:
        The application fleet requests are dispatched into.
    monitor:
        Monitoring sink: arrivals go to its rate sampler, acceptances
        and rejections straight to its metrics collector.
    count_arrivals:
        When true, every arrival is also reported to the monitor's
        rate sampler (needed by reactive predictors; costs one method
        call per request, a frame the paper's Adaptive policy, which
        predicts from the workload model, does without).
    tracer:
        Optional :class:`repro.obs.bus.TraceBus`.  When set, every
        submission emits ``request.admitted`` / ``request.rejected``
        and every accept↔reject transition emits ``admission.state`` —
        the paper's "all instances hold k" condition becoming
        observable as discrete gate flips.  When ``None`` (default)
        the hot path is exactly the untraced code.
    """

    __slots__ = (
        "_active",
        "_select",
        "_monitor",
        "_metrics",
        "_count_arrivals",
        "_tracer",
        "_request_tracer",
        "_accepting",
    )

    def __init__(
        self,
        fleet: ApplicationFleet,
        monitor: Monitor,
        count_arrivals: bool = False,
        tracer: Optional["object"] = None,
    ) -> None:
        # The fleet's live ACTIVE list and its balancer's rule, bound once.
        self._active = fleet.active_instances
        self._select = fleet.balancer.select
        self._monitor = monitor
        self._metrics = monitor._metrics
        self._count_arrivals = bool(count_arrivals)
        self._tracer = narrowed(tracer, "admission.state")
        self._request_tracer = narrowed(tracer, "request.admitted", "request.rejected")
        self._accepting: Optional[bool] = None

    def submit(self, arrival_time: float) -> bool:
        """Admit (and dispatch) or reject one request.

        Returns ``True`` when the request was accepted.
        """
        if self._count_arrivals:
            self._monitor.record_arrival()
        inst = self._select(self._active)
        accepted = inst is not None
        if accepted:
            inst.accept(arrival_time)
        if self._tracer is not None and accepted is not self._accepting:
            self._accepting = accepted
            self._tracer.emit("admission.state", arrival_time, accepting=accepted)
        if self._request_tracer is not None:
            self._request_tracer.emit(
                "request.admitted" if accepted else "request.rejected", arrival_time
            )
        if accepted:
            self._metrics.accepted += 1
            return True
        self._metrics.rejected += 1
        return False
