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
every arrival passes through :meth:`submit`, which dispatches through
the fleet's balancer or records a rejection.
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
        call per request, so benchmarks that use model-informed
        predictors leave it off).
    tracer:
        Optional :class:`repro.obs.bus.TraceBus`.  When set, every
        submission emits ``request.admitted`` / ``request.rejected``
        and every accept↔reject transition emits ``admission.state`` —
        the paper's "all instances hold k" condition becoming
        observable as discrete gate flips.  When ``None`` (default)
        the hot path is exactly the untraced code.
    """

    __slots__ = (
        "_fleet",
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
        self._fleet = fleet
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
        accepted = self._fleet.dispatch(arrival_time)
        if self._tracer is not None and accepted is not self._accepting:
            self._accepting = accepted
            self._tracer.emit("admission.state", arrival_time, accepting=accepted)
        if self._request_tracer is not None:
            self._request_tracer.emit(
                "request.admitted" if accepted else "request.rejected", arrival_time
            )
        if accepted:
            self._metrics.record_acceptance()
            return True
        self._metrics.record_rejection()
        return False
