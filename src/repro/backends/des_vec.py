"""Vectorized DES execution backend — batched event simulation.

:class:`DESVecBackend` runs the same ``(scenario, policy)`` replication
contract as :class:`~repro.backends.des.DESBackend`, with the
per-request hot loop replaced by the structure-of-arrays data plane
(:class:`~repro.cloud.vecfleet.VectorFleet` over
:mod:`repro.sim.batch`).  Python events are only materialized at
control-plane epochs — analyzer alerts, Algorithm-1 decisions, VM
boots, crashes, monitor samples, metrics ticks — where the unchanged
:mod:`repro.core.controlplane` machinery takes over.  Arrival windows
are not engine events: the fleet pulls them from the broker as it
advances, and each span of arrivals, from one engine event to the next
or over at most :data:`~repro.cloud.vecfleet.MAX_SPAN_WINDOWS` windows,
moves through numpy kernels.

The control trajectory is bit-identical to the scalar DES (the
``tests/test_batch_engine.py`` cross-checks), and on jitterless
scenarios the data plane itself is exact: accepted/rejected/completed
counts and QoS violations match the scalar engine one for one.  Under
service jitter the two backends consume the service random stream in a
different order (per-window block draws vs per-start draws), so
per-request outcomes are statistically, not pointwise, identical.
"""

from __future__ import annotations

from .base import Collected, RunState
from .des import DESBackend

__all__ = ["DESVecBackend"]


class DESVecBackend(DESBackend):
    """Batched structure-of-arrays execution of one replication.

    Wires the data plane through :func:`~repro.backends.des.build_context`
    with ``vectorized=True``, so the fleet is a
    :class:`~repro.cloud.vecfleet.VectorFleet`; everything else —
    policy, ledger, telemetry, metrics — is the scalar backend's.
    Traced runs additionally emit one ``batch.span`` summary per
    non-empty span, and the telemetry registry additionally reports
    spans and flushed requests.  ``RunMetrics.events`` counts each
    pulled window as the event it is on the scalar backend; the
    profile's ``events`` counter is the engine's own.
    """

    name = "des-vec"
    vectorized = True

    def drive(self, run: RunState) -> None:
        engine, plane, horizon = run.ctx.engine, run.ctx.fleet, run.scenario.horizon
        # Epoch loop: advance the array data plane to each engine
        # event's timestamp, then fire the event.
        while True:
            t_next = engine.peek()
            if t_next is None or t_next > horizon:
                break
            plane.advance(t_next)
            engine.step()
        plane.finish(horizon)
        engine.run(until=horizon)

    def collect(self, run: RunState) -> Collected:
        out = super().collect(run)
        engine, plane = run.ctx.engine, run.ctx.fleet
        # The backend's unit of work: epoch events plus the arrival
        # windows and the arrivals/completions the array plane absorbed
        # (the event-per-request plane fires one event per window).
        out.fields["events"] += (
            run.ctx.source.windows + plane.arrivals_processed + plane.completions_processed
        )
        counters = {
            "events": engine.events_fired,
            "arrivals": plane.arrivals_processed,
            "completions": plane.completions_processed,
            "spans": plane.spans,
            "event_spans": plane.event_spans,
        }
        flushed = plane.arrivals_processed + plane.completions_processed
        return out._replace(counters=counters, batch=(plane.spans, flushed))
