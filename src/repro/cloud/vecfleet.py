"""Vectorized application fleet — the batched DES data plane.

:class:`VectorFleet` is the second data plane of the one instance
lifecycle, :class:`~repro.cloud.fleet.FleetLifecycle` (revive-first
growth, cancel-booting / idle-first / graceful-drain shrink, crashes).
Its members are station indices into the structure-of-arrays kernel in
:mod:`repro.sim.batch`, and its per-request hot loop runs there, with
round-robin dispatch, instead of one engine event per arrival and
completion as on :class:`~repro.cloud.fleet.ApplicationFleet`.

Epoch model
-----------
The ``des-vec`` backend drives the fleet with an *epoch loop*: before
every engine event (control alerts, Algorithm-1 decisions, VM boots,
crashes, revocations, monitor samples, metrics ticks) it calls
:meth:`advance` up to the event's timestamp.  Arrival windows are not
engine events: ``advance`` pulls every window due by then from the
:class:`~repro.cloud.broker.WorkloadSource`, in order, and consumes the
pending arrivals up to the event as one *span*.  A span ends at the
next engine event or after :data:`MAX_SPAN_WINDOWS` windows, whichever
comes first; the cap bounds the buffer when no control event comes (a
static fleet).

A span runs in *pieces* on two exact paths.  The **one-pass path**
takes the rest of the span as one cyclic round-robin dispatch from the
balancer's pointer (:meth:`SoAQueues.assign
<repro.sim.batch.SoAQueues.assign>`): every departure follows from one
Lindley pass over the stations' FIFO orders, and one vectorised compare
finds the first arrival that met a full station.  Before that arrival
the pass is exactly the scalar balancer's pointer walk, so
:meth:`~repro.sim.batch.SoAQueues.drain` commits that prefix — on a
clean span, all of it, with the completions due by the span end — and
:func:`~repro.sim.batch.one_pass_span` stops there.  The event path
then finishes that arrival's window.

The **event path** (:class:`~repro.sim.batch.EventState`) replays
arrivals one at a time over plain floats: a completion heap, a sorted
list of the dispatch stations that are not full (the balancer's pointer
walk is one ``bisect`` in it, "all full?" is an empty list), and
bisection over all-full stretches.  It reads the stations' state out of
the :class:`~repro.sim.batch.SoAQueues` at the first event-path piece
of a run of them and writes it back once, before a one-pass piece or at
the span end.  The one pass costs about eighty numpy calls whatever the
span's length; the event path about 1.1 µs per arrival on a saturated
fleet (2-vCPU Xeon).  So a piece runs straight on the event path, one
window long, when the last window with arrivals met a full station (a
saturated fleet keeps doing so), and on the one-pass path otherwise.
Both paths apply the same float operations in the same per-station
order, so the choice moves time only (the path-invariance property in
``tests/test_batch_engine.py``).

Statistics are flushed once per span: completions are sorted by
departure time and recorded through the monitor/metrics *bulk*
interfaces, whose arithmetic is documented (and tested) to be exact for
the jitterless cross-check scenarios.  Where spans end moves only the
float sums the flush accumulates (mean and spread of the response time,
busy time and, under service jitter, the ``T_m`` estimate), by rounding
only; counts, series and decisions stay equal (hypothesis property in
``tests/test_batch_engine.py``).  The trace is the one a plane with an engine event per window
writes: each ``window.generated`` comes after the admissions,
completions and drained stations of the time before its window starts.

Fidelity to the scalar fleet, and the two documented deviations:

* the service-time stream is drawn in blocks (``draw_many``) instead
  of per service *start*, so under service jitter the two backends see
  the same distribution but different per-request draws (jitterless
  runs are bit-identical);
* simultaneous events of measure zero (an arrival or completion at
  exactly a control epoch) resolve in a fixed documented order rather
  than by engine sequence number.

A crash or revocation fires at ``PRIORITY_HIGH``, after the epoch
loop's strict drain up to *now*, so a request that would complete at
the kill instant is still aboard and is lost, as on the scalar engine
(where the kill cancels the pending completion).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..metrics.collector import MetricsCollector
from ..obs.bus import narrowed
from ..sim.batch import EventState, SoAQueues, one_pass_span
from ..sim.engine import Engine
from ..workloads.base import ServiceTimeSampler
from .datacenter import Datacenter
from .fleet import FleetLifecycle
from .loadbalancer import LoadBalancer, RoundRobinBalancer
from .monitor import Monitor
from .vm import VirtualMachine

if TYPE_CHECKING:  # pragma: no cover - import-time only for annotations
    from .broker import WorkloadSource

__all__ = ["MAX_SPAN_WINDOWS", "VectorFleet"]

#: Most arrival windows one span covers.  Spans end at engine events, so
#: without this cap a policy with no control events (a static fleet)
#: would buffer the whole horizon in one span.  The web scenario's alerts
#: come every 15 windows, so its adaptive spans are never cut.
MAX_SPAN_WINDOWS = 16

class VectorFleet(FleetLifecycle):
    """The batched data plane: station-index members over one
    :class:`~repro.sim.batch.SoAQueues`.

    Parameters mirror :class:`~repro.cloud.fleet.ApplicationFleet`.
    Arrivals are counted on the monitor's arrival-rate sampler when it
    samples (``rate_sample_interval`` set), as admission control does on
    the scalar path.

    Only round-robin dispatch is implemented: a ``balancer`` argument
    must be ``None`` or a :class:`RoundRobinBalancer` (other strategies
    need the scalar backend).
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
        if balancer is not None and not isinstance(balancer, RoundRobinBalancer):
            raise ConfigurationError(
                "the vectorized fleet implements round-robin dispatch only; "
                f"use backend='des' for {type(balancer).__name__}"
            )
        self._request_tracer = narrowed(tracer, "request.admitted", "request.rejected")
        self._count_arrivals = monitor.rate_sample_interval is not None
        self._last_span_t = 0.0
        # -- station state ---------------------------------------------
        self._soa = SoAQueues(self.capacity)
        self._active_idx = np.empty(0, dtype=np.intp)
        self._draining_idx = np.empty(0, dtype=np.intp)
        self._rr = 0
        # -- arrival buffer (windows pulled from the broker) -----------
        self._source: Optional["WorkloadSource"] = None
        self._span_end = engine.now
        self._times = np.empty(0)
        self._services = np.empty(0)
        self._pos = 0
        self._accepting: Optional[bool] = None
        # -- span path (see _span) -------------------------------------
        self._event_path = False
        # -- counters --------------------------------------------------
        self.arrivals_processed = 0
        self.completions_processed = 0
        self.spans = 0
        self.event_spans = 0

    # -- lifecycle hooks (station indices are allocated monotonically and
    #    never reused, so an index is its own member id) ----------------
    def _new_member(self, vm: VirtualMachine) -> int:
        return self._soa.alloc()

    def _occupancy(self, idx: int) -> int:
        return int(self._soa.qlen[idx]) + int(self._soa.svc_end[idx] != np.inf)

    def _clear(self, idx: int) -> None:
        self._soa.clear(idx)

    def _membership_changed(self) -> None:
        n = len(self._active)
        self._rr = self._rr % n if n else 0
        self._refresh_index_cache()

    def _refresh_index_cache(self) -> None:
        self._active_idx = np.array(self._active, dtype=np.intp)
        self._draining_idx = np.array(self._draining, dtype=np.intp)

    @property
    def in_flight(self) -> int:
        """Admitted requests not yet completed across the fleet."""
        live = np.concatenate((self._active_idx, self._draining_idx))
        return int(self._soa.occupancy(live).sum())

    # ------------------------------------------------------------------
    # arrival windows (pulled from the broker)
    # ------------------------------------------------------------------
    def pull_from(self, source: "WorkloadSource") -> None:
        """Take arrival windows from ``source`` as spans need them.

        The :class:`~repro.cloud.broker.WorkloadSource` whose sink this
        fleet is calls this when it starts; it then schedules no
        generation events.
        """
        self._source = source

    @property
    def buffered(self) -> int:
        """Arrivals pulled but not yet admitted or rejected."""
        return int(self._times.size - self._pos)

    def load(self, times: np.ndarray) -> None:
        """Buffer a sorted batch of arrivals, drawing their service times
        in one block.

        Each span loads the windows it pulls as one batch; consecutive
        block draws concatenate bit for bit, so the services are those
        per-window draws would give.  Arrivals still buffered go ahead
        of the batch.  When that leaves the buffer unsorted (a workload
        whose windows overlap), a stable sort keeps the earlier of tied
        arrivals first.
        """
        times = np.asarray(times, dtype=np.float64)
        if times.size == 0:
            return
        services = self._sampler.draw_many(times.size)
        pos = self._pos
        if pos < self._times.size:
            times = np.concatenate((self._times[pos:], times))
            services = np.concatenate((self._services[pos:], services))
        if (times[1:] < times[:-1]).any():
            order = np.argsort(times, kind="stable")
            times = times[order]
            services = services[order]
        self._times = times
        self._services = services
        self._pos = 0

    # ------------------------------------------------------------------
    # the epoch hot loop
    # ------------------------------------------------------------------
    def advance(self, t_end: float) -> None:
        """Process all arrivals and completions strictly before ``t_end``.

        Called by the backend before each engine event fires; the
        strictness mirrors the scalar priority order, where a
        same-instant control event (PRIORITY_HIGH) precedes data-plane
        events.  Flushes span statistics so the event's control logic
        observes exactly the pre-epoch state.
        """
        self._advance(float(t_end), strict=True)

    def finish(self, horizon: float) -> None:
        """Close the data plane at the horizon (completions inclusive).

        Consumes the arrivals remaining after the last engine event,
        then drains completions *including* those at exactly the
        horizon — the scalar engine fires those events, while the epoch
        loop's strict drains exclude them.
        """
        self._advance(float(horizon), strict=False)

    def _advance(self, t_end: float, strict: bool) -> None:
        """Pull the windows due before ``t_end`` and run them as spans.

        One span unless more than :data:`MAX_SPAN_WINDOWS` windows are
        due: then a span ends at each further window's start, strictly,
        as an engine event there would end it.
        """
        source = self._source
        windows: List[Tuple[float, np.ndarray]] = []
        while source is not None and source.due(t_end):
            if len(windows) == MAX_SPAN_WINDOWS:
                self._span(windows, source.next_start, True)
                windows = []
            windows.append(source.pull())
        self._span(windows, t_end, strict)

    def _span(self, windows: List[Tuple[float, np.ndarray]], t_end: float, strict: bool) -> None:
        """Consume and drain one span in pieces, then post its effects.

        Each piece starts on the path :meth:`_use_event_path` picks.
        The one-pass kernel takes the rest of the span; if an arrival
        meets a full station it stops there and the event path finishes
        that arrival's window.  The event path, picked straight, takes
        one window.  Either way the next piece starts at a window start.
        Consecutive event-path pieces share one :class:`EventState`,
        stored back before a one-pass piece and at the span end.
        """
        batch = [times for _, times in windows if times.size]
        if batch:
            self.load(np.concatenate(batch) if len(batch) > 1 else batch[0])
        times, services = self._times, self._services
        soa, dispatch, drain_only = self._soa, self._active_idx, self._draining_idx
        start = pos = self._pos
        stop = int(np.searchsorted(times, t_end, side="left"))
        rr = self._rr
        t = self._span_end
        bounds = [t0 for t0, _ in windows if t < t0 < t_end]
        pieces = []
        straight = False
        state: Optional[EventState] = None
        while True:
            if self._use_event_path():
                straight = True
                b = bisect_right(bounds, t)
            else:
                if state is not None:
                    state.store()
                    state = None
                piece = one_pass_span(
                    soa, dispatch, drain_only, times, services, pos, t_end, strict, rr
                )
                pieces.append(piece)
                pos, rr = piece.stop, piece.rr
                if pos == stop:
                    break
                b = bisect_right(bounds, times[pos])
            end, end_strict = (bounds[b], True) if b < len(bounds) else (t_end, strict)
            if state is None:
                state = EventState(soa, dispatch, drain_only)
            piece = state.run(times, services, pos, end, end_strict, rr)
            pieces.append(piece)
            if piece.stop > pos:
                self._event_path = piece.clean < piece.stop - pos
            pos, rr = piece.stop, piece.rr
            if b == len(bounds):
                break
            t = end
        if state is not None:
            state.store()
        self._pos = pos
        self._rr = rr
        self._span_end = t_end
        done = [piece.completions for piece in pieces if piece.completions is not None]
        completions = None
        if done:
            completions = done[0] if len(done) == 1 else tuple(map(np.concatenate, zip(*done)))
        self._flush(
            t_end,
            straight,
            start,
            pos,
            [r for piece in pieces for r in piece.rejected],
            completions,
            [e for piece in pieces for e in piece.emptied],
            windows,
        )

    def _use_event_path(self) -> bool:
        """Whether the next piece of a span runs straight on the
        event-granular path: the last window with arrivals met a full
        station."""
        return self._event_path

    def _flush(
        self,
        t_end: float,
        straight: bool,
        start: int,
        stop: int,
        rejected: List[Tuple[int, int]],
        completions: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]],
        emptied: List[Tuple[float, int]],
        windows: List[Tuple[float, np.ndarray]],
    ) -> None:
        """Post one span's effects in deterministic order.

        Statistics are recorded once for the span.  The trace and the
        drained stations' destruction follow the windows, as on a plane
        with one engine event per window: the admissions, completions
        and drained stations of the time before each window start, then
        its ``window.generated``.  A window due at exactly ``t_end``
        closes the span.
        """
        monitor = self._monitor
        arrivals = stop - start
        n_rejected = sum(hi - lo for lo, hi in rejected)
        completed = 0
        if completions is not None:
            dep, arr, svc = completions
            order = np.lexsort((arr, dep))
            dep = dep[order]
            svc = svc[order]
            resp = dep - arr[order]
            completed = int(dep.size)
            self.completions_processed += completed
            monitor.record_responses(resp, svc)
        if arrivals:
            self.arrivals_processed += arrivals
            if self._count_arrivals:
                monitor.record_arrivals(arrivals)
            if arrivals > n_rejected:
                self._metrics.record_acceptances(arrivals - n_rejected)
            if n_rejected:
                self._metrics.record_rejections(n_rejected)
        tracer = self._tracer
        runs: List[Tuple[int, int, bool]] = []
        if tracer is not None:
            i = start
            for lo, hi in rejected:
                runs += [(i, lo, True), (lo, hi, False)]
                i = hi
            runs.append((i, stop, True))
        emptied.sort()
        inside = bisect_left([t0 for t0, _ in windows], t_end)
        i = start  # next arrival to trace
        c = 0  # next completion to trace
        e = 0  # next drained station to destroy
        for t0, times in windows[:inside] + [(t_end, None)]:
            last = times is None
            if tracer is not None:
                j = stop if last else int(np.searchsorted(self._times, t0, side="left"))
                j = min(max(j, i), stop)
                self._trace_admissions(runs, i, j)
                i = j
                if completed:
                    k = completed if last else int(np.searchsorted(dep, t0, side="left"))
                    monitor.trace_completions(resp[c:k], svc[c:k], dep[c:k])
                    c = k
            while e < len(emptied) and (last or emptied[e][0] < t0):
                t_done, idx = emptied[e]
                self._retire_drained(idx, t_done)
                e += 1
            if tracer is not None and not last:
                tracer.emit("window.generated", t0, t0=t0, arrivals=int(times.size))
        if emptied:
            self._refresh_index_cache()
        if arrivals or completed:
            if tracer is not None:
                tracer.emit(
                    "batch.span",
                    t_end,
                    arrivals=arrivals,
                    completions=completed,
                    rejected=n_rejected,
                    stations=len(self._active),
                    width=t_end - self._last_span_t,
                )
            self.spans += 1
            if straight:
                self.event_spans += 1
            self._last_span_t = t_end
        if tracer is not None:
            for t0, times in windows[inside:]:
                tracer.emit("window.generated", t0, t0=t0, arrivals=int(times.size))

    def _trace_admissions(self, runs: List[Tuple[int, int, bool]], i: int, j: int) -> None:
        """Trace the admission (or rejection) of buffered arrivals
        ``[i, j)``, with an ``admission.state`` event when the gate
        flips; ``runs`` are the span's ``(lo, hi, admitted)`` ranges."""
        times = self._times
        requests = self._request_tracer
        for lo, hi, admitted in runs:
            lo, hi = max(lo, i), min(hi, j)
            if lo >= hi:
                continue
            if self._accepting is not admitted:
                self._accepting = admitted
                self._tracer.emit("admission.state", float(times[lo]), accepting=admitted)
            if requests is not None:
                kind = "request.admitted" if admitted else "request.rejected"
                for t in times[lo:hi].tolist():
                    requests.emit(kind, t)
