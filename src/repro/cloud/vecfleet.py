"""Vectorized application fleet — the batched DES data plane.

:class:`VectorFleet` is the array twin of
:class:`~repro.cloud.fleet.ApplicationFleet`: same instance lifecycle
(revive-first growth, cancel-booting / idle-first / graceful-drain
shrink, round-robin dispatch), but the per-request hot loop runs on the
structure-of-arrays kernel in :mod:`repro.sim.batch` instead of one
engine event per arrival and completion.

Epoch model
-----------
The ``des-vec`` backend drives the fleet with an *epoch loop*: before
every engine event (control alerts, Algorithm-1 decisions, VM boots,
monitor samples) it calls :meth:`advance` up to the event's timestamp.
``advance`` consumes the pending arrivals of that *span* on one of two
exact paths.

The **one-pass path** lays the span out as one cyclic round-robin
dispatch from the balancer's pointer (:meth:`SoAQueues.assign
<repro.sim.batch.SoAQueues.assign>`): every departure follows from one
Lindley pass over the stations' FIFO orders, and one vectorised compare
finds the first arrival that met a full station.  Before that arrival
the pass is exactly the scalar balancer's pointer walk, so
:meth:`~repro.sim.batch.SoAQueues.drain` commits that prefix — on a
clean span, all of it, with the completions due by the span end.  The
rest of a span that met a full station goes to the event path.

The **event path** (:func:`~repro.sim.batch.event_span`) replays the
span one arrival at a time over plain floats: a completion heap, a live
count of full stations, bisection over all-full stretches, and the
balancer's pointer walk.  The one pass costs about eighty numpy calls
whatever the span's length; the event path a few microseconds per
arrival whatever the load.  A span runs straight on the event path when
the previous span with arrivals met a full station (a saturated fleet
keeps doing so), and on the one-pass path otherwise.  Both paths apply
the same float operations in the same per-station order, so the choice
moves time only (the path-invariance property in
``tests/test_batch_engine.py``).

Statistics are flushed once per ``advance`` span: completions are
sorted by departure time and recorded through the monitor/metrics
*bulk* interfaces, whose arithmetic is documented (and tested) to be
exact for the jitterless cross-check scenarios.  Because span
boundaries are engine events, every recorded quantity is invariant to
the span path (hypothesis properties in ``tests/test_batch_engine.py``).

Fidelity to the scalar fleet, and the two documented deviations:

* the service-time stream is drawn per *window* (``draw_many``) instead
  of per service *start*, so under service jitter the two backends see
  the same distribution but different per-request draws (jitterless
  runs are bit-identical);
* simultaneous events of measure zero (an arrival or completion at
  exactly a control epoch) resolve in a fixed documented order rather
  than by engine sequence number.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..errors import ConfigurationError, PlacementError
from ..metrics.collector import MetricsCollector
from ..obs.bus import narrowed
from ..sim.batch import EventSpan, SoAQueues, event_span, one_pass_span
from ..sim.engine import Engine
from ..workloads.base import ServiceTimeSampler
from .datacenter import Datacenter
from .loadbalancer import LoadBalancer, RoundRobinBalancer
from .monitor import Monitor
from .vm import DEFAULT_VM_SPEC, VirtualMachine, VMSpec

__all__ = ["VectorFleet"]

class VectorFleet:
    """Array-backed instance fleet satisfying the FleetActuator protocol.

    Parameters mirror :class:`~repro.cloud.fleet.ApplicationFleet`;
    additionally ``count_arrivals`` enables the monitor's arrival-rate
    counter.

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
        vm_spec: VMSpec = DEFAULT_VM_SPEC,
        boot_delay: float = 0.0,
        tracer: Optional[object] = None,
        count_arrivals: bool = False,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(f"queue capacity k must be >= 1, got {capacity}")
        if boot_delay < 0.0:
            raise ConfigurationError(f"boot delay must be >= 0, got {boot_delay}")
        if balancer is not None and not isinstance(balancer, RoundRobinBalancer):
            raise ConfigurationError(
                "the vectorized fleet implements round-robin dispatch only; "
                f"use backend='des' for {type(balancer).__name__}"
            )
        self._engine = engine
        self._datacenter = datacenter
        self._sampler = sampler
        self._monitor = monitor
        self._metrics = metrics
        self.capacity = int(capacity)
        self.vm_spec = vm_spec
        self.boot_delay = float(boot_delay)
        self._tracer = tracer
        self._request_tracer = narrowed(tracer, "request.admitted", "request.rejected")
        self._count_arrivals = bool(count_arrivals)
        self._last_span_t = 0.0
        # -- station state ---------------------------------------------
        self._soa = SoAQueues(self.capacity)
        self._vms: Dict[int, VirtualMachine] = {}
        self._active: List[int] = []
        self._booting: List[int] = []
        self._draining: List[int] = []
        self._active_idx = np.empty(0, dtype=np.intp)
        self._draining_idx = np.empty(0, dtype=np.intp)
        self._rr = 0
        # -- arrival buffer (the broker's sink) ------------------------
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

    def _emit_vm(self, event_type: str, idx: int, t: Optional[float] = None, **fields: object) -> None:
        """Trace one instance lifecycle transition (no-op untraced)."""
        if self._tracer is not None:
            when = self._engine.now if t is None else t
            self._tracer.emit(event_type, when, instance=idx, **fields)

    # ------------------------------------------------------------------
    # census (FleetActuator surface + scalar-fleet parity)
    # ------------------------------------------------------------------
    @property
    def active_count(self) -> int:
        """Instances currently accepting requests."""
        return len(self._active)

    @property
    def serving_count(self) -> int:
        """Instances provisioned for service (active + still booting)."""
        return len(self._active) + len(self._booting)

    @property
    def live_count(self) -> int:
        """All non-destroyed instances (includes draining)."""
        return len(self._active) + len(self._booting) + len(self._draining)

    def occupancy(self, idx: int) -> int:
        """Requests on board one station (in service + queued)."""
        return int(self._soa.qlen[idx]) + int(self._soa.svc_end[idx] != np.inf)

    @property
    def in_flight(self) -> int:
        """Admitted requests not yet completed across the fleet."""
        live = np.concatenate((self._active_idx, self._draining_idx))
        return int(self._soa.occupancy(live).sum())

    # ------------------------------------------------------------------
    # scaling (identical ordering semantics to ApplicationFleet)
    # ------------------------------------------------------------------
    def scale_to(self, target: int) -> int:
        """Adjust the serving fleet toward ``target`` instances."""
        if target < 0:
            raise ConfigurationError(f"target fleet size must be >= 0, got {target}")
        current = self.serving_count
        if target > current:
            self._grow(target - current)
        elif target < current:
            self._shrink(current - target)
        return self.serving_count

    def _grow(self, count: int) -> None:
        # 1. Revive draining instances, most recently drained first.
        while count > 0 and self._draining:
            self._active.append(self._draining.pop())
            count -= 1
        # 2. Create fresh VMs.
        while count > 0:
            if self._create_instance() is None:
                break  # quota/capacity reached; serve with what we have
            count -= 1
        self._after_membership_change()

    def _create_instance(self) -> Optional[int]:
        now = self._engine.now
        try:
            vm = self._datacenter.create_vm(now, self.vm_spec)
        except PlacementError:
            return None
        idx = self._soa.alloc()
        self._vms[idx] = vm
        if self.boot_delay > 0.0:
            self._booting.append(idx)
            self._engine.schedule(self.boot_delay, lambda i=idx: self._boot_done(i))
        else:
            vm.boot_completed()
            self._active.append(idx)
        self._emit_vm("vm.created", idx, booting=self.boot_delay > 0.0)
        return idx

    def _boot_done(self, idx: int) -> None:
        if idx not in self._booting:
            return  # cancelled while booting
        self._booting.remove(idx)
        self._vms[idx].boot_completed()
        self._active.append(idx)
        self._after_membership_change()

    def _shrink(self, count: int) -> None:
        now = self._engine.now
        # 1. Cancel instances that have not even booted yet.
        while count > 0 and self._booting:
            idx = self._booting.pop()
            self._destroy(idx, now, "cancelled")
            count -= 1
        if count <= 0:
            self._after_membership_change()
            return
        # 2. Destroy idle actives immediately.
        occ = {i: self.occupancy(i) for i in self._active}
        idle = [i for i in self._active if occ[i] == 0]
        for idx in idle[:count]:
            self._active.remove(idx)
            self._destroy(idx, now, "idle")
        count -= min(count, len(idle))
        if count <= 0:
            self._after_membership_change()
            return
        # 3. Drain the least-loaded remaining actives.
        victims = sorted(self._active, key=lambda i: (occ[i], i))[:count]
        for idx in victims:
            self._active.remove(idx)
            self._draining.append(idx)
            self._emit_vm("vm.draining", idx)
        self._after_membership_change()

    def _destroy(self, idx: int, t: float, reason: str) -> None:
        self._soa.clear(idx)
        self._datacenter.destroy_vm(self._vms.pop(idx), t)
        self._emit_vm("vm.destroyed", idx, t=t, reason=reason)

    @property
    def live_instances(self) -> List[int]:
        """Every non-destroyed station index (a fresh list).

        Scalar-fleet parity surface for the failure/revocation
        injectors: station indices are allocated monotonically and
        never reused, so index order *is* creation order — the same
        ordering the scalar fleet's ``instance_id`` carries.
        """
        return self._active + self._booting + self._draining

    def kill(self, idx: int, reason: str = "crashed") -> int:
        """Crash one station (failure/revocation); returns requests lost.

        Mirrors :meth:`ApplicationFleet.kill` exactly: queued and
        in-service requests die with the station and are recorded as
        losses, not rejections.  The injector fires at
        ``PRIORITY_HIGH``, i.e. after the epoch loop's strict drain up
        to *now* — so a request that would complete at the kill instant
        is still aboard and is lost, matching the scalar engine's
        event ordering (kill cancels the pending completion).
        """
        for bucket in (self._active, self._booting, self._draining):
            if idx in bucket:
                bucket.remove(idx)
                break
        else:
            return 0  # already destroyed
        lost = self._soa.clear(idx)
        self._datacenter.destroy_vm(self._vms.pop(idx), self._engine.now)
        self._emit_vm("vm.destroyed", idx, reason=reason, lost=lost)
        self._metrics.record_loss(lost)
        self._after_membership_change()
        return lost

    def _after_membership_change(self) -> None:
        n = len(self._active)
        self._rr = self._rr % n if n else 0
        self._refresh_index_cache()
        self._metrics.record_fleet_size(self._engine.now, self.live_count)

    def _refresh_index_cache(self) -> None:
        self._active_idx = np.array(self._active, dtype=np.intp)
        self._draining_idx = np.array(self._draining, dtype=np.intp)

    # ------------------------------------------------------------------
    # arrival sink (the broker's window hand-off)
    # ------------------------------------------------------------------
    def load(self, times: np.ndarray) -> None:
        """Buffer one window's sorted arrival batch.

        Service times are drawn here, one vectorized block per window.
        A window's batch normally drains before the next is generated;
        leftovers (a misbehaving workload model) are merged, keeping
        the buffer sorted.
        """
        times = np.asarray(times, dtype=np.float64)
        if times.size == 0:
            return
        services = self._sampler.draw_many(times.size)
        if self._pos < self._times.size:
            times = np.concatenate((self._times[self._pos :], times))
            services = np.concatenate((self._services[self._pos :], services))
            order = np.argsort(times, kind="stable")
            times = times[order]
            services = services[order]
        self._times = times
        self._services = services
        self._pos = 0

    @property
    def buffered(self) -> int:
        """Arrivals loaded but not yet admitted or rejected."""
        return int(self._times.size - self._pos)

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
        self._span(float(t_end), strict=True)

    def finish(self, horizon: float) -> None:
        """Close the data plane at the horizon (completions inclusive).

        Consumes the arrivals remaining after the last engine event,
        then drains completions *including* those at exactly the
        horizon — the scalar engine fires those events, while the epoch
        loop's strict drains exclude them.
        """
        self._span(float(horizon), strict=False)

    def _span(self, t_end: float, strict: bool) -> None:
        """Consume and drain one span, then post its effects.

        The span runs on the path the previous span with arrivals
        picked (see the module docstring); whether its own arrivals met
        a full station picks the next.
        """
        event_path = self._use_event_path()
        start = self._pos
        span = (event_span if event_path else one_pass_span)(
            self._soa,
            self._active_idx,
            self._draining_idx,
            self._times,
            self._services,
            start,
            t_end,
            strict,
            self._rr,
        )
        arrivals = span.stop - start
        if arrivals:
            self._event_path = span.clean < arrivals
        self._pos = span.stop
        self._rr = span.rr
        rejected = sum(hi - lo for lo, hi in span.rejected)
        if self._tracer is not None:
            i = start
            for lo, hi in span.rejected:
                self._trace_admissions(i, lo, True)
                self._trace_admissions(lo, hi, False)
                i = hi
            self._trace_admissions(i, span.stop, True)
        self._flush(t_end, event_path, arrivals, rejected, span)

    def _use_event_path(self) -> bool:
        """Whether the next span runs straight on the event-granular path."""
        return self._event_path

    def _trace_admissions(self, i: int, j: int, admitted: bool) -> None:
        """Trace the admission of buffered arrivals ``[i, j)`` (or their
        rejection), with an ``admission.state`` event when the gate flips."""
        if j <= i:
            return
        times = self._times
        if self._accepting is not admitted:
            self._accepting = admitted
            self._tracer.emit("admission.state", float(times[i]), accepting=admitted)
        requests = self._request_tracer
        if requests is not None:
            kind = "request.admitted" if admitted else "request.rejected"
            for t in times[i:j].tolist():
                requests.emit(kind, t)

    def _flush(
        self, t_end: float, event_path: bool, arrivals: int, rejected: int, span: EventSpan
    ) -> None:
        """Post one span's effects in deterministic order."""
        completions = 0
        if span.completions is not None:
            dep, arr, svc = span.completions
            order = np.lexsort((arr, dep))
            dep = dep[order]
            arr = arr[order]
            svc = svc[order]
            completions = int(dep.size)
            self.completions_processed += completions
            self._monitor.record_responses(dep - arr, svc, dep)
        accepted = arrivals - rejected
        if arrivals:
            self.arrivals_processed += arrivals
            if self._count_arrivals:
                self._monitor.record_arrivals(arrivals)
            if accepted:
                self._monitor.record_acceptances(accepted)
            if rejected:
                self._monitor.record_rejections(rejected)
        if span.emptied:
            for t_done, idx in sorted(span.emptied):
                self._draining.remove(idx)
                self._destroy(idx, t_done, "drained")
                self._metrics.record_fleet_size(t_done, self.live_count)
            self._refresh_index_cache()
        if arrivals or completions:
            if self._tracer is not None:
                self._tracer.emit(
                    "batch.span",
                    t_end,
                    arrivals=arrivals,
                    completions=completions,
                    rejected=rejected,
                    stations=len(self._active),
                    width=t_end - self._last_span_t,
                )
            self.spans += 1
            if event_path:
                self.event_spans += 1
            self._last_span_t = t_end

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<VectorFleet active={len(self._active)} "
            f"booting={len(self._booting)} draining={len(self._draining)} "
            f"buffered={self.buffered}>"
        )
