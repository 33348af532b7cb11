"""Structure-of-arrays batch kernel for the vectorized DES data plane.

The scalar engine dispatches one Python event per arrival and per
completion — ~2.8 M events/s on a 1-core Xeon, which is what kept
the full-scale (scale ≥ 1 M) cells of ``campaigns/paper.toml`` on the
fluid twin.  This module is the array core of the ``des-vec`` backend:
per-instance queue state lives in flat numpy arrays (a *structure of
arrays*), the arrivals between two engine events are dispatched in one
pass, and service completions are computed with the Lindley recursion
instead of one heap round-trip each.

The kernel knows nothing about VMs, monitors, or control planes — it is
plain queueing arithmetic over ``(svc_end, queue, qlen)`` state.  The
lifecycle/bookkeeping half of the vectorized data plane lives in
:class:`repro.cloud.vecfleet.VectorFleet`, which calls into this module
between control-plane epochs; the scalar engine remains the reference
implementation that ``tests/test_batch_engine.py`` compares against
bit for bit.

Exactness invariants (documented in ``docs/performance.md``):

* **Lindley chaining** — a queued request starts at
  ``max(previous departure, its arrival)``, so departure times are
  independent of *when* the kernel materializes them.  Splitting a
  span at any point and recomputing yields bitwise-identical departures.
* **One cyclic pass** — while no arrival finds its station full, the
  round-robin balancer's pointer walk *is* cyclic dispatch, and an
  arrival finds its station full iff the request ``capacity`` places
  ahead of it on that station departs after it arrives.
  :meth:`SoAQueues.assign` lays a whole span out cyclically and checks
  that with one vectorised compare; :meth:`SoAQueues.drain` commits the
  prefix before the first full station.
* **One arithmetic, two granularities** — :class:`EventState` (and
  its one-piece form :func:`event_span`) replays a span arrival by
  arrival over plain floats with the very operations
  the one-pass kernel applies to arrays (``arr + svc`` at an idle
  start, ``max(dep, head_arr) + head_svc`` behind a busy one), so
  the two leave bitwise-identical departures behind and a span may be
  handed from one to the other at any arrival.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from heapq import heapify, heappop, heappush
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "EventSpan",
    "EventState",
    "SoAQueues",
    "SpanPlan",
    "event_span",
    "one_pass_span",
    "fifo_departures_grouped",
    "round_robin_departures",
]


def fifo_departures_grouped(
    arrivals: np.ndarray,
    services: np.ndarray,
    ready: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Departure times of FIFO servers, vectorized Lindley recursion.

    Each row of the ``(stations, n)`` matrices is one server's sorted
    request sequence, and ``dep[i] = max(arrivals[i], dep[i-1]) +
    services[i]`` along it is computed without a Python loop: with
    ``C = cumsum(services)`` the recursion unrolls to
    ``dep = C + running_max(arrivals - C_shifted)``, a cumulative sum
    plus a cumulative maximum.  ``ready`` optionally gives each
    server's free-up time from earlier work (the in-service request's
    departure); by default every server starts idle.
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    services = np.asarray(services, dtype=np.float64)
    if arrivals.shape != services.shape or arrivals.ndim != 2:
        raise ConfigurationError(
            f"expected matching 2-D arrays, got {arrivals.shape} vs {services.shape}"
        )
    if arrivals.shape[1] == 0:
        return np.empty_like(arrivals)
    totals = np.cumsum(services, axis=1)
    floors = np.empty_like(totals)
    if ready is None:
        floors[:, 0] = arrivals[:, 0]
    else:
        floors[:, 0] = np.maximum(arrivals[:, 0], ready)
    floors[:, 1:] = arrivals[:, 1:] - totals[:, :-1]
    return totals + np.maximum.accumulate(floors, axis=1)


def round_robin_departures(
    arrivals: np.ndarray, services: np.ndarray, stations: int
) -> np.ndarray:
    """Departures of a sorted arrival stream dispatched round-robin.

    Arrival ``i`` goes to station ``i mod stations``; each station is an
    unbounded FIFO server.  One reshape turns the stream into per-station
    rows, one grouped Lindley pass computes every departure — this is
    the 50 k-request kernel benchmark that replaces 100 k scalar engine
    events with a handful of array operations.

    Returns the departure times in arrival order.
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    services = np.asarray(services, dtype=np.float64)
    if stations < 1:
        raise ConfigurationError(f"stations must be >= 1, got {stations}")
    n = arrivals.size
    if n == 0:
        return np.empty(0)
    m = int(stations)
    rounds = -(-n // m)
    # Pad the final round with never-arriving requests; padded entries
    # sit at each station's tail, so the running max never leaks them
    # into real departures.
    a2 = np.full(rounds * m, np.inf)
    s2 = np.zeros(rounds * m)
    a2[:n] = arrivals
    s2[:n] = services
    dep = fifo_departures_grouped(
        a2.reshape(rounds, m).T, s2.reshape(rounds, m).T
    )
    return dep.T.ravel()[:n]


class SpanPlan(NamedTuple):
    """One span laid out by :meth:`SoAQueues.assign`.

    The matrices are ``(places, stations)``: column ``c`` is station
    ``stations[c]``'s FIFO order.  Places ``[first[c], capacity)`` hold
    the requests already on board, in-service one first; place
    ``capacity + r`` holds the station's arrival of dispatch round
    ``r``.  Padding is NaN before a station's requests and ``inf``
    after them (``svc = 0``), so the admitted requests are
    exactly the finite ``dep`` entries.
    """

    #: Station slots: the dispatch stations in dispatch order, then the
    #: drain-only ones.
    stations: np.ndarray
    #: How many leading ``stations`` take arrivals.
    na: int
    #: Place of each station's first request on board.
    first: np.ndarray
    #: Arrival times.
    arr: np.ndarray
    #: Service times (an in-service request's own at its place, where
    #: the Lindley pass read 0: its departure is ``svc_end``).
    svc: np.ndarray
    #: Departure times.
    dep: np.ndarray
    #: Leading arrivals that found their station not full; the later
    #: ones depart at ``inf`` (not admitted).
    clean: int


class SoAQueues:
    """Structure-of-arrays state for a set of capacity-bounded stations.

    Each station is one application instance: a single server with a
    FIFO queue of at most ``capacity − 1`` waiting requests (the
    in-service request is the ``capacity``-th).  State per station slot:

    * ``svc_end[i]`` — departure time of the in-service request
      (``inf`` when idle);
    * ``cur_arr[i]`` / ``cur_svc[i]`` — arrival and service time of the
      in-service request;
    * ``q_arr[i]`` / ``q_svc[i]`` / ``qlen[i]`` — the waiting queue,
      right-aligned: its ``qlen`` requests fill the last slots of the
      row and the slots before hold NaN / ``0.0``.

    Every station serves at unit speed: ``des-vec`` runs no policy that
    resizes an instance (vertical scaling is ``des``-only).

    Slots are allocated monotonically (:meth:`alloc`) so the slot index
    doubles as the instance id, identical to the scalar fleet's
    creation-order numbering.
    """

    __slots__ = (
        "capacity",
        "svc_end",
        "cur_arr",
        "cur_svc",
        "qlen",
        "q_arr",
        "q_svc",
        "allocated",
    )

    def __init__(self, capacity: int, initial_slots: int = 64) -> None:
        if capacity < 1:
            raise ConfigurationError(f"queue capacity k must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        n = max(int(initial_slots), 1)
        width = max(self.capacity - 1, 1)
        self.svc_end = np.full(n, np.inf)
        self.cur_arr = np.zeros(n)
        self.cur_svc = np.zeros(n)
        self.qlen = np.zeros(n, dtype=np.intp)
        self.q_arr = np.full((n, width), np.nan)
        self.q_svc = np.zeros((n, width))
        self.allocated = 0

    # ------------------------------------------------------------------
    # slot management
    # ------------------------------------------------------------------
    def alloc(self) -> int:
        """Allocate a fresh idle slot; returns its index."""
        idx = self.allocated
        if idx >= self.svc_end.size:
            self._grow()
        self.svc_end[idx] = np.inf
        self.qlen[idx] = 0
        self.allocated = idx + 1
        return idx

    def _grow(self) -> None:
        n = self.svc_end.size
        self.svc_end = np.concatenate((self.svc_end, np.full(n, np.inf)))
        self.cur_arr = np.concatenate((self.cur_arr, np.zeros(n)))
        self.cur_svc = np.concatenate((self.cur_svc, np.zeros(n)))
        self.qlen = np.concatenate((self.qlen, np.zeros(n, dtype=np.intp)))
        width = self.q_arr.shape[1]
        self.q_arr = np.concatenate((self.q_arr, np.full((n, width), np.nan)))
        self.q_svc = np.concatenate((self.q_svc, np.zeros((n, width))))

    def clear(self, idx: int) -> int:
        """Reset one slot to idle; returns the occupancy it released."""
        released = int(self.qlen[idx]) + int(self.svc_end[idx] != np.inf)
        self.svc_end[idx] = np.inf
        self.qlen[idx] = 0
        self.q_arr[idx] = np.nan
        self.q_svc[idx] = 0.0
        return released

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def occupancy(self, stations: np.ndarray) -> np.ndarray:
        """Requests on board (in service + queued) per station."""
        return self.qlen[stations] + (self.svc_end[stations] != np.inf)

    # ------------------------------------------------------------------
    # the one-pass span kernel
    # ------------------------------------------------------------------
    def assign(
        self, stations: np.ndarray, na: int, arrivals: np.ndarray, services: np.ndarray
    ) -> SpanPlan:
        """Lay a span out as one cyclic round-robin dispatch.

        Arrival ``j`` goes to ``stations[j % na]``, behind the requests
        already on board that station; stations past the first ``na``
        take no arrivals, only complete.  Every departure follows from
        the Lindley recursion ``max(previous departure, arrival) +
        service``, one place of the FIFO order at a time across all
        stations; the in-service request keeps its ``svc_end``.
        Nothing is written back: :meth:`drain` commits the plan.

        An arrival found its station full iff the request ``capacity``
        places ahead of it on that station departs after it arrives;
        :attr:`SpanPlan.clean` counts the arrivals before the first such
        one, the prefix a round-robin balancer dispatches exactly so.
        """
        ns, m, k = stations.size, arrivals.size, self.capacity
        rounds = -(-m // na) if na else 0
        end = self.svc_end[stations]
        qlen = self.qlen[stations]
        busy = np.flatnonzero(end != np.inf)
        first = k - qlen
        first[busy] -= 1
        # Places [first, k) hold the requests on board: the in-service
        # one as arrival svc_end with no work (so its departure is
        # svc_end exactly), then the queue.  Earlier places are NaN
        # padding, which fmax skips and no comparison counts.
        arr = np.full((k + rounds, ns), np.nan)
        svc = np.zeros((k + rounds, ns))
        if k > 1:
            arr[1:k] = self.q_arr[stations].T
            svc[1:k] = self.q_svc[stations].T
        head = first[busy] * ns + busy
        arr.put(head, end[busy])
        if rounds:
            arr[k:] = np.inf
            block = np.full(rounds * na, np.inf)
            block[:m] = arrivals
            arr[k:, :na] = block.reshape(rounds, na)
            block[:m] = services
            svc[k:, :na] = block.reshape(rounds, na)
        dep = arr + svc
        prev = dep[0]
        for d, a, s in zip(dep[1:], arr[1:], svc[1:]):
            np.fmax(prev, a, out=d)
            d += s
            prev = d
        # The in-service places now carry that request's own arrival and
        # service, which drain hands on and reports.
        on = stations[busy]
        arr.put(head, self.cur_arr[on])
        svc.put(head, self.cur_svc[on])
        clean = m if na else 0
        if rounds:
            full = (dep[:rounds] > arr[k:]).ravel()
            at = int(full.argmax())
            if full[at]:
                r, c = divmod(at, ns)
                clean = r * na + c
                # Arrivals from the first full station on stay out.
                dep[k + r, c:na] = np.inf
                dep[k + r + 1 :] = np.inf
        return SpanPlan(stations, na, first, arr, svc, dep, clean)

    def drain(
        self, plan: SpanPlan, t: float, strict: bool = False
    ) -> Tuple[Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]], List[Tuple[float, int]]]:
        """Commit ``plan``'s clean prefix, completing what is due by ``t``.

        The requests on board plus the first ``plan.clean`` arrivals are
        admitted; those departing by ``t`` (before ``t`` when ``strict``
        — at control epochs the scalar engine fires same-instant
        completions *after* the control event) complete, and the rest
        become each station's in-service request and queue.

        Returns ``(completions, emptied)`` as :class:`EventSpan` does:
        ``(departures, arrivals, services)`` of the completed
        requests (``None`` when none), and ``(departure, station)`` of
        every drain-only station that emptied.
        """
        stations, na, first, arr, svc, dep, _ = plan
        k, ns = self.capacity, stations.size
        done = (dep < t) if strict else (dep <= t)
        n_done = done.sum(axis=0)
        head = first + n_done
        # One past each station's last admitted request.
        end = first + np.isfinite(dep).sum(axis=0)
        left = end - head
        on = np.flatnonzero(left)
        at = head[on] * ns + on
        busy = stations[on]
        self.svc_end[stations] = np.inf
        self.svc_end[busy] = dep.take(at)
        self.cur_arr[busy] = arr.take(at)
        self.cur_svc[busy] = svc.take(at)
        self.qlen[stations] = np.maximum(left - 1, 0)
        if k > 1:
            # The queue is places (head, end), right-aligned.
            places = end + np.arange(1 - k, 0)[:, None]
            queued = places > head
            at = places * ns + np.arange(ns)
            self.q_arr[stations] = np.where(queued, arr.take(at), np.nan).T
            self.q_svc[stations] = np.where(queued, svc.take(at), 0.0).T
        completions = None
        if done.any():
            completions = (dep[done], arr[done], svc[done])
        emptied: List[Tuple[float, int]] = []
        if na < stations.size:
            gone = np.flatnonzero((left[na:] == 0) & (n_done[na:] > 0)) + na
            emptied = [(float(dep[k - 1, c]), int(stations[c])) for c in gone.tolist()]
        return completions, emptied

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SoAQueues k={self.capacity} slots={self.allocated}/"
            f"{self.svc_end.size}>"
        )


class EventSpan(NamedTuple):
    """What :func:`event_span` (or :func:`one_pass_span`) did to one span of arrivals."""

    #: Index of the first arrival not consumed: the first at or after
    #: the span end, or the one :func:`one_pass_span` stopped at.
    stop: int
    #: Round-robin pointer (a position in the dispatch order) afterwards.
    rr: int
    #: ``(i, j)`` index ranges of rejected arrivals, in time order and
    #: never adjacent; every other arrival in ``[start, stop)`` was admitted.
    rejected: List[Tuple[int, int]]
    #: ``(departures, arrivals, services)`` of the completed requests,
    #: or ``None`` when nothing completed.
    completions: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]
    #: ``(departure, station)`` of every drain-only station that emptied.
    emptied: List[Tuple[float, int]]
    #: Leading arrivals that went straight to the pointer's station:
    #: the prefix of the span a cyclic one-pass dispatch places.
    clean: int


class EventState:
    """The event path's view of a set of stations, as plain Python floats.

    The state of the ``dispatch`` and ``drain_only`` stations is read
    out of ``soa`` once, when the object is built; :meth:`run` admits
    arrivals against it one at a time, as often as the caller likes, and
    :meth:`store` writes it back once.  Nothing else may touch those
    stations of ``soa`` between the load and the store.

    * a heap of ``(svc_end, position)`` completes what is due before
      each arrival;
    * ``free`` is the sorted list of the dispatch positions that are not
      full, so "all full?" is ``not free`` and the round-robin walk to
      the first non-full station at or after the pointer is one
      ``bisect``;
    * ``drain_only`` stations only complete, never admit.
    """

    __slots__ = (
        "soa",
        "idx",
        "na",
        "stations",
        "end",
        "cur_arr",
        "cur_svc",
        "qa",
        "qs",
        "occ",
        "free",
        "heap",
    )

    def __init__(self, soa: SoAQueues, dispatch: Sequence[int], drain_only: Sequence[int]) -> None:
        k = soa.capacity
        self.soa = soa
        self.na = len(dispatch)
        self.idx = idx = np.concatenate((dispatch, drain_only)).astype(np.intp, copy=False)
        self.stations = idx.tolist()
        inf = math.inf
        self.end = end = soa.svc_end[idx].tolist()
        self.cur_arr = soa.cur_arr[idx].tolist()
        self.cur_svc = soa.cur_svc[idx].tolist()
        qlen = soa.qlen[idx].tolist()
        self.qa = [row[len(row) - n :] for row, n in zip(soa.q_arr[idx].tolist(), qlen)]
        self.qs = [row[len(row) - n :] for row, n in zip(soa.q_svc[idx].tolist(), qlen)]
        self.occ = occ = [n + (e != inf) for n, e in zip(qlen, end)]
        self.free = [p for p in range(self.na) if occ[p] < k]
        self.heap = heap = [(e, p) for p, e in enumerate(end) if e != inf]
        heapify(heap)

    def run(
        self,
        times: np.ndarray,
        services: np.ndarray,
        start: int,
        t_end: float,
        strict: bool,
        rr: int,
    ) -> EventSpan:
        """Admit ``times[start:]`` up to ``t_end`` one arrival at a time.

        * an arrival goes to the first non-full station of ``dispatch``
          at or after position ``rr``, cyclically (the round-robin
          balancer's walk), and the pointer moves past it;
        * while every dispatch station is full, arrivals are rejected in
          bulk up to the next completion with one bisection;
        * completions are those with ``svc_end <= t_end`` — ``< t_end``
          when ``strict``.
        """
        k, na, stations = self.soa.capacity, self.na, self.stations
        end, cur_arr, cur_svc = self.end, self.cur_arr, self.cur_svc
        qa, qs, occ, free, heap = self.qa, self.qs, self.occ, self.free, self.heap
        inf = math.inf
        stop = int(np.searchsorted(times, t_end, side="left"))
        tl = times[start:stop].tolist()
        sl = services[start:stop].tolist()
        n = len(tl)
        # The last drain bound: "< t_end" is "<= the float just below t_end".
        t_last = math.nextafter(t_end, -inf) if strict else t_end
        done_rows: List[float] = []  # (done, arrival, service) per completion
        push, pop = heappush, heappop
        emptied: List[Tuple[float, int]] = []
        rejected: List[Tuple[int, int]] = []
        clean = None
        i = 0
        while True:
            t = tl[i] if i < n else t_last
            while heap and heap[0][0] <= t:
                done, p = pop(heap)
                done_rows += (done, cur_arr[p], cur_svc[p])
                if occ[p] == k and p < na:
                    insort(free, p)
                occ[p] -= 1
                q = qa[p]
                if q:
                    a = q.pop(0)
                    s = qs[p].pop(0)
                    cur_arr[p] = a
                    cur_svc[p] = s
                    e = (done if done > a else a) + s
                    end[p] = e
                    push(heap, (e, p))
                else:
                    end[p] = inf
                    if p >= na:
                        emptied.append((done, stations[p]))
            if i == n:
                break
            if not free:
                # The paper's rejection condition: reject in bulk up to the
                # next completion (all of the span when nothing can admit).
                j = bisect_left(tl, heap[0][0], i) if heap and na else n
                if rejected and rejected[-1][1] == start + i:
                    rejected[-1] = (rejected[-1][0], start + j)
                else:
                    rejected.append((start + i, start + j))
                if clean is None:
                    clean = i
                i = j
                continue
            f = bisect_left(free, rr)
            if f == len(free):
                f = 0
            p = free[f]
            if p != rr and clean is None:
                clean = i
            o = occ[p]
            if o == 0:
                s = sl[i]
                cur_arr[p] = t
                cur_svc[p] = s
                e = t + s
                end[p] = e
                push(heap, (e, p))
            else:
                qa[p].append(t)
                qs[p].append(sl[i])
            o += 1
            occ[p] = o
            if o == k:
                del free[f]
            rr = p + 1 if p + 1 < na else 0
            i += 1
        completions = tuple(np.array(done_rows).reshape(-1, 3).T) if done_rows else None
        return EventSpan(start + n, rr, rejected, completions, emptied, n if clean is None else clean)

    def store(self) -> None:
        """Write the state back into the ``SoAQueues`` it was read from."""
        if not self.stations:
            return
        soa, idx, qa, k = self.soa, self.idx, self.qa, self.soa.capacity
        soa.svc_end[idx] = self.end
        soa.cur_arr[idx] = self.cur_arr
        soa.cur_svc[idx] = self.cur_svc
        soa.qlen[idx] = [len(q) for q in qa]
        if k > 1:
            nan = [math.nan] * (k - 1)
            zero = [0.0] * (k - 1)
            soa.q_arr[idx] = [nan[len(q) :] + q for q in qa]
            soa.q_svc[idx] = [zero[len(q) :] + q for q in self.qs]


def event_span(
    soa: SoAQueues,
    dispatch: Sequence[int],
    drain_only: Sequence[int],
    times: np.ndarray,
    services: np.ndarray,
    start: int,
    t_end: float,
    strict: bool,
    rr: int,
) -> EventSpan:
    """Admit ``times[start:]`` up to ``t_end`` one arrival at a time.

    The event-granular twin of the one-pass kernel, for spans where
    arrivals find full stations: :class:`EventState` loaded from
    ``soa``, run over the span (see :meth:`EventState.run`), and stored
    back.
    """
    state = EventState(soa, dispatch, drain_only)
    span = state.run(times, services, start, t_end, strict, rr)
    state.store()
    return span


def one_pass_span(
    soa: SoAQueues,
    dispatch: np.ndarray,
    drain_only: np.ndarray,
    times: np.ndarray,
    services: np.ndarray,
    start: int,
    t_end: float,
    strict: bool,
    rr: int,
) -> EventSpan:
    """:func:`event_span`'s result up to the first arrival that meets a
    full station, computed as one cyclic dispatch pass.

    Same arguments as :func:`event_span`.  The span is laid out
    cyclically from position ``rr`` (:meth:`SoAQueues.assign`); when no
    arrival meets a full station that is the whole span, committed with
    the completions due by ``t_end``, and the result is
    :func:`event_span`'s bit for bit.  Otherwise the prefix before the
    first such arrival is committed with the completions due by its
    arrival, and ``stop`` is that arrival: :func:`event_span` from
    ``stop`` with the returned pointer finishes the span exactly as it
    would have run it whole.
    """
    stop = int(np.searchsorted(times, t_end, side="left"))
    na = dispatch.size
    plan = soa.assign(
        np.concatenate((dispatch[rr:], dispatch[:rr], drain_only)),
        na,
        times[start:stop],
        services[start:stop],
    )
    clean = plan.clean
    if na:
        rr = (rr + clean) % na
    if start + clean == stop:
        completions, emptied = soa.drain(plan, t_end, strict)
    else:
        completions, emptied = soa.drain(plan, float(times[start + clean]))
    return EventSpan(start + clean, rr, [], completions, emptied, clean)
