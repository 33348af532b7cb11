"""Structure-of-arrays batch kernel for the vectorized DES data plane.

The scalar engine dispatches one Python event per arrival and per
completion — ~2.8 M events/s on a 1-core Xeon, which is what kept
the full-scale (scale ≥ 1 M) cells of ``campaigns/paper.toml`` on the
fluid twin.  This module is the array core of the ``des-vec`` backend:
per-instance queue state lives in flat numpy arrays (a *structure of
arrays*), whole arrival blocks are admitted with fancy-indexed writes,
and service completions are computed with the Lindley recursion instead
of one heap round-trip each.

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
* **Bounded drain waves** — completing the head of every station and
  promoting its queue head converges in at most ``capacity`` waves,
  because chained work only comes from the ≤ ``capacity − 1`` deep
  queue.
* **Safe block length** — :func:`safe_block_length` bounds a cyclic
  round-robin block so no station ever exceeds its capacity, which is
  exactly the condition under which blocked assignment reproduces the
  scalar balancer's pointer walk (see ``VectorFleet``).
* **One arithmetic, two granularities** — :func:`event_span` replays a
  span arrival by arrival over plain floats with the very operations
  :meth:`SoAQueues.assign` / :meth:`SoAQueues.drain` apply to arrays
  (``arr + svc/speed`` at an idle start, ``max(dep, head_arr) +
  head_svc/speed`` at a promotion), so the block and event paths leave
  bitwise-identical departures behind.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from heapq import heapify, heappop, heappush
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "EventSpan",
    "SoAQueues",
    "event_span",
    "fifo_departures",
    "fifo_departures_grouped",
    "round_robin_departures",
    "safe_block_length",
]

#: A drain wave: (stations, departure_times, arrival_times,
#: effective_service_times) of the requests completed in the wave.
Wave = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def fifo_departures(
    arrivals: np.ndarray, services: np.ndarray, ready: float = -math.inf
) -> np.ndarray:
    """Departure times of one FIFO server, vectorized Lindley recursion.

    ``dep[i] = max(arrivals[i], dep[i-1]) + services[i]`` computed
    without a Python loop: with ``C = cumsum(services)`` the recursion
    unrolls to ``dep = C + running_max(arrivals - C_shifted)``, a
    cumulative sum plus a cumulative maximum.

    Parameters
    ----------
    arrivals:
        Sorted arrival times of the server's request sequence.
    services:
        Matching service times (already divided by the server speed).
    ready:
        Time the server frees up from earlier work (the in-service
        request's departure); defaults to "idle forever".
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    services = np.asarray(services, dtype=np.float64)
    if arrivals.shape != services.shape:
        raise ConfigurationError(
            f"arrivals and services must align, got {arrivals.shape} vs {services.shape}"
        )
    if arrivals.size == 0:
        return np.empty(0)
    totals = np.cumsum(services)
    floors = np.empty_like(totals)
    floors[0] = max(float(arrivals[0]), ready)
    floors[1:] = arrivals[1:] - totals[:-1]
    return totals + np.maximum.accumulate(floors)


def fifo_departures_grouped(
    arrivals: np.ndarray,
    services: np.ndarray,
    ready: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Row-wise :func:`fifo_departures` for a ``(stations, n)`` matrix.

    Each row is one server's request sequence; ``ready`` optionally
    gives each server's free-up time.  This is the grouped form the
    dispatch-group benchmarks exercise.
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


def safe_block_length(occupancies: np.ndarray, capacity: int) -> int:
    """Longest cyclic round-robin block that cannot overflow any station.

    Station ``q`` (0-based position in the dispatch cycle) receives
    arrivals ``q, q + n, q + 2n, …`` of the block; with ``occupancies[q]``
    requests already on board it can take ``capacity − occupancies[q]``
    more, i.e. the block must stop at or before index
    ``q + (capacity − occupancies[q])·n``.  The minimum over stations is
    the longest provably safe block.  Occupancies may only *decrease*
    during the block (completions), so the bound computed from a
    snapshot is conservative — and therefore exact for admission: every
    arrival in the block lands on a station that is not full at its
    assignment instant.
    """
    occ = np.asarray(occupancies)
    n = occ.size
    if n == 0:
        return 0
    return int(np.min(np.arange(n) + (capacity - occ) * n))


class SoAQueues:
    """Structure-of-arrays state for a set of capacity-bounded stations.

    Each station is one application instance: a single server with a
    FIFO queue of at most ``capacity − 1`` waiting requests (the
    in-service request is the ``capacity``-th).  State per station slot:

    * ``svc_end[i]`` — departure time of the in-service request
      (``inf`` when idle);
    * ``cur_arr[i]`` / ``cur_svc[i]`` — arrival and *effective* service
      time of the in-service request;
    * ``q_arr[i]`` / ``q_svc[i]`` / ``qlen[i]`` — the waiting queue
      (service times stored *raw*; divided by ``speed`` at service
      start, matching the scalar instance's semantics);
    * ``speed[i]`` — linear service speedup factor.

    Slots are allocated monotonically (:meth:`alloc`) so the slot index
    doubles as the instance id, identical to the scalar fleet's
    ``_next_instance_id`` numbering.
    """

    __slots__ = (
        "capacity",
        "svc_end",
        "cur_arr",
        "cur_svc",
        "speed",
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
        self.speed = np.ones(n)
        self.qlen = np.zeros(n, dtype=np.intp)
        self.q_arr = np.zeros((n, width))
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
        self.speed[idx] = 1.0
        self.allocated = idx + 1
        return idx

    def _grow(self) -> None:
        n = self.svc_end.size
        self.svc_end = np.concatenate((self.svc_end, np.full(n, np.inf)))
        self.cur_arr = np.concatenate((self.cur_arr, np.zeros(n)))
        self.cur_svc = np.concatenate((self.cur_svc, np.zeros(n)))
        self.speed = np.concatenate((self.speed, np.ones(n)))
        self.qlen = np.concatenate((self.qlen, np.zeros(n, dtype=np.intp)))
        width = self.q_arr.shape[1]
        self.q_arr = np.concatenate((self.q_arr, np.zeros((n, width))))
        self.q_svc = np.concatenate((self.q_svc, np.zeros((n, width))))

    def clear(self, idx: int) -> int:
        """Reset one slot to idle; returns the occupancy it released."""
        released = int(self.qlen[idx]) + int(self.svc_end[idx] != np.inf)
        self.svc_end[idx] = np.inf
        self.qlen[idx] = 0
        return released

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def occupancy(self, stations: np.ndarray) -> np.ndarray:
        """Requests on board (in service + queued) per station."""
        return self.qlen[stations] + (self.svc_end[stations] != np.inf)

    # ------------------------------------------------------------------
    # hot-path kernels
    # ------------------------------------------------------------------
    def assign(
        self, stations: np.ndarray, arrivals: np.ndarray, services: np.ndarray
    ) -> None:
        """One dispatch round: station ``i`` accepts request ``i``.

        ``stations`` must be distinct, non-full slots; ``services`` are
        raw draws (speed division happens at service start).  Idle
        stations start serving immediately; busy ones append to their
        queue with two fancy-indexed writes.
        """
        busy = self.svc_end[stations] != np.inf
        idle_t = stations[~busy]
        if idle_t.size:
            arr = arrivals[~busy]
            eff = services[~busy] / self.speed[idle_t]
            self.cur_arr[idle_t] = arr
            self.cur_svc[idle_t] = eff
            self.svc_end[idle_t] = arr + eff
        busy_t = stations[busy]
        if busy_t.size:
            slot = self.qlen[busy_t]
            if int(slot.max()) >= self.capacity - 1:
                raise ConfigurationError(
                    "assign() would overflow a full station; "
                    "cap blocks with safe_block_length()"
                )
            self.q_arr[busy_t, slot] = arrivals[busy]
            self.q_svc[busy_t, slot] = services[busy]
            self.qlen[busy_t] = slot + 1

    def drain(self, stations: np.ndarray, t: float, strict: bool = False) -> List[Wave]:
        """Complete everything due by ``t`` across ``stations``.

        Repeats waves of "finish the in-service request, promote the
        queue head" until nothing is due; a promoted request starts at
        ``max(completion, its arrival)`` (Lindley), so results do not
        depend on how often the caller drains.  ``strict`` excludes
        completions at exactly ``t`` — used at control-plane epochs,
        where the scalar engine fires same-instant completions *after*
        the high-priority control event.

        Returns the waves; the caller flattens and sorts them for
        deterministic downstream accounting.
        """
        waves: List[Wave] = []
        while True:
            ends = self.svc_end[stations]
            due = (ends < t) if strict else (ends <= t)
            if not due.any():
                return waves
            done = stations[due]
            dep = ends[due]
            waves.append((done, dep, self.cur_arr[done], self.cur_svc[done]))
            queued = self.qlen[done] > 0
            nxt = done[queued]
            if nxt.size:
                head_arr = self.q_arr[nxt, 0]
                head_svc = self.q_svc[nxt, 0] / self.speed[nxt]
                self.cur_arr[nxt] = head_arr
                self.cur_svc[nxt] = head_svc
                self.svc_end[nxt] = np.maximum(dep[queued], head_arr) + head_svc
                self.q_arr[nxt, :-1] = self.q_arr[nxt, 1:]
                self.q_svc[nxt, :-1] = self.q_svc[nxt, 1:]
                self.qlen[nxt] -= 1
            idle = done[~queued]
            if idle.size:
                self.svc_end[idle] = np.inf

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SoAQueues k={self.capacity} slots={self.allocated}/"
            f"{self.svc_end.size}>"
        )


class EventSpan(NamedTuple):
    """What :func:`event_span` did to one span of arrivals."""

    #: Index of the first arrival at or after the span end.
    stop: int
    #: Round-robin pointer (a position in the dispatch order) afterwards.
    rr: int
    #: ``(i, j)`` index ranges of rejected arrivals, in time order and
    #: never adjacent; every other arrival in ``[start, stop)`` was admitted.
    rejected: List[Tuple[int, int]]
    #: ``(departures, arrivals, effective_services)`` of the completed
    #: requests, or ``None`` when nothing completed.
    completions: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]
    #: ``(departure, station)`` of every drain-only station that emptied.
    emptied: List[Tuple[float, int]]
    #: Arrivals that found a dispatch station freed from full since the
    #: previous arrival, plus rejection runs: the events that end a
    #: block on the block path.
    breaks: int


def event_span(
    soa: SoAQueues,
    dispatch: Sequence[int],
    drain_set: Sequence[int],
    times: np.ndarray,
    services: np.ndarray,
    start: int,
    t_end: float,
    strict: bool,
    rr: int,
) -> EventSpan:
    """Admit ``times[start:]`` up to ``t_end`` one arrival at a time.

    The event-granular twin of blocked assign/drain waves, for spans
    where blocks would hold only a few arrivals each.  The state of the
    ``drain_set`` stations is read into plain Python floats once, a
    heap of ``(svc_end, position)`` completes what is due before each
    arrival, and the state is written back once at the end:

    * an arrival goes to the first non-full station of ``dispatch`` at
      or after position ``rr``, cyclically (the round-robin balancer's
      walk), and the pointer moves past it;
    * while every dispatch station is full (a live count, so the test
      is O(1)) arrivals are rejected in bulk up to the next completion
      with one bisection;
    * completions are those with ``svc_end <= t_end`` — ``< t_end``
      when ``strict`` — and stations of ``drain_set`` outside
      ``dispatch`` only complete, never admit.

    ``dispatch`` must be a subset of ``drain_set``; ``services`` are
    raw draws, divided by the station speed at service start.
    """
    k = soa.capacity
    na = len(dispatch)
    in_dispatch = set(dispatch)
    stations = list(dispatch) + [int(s) for s in drain_set if s not in in_dispatch]
    idx = np.array(stations, dtype=np.intp)
    inf = math.inf
    end = soa.svc_end[idx].tolist()
    cur_arr = soa.cur_arr[idx].tolist()
    cur_svc = soa.cur_svc[idx].tolist()
    speed = soa.speed[idx].tolist()
    qlen = soa.qlen[idx].tolist()
    qa = [row[:n] for row, n in zip(soa.q_arr[idx].tolist(), qlen)]
    qs = [row[:n] for row, n in zip(soa.q_svc[idx].tolist(), qlen)]
    occ = [n + (e != inf) for n, e in zip(qlen, end)]
    nfull = sum(o >= k for o in occ[:na])
    heap = [(e, p) for p, e in enumerate(end) if e != inf]
    heapify(heap)

    stop = int(np.searchsorted(times, t_end, side="left"))
    tl = times[start:stop].tolist()
    sl = services[start:stop].tolist()
    n = len(tl)
    # The last drain bound: "< t_end" is "<= the float just below t_end".
    t_last = math.nextafter(t_end, -inf) if strict else t_end
    done_rows: List[Tuple[float, float, float]] = []
    record = done_rows.append
    push, pop = heappush, heappop
    emptied: List[Tuple[float, int]] = []
    rejected: List[Tuple[int, int]] = []
    breaks = 0
    freed_at = -1
    i = 0
    while True:
        t = tl[i] if i < n else t_last
        while heap and heap[0][0] <= t:
            done, p = pop(heap)
            record((done, cur_arr[p], cur_svc[p]))
            o = occ[p]
            if o == k and p < na:
                nfull -= 1
                if freed_at != i:
                    freed_at = i
                    breaks += 1
            occ[p] = o - 1
            q = qa[p]
            if q:
                a = q.pop(0)
                s = qs[p].pop(0) / speed[p]
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
        if nfull == na:
            # The paper's rejection condition: reject in bulk up to the
            # next completion (all of the span when nothing can admit).
            j = bisect_left(tl, heap[0][0], i) if heap and na else n
            if rejected and rejected[-1][1] == start + i:
                rejected[-1] = (rejected[-1][0], start + j)
            else:
                rejected.append((start + i, start + j))
                breaks += 1
            i = j
            continue
        p = rr
        while occ[p] >= k:
            p = p + 1 if p + 1 < na else 0
        o = occ[p]
        if o == 0:
            s = sl[i] / speed[p]
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
            nfull += 1
        rr = p + 1 if p + 1 < na else 0
        i += 1

    if stations:
        soa.svc_end[idx] = end
        soa.cur_arr[idx] = cur_arr
        soa.cur_svc[idx] = cur_svc
        soa.qlen[idx] = [len(q) for q in qa]
        if k > 1:
            pad = [0.0] * (k - 1)
            soa.q_arr[idx] = [(q + pad)[: k - 1] for q in qa]
            soa.q_svc[idx] = [(q + pad)[: k - 1] for q in qs]
    completions = tuple(np.array(done_rows).T) if done_rows else None
    return EventSpan(start + n, rr, rejected, completions, emptied, breaks)
