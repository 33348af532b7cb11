"""The discrete-event simulation engine.

:class:`Engine` owns the simulation clock and the future-event list (a
binary heap of plain list entries; see :mod:`repro.sim.events`).  Model
components — *entities* — schedule callbacks with
:meth:`Engine.schedule` / :meth:`Engine.schedule_at` and the engine
fires them in non-decreasing ``(time, priority, seq)`` order until the
horizon is reached or the event list drains.

The engine is deliberately minimal: no process coroutines, no channels.
Every higher-level abstraction (queues, servers, provisioners) is built
from plain callbacks in :mod:`repro.cloud` and :mod:`repro.core`.  This
keeps the inner loop short: profiling showed heap operations and
callback dispatch dominate, so the loop binds ``heappop`` to a local,
the heap compares C-level list entries, and :meth:`schedule` pushes
inline rather than delegating to :meth:`schedule_at` (measure first,
then shave only the measured hot path).

Arrival stream
--------------
The broker's arrivals do not enter the heap.  The engine holds them as
one sorted list with an index (:meth:`feed` installs the callback that
receives each arrival time, :meth:`load_arrivals` hands over a window's
times) and merges that list with the heap as it runs.  The next arrival
has the key ``(t, PRIORITY_NORMAL, seq)``, ``seq`` taken from the
event counter when the stream was last *armed*: when it was loaded, or
when its next arrival last lost to the heap's head.  It fires when that
key sorts before the live head, which is exactly where one
``PRIORITY_NORMAL`` heap entry per arrival, scheduled as the previous
arrival fired, would have fired.  An arrival that follows a fired one
is unarmed (its ``seq`` would be the newest) and keeps firing inline
while it stays ahead of the head, so a burst of arrivals costs no heap
operation and no frame but the callback's.  :meth:`step`,
:meth:`peek` and :meth:`peek_key` see the stream too.  Each fired
arrival advances the clock and counts in :attr:`events_fired` like any
event.

Cancellation
------------
Cancellation is lazy: :meth:`cancel` flips the entry's flag in O(1),
and :meth:`run`, :meth:`step` and :meth:`peek` pop cancelled entries
when they reach the head of the heap.
"""

from __future__ import annotations

import math
from heapq import heappop as _heappop, heappush as _heappush
from typing import Callable, List, Optional, Tuple

from ..errors import EngineStateError, SchedulingInPastError
from .events import CANCELLED, PRIORITY_NORMAL, EventHandle

__all__ = ["Engine"]

#: The seq of an unarmed arrival: later than any event's.
_UNARMED = math.inf


class Engine:
    """Sequential discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (seconds).  Scenario code
        usually starts at ``0.0``, meaning "Monday 12 a.m." for the web
        workload (see :mod:`repro.sim.calendar`).

    Examples
    --------
    >>> eng = Engine()
    >>> fired = []
    >>> _ = eng.schedule(5.0, lambda: fired.append(eng.now))
    >>> eng.run(until=10.0)
    >>> fired
    [5.0]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: List[EventHandle] = []
        self._seq = 0
        self._running = False
        self._finished = False
        # The arrival stream (see the module docstring): the callback,
        # the sorted times, the index of the next arrival, its seq
        # (_UNARMED inside run() after an arrival fired) and a count of
        # loads, by which run() notices a load made by an event.
        self._submit: Optional[Callable[[float], object]] = None
        self._arrivals: List[float] = []
        self._next_arrival = 0
        self._arrival_seq: float = _UNARMED
        self._loads = 0
        self._events_fired = 0
        #: Hooks invoked (with the engine) after a clean run completes.
        self.at_end: List[Callable[["Engine"], None]] = []

    # ------------------------------------------------------------------
    # clock & introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (cancelled events excluded).

        Updated *before* each callback fires, so a callback observing
        the counter sees itself included — identically under
        :meth:`run` and :meth:`step`.
        """
        return self._events_fired

    @property
    def scheduled(self) -> int:
        """Number of events scheduled so far, cancelled ones included.

        It is also the sequence number of the latest one: an event
        scheduled from now on orders after every event scheduled before,
        among events of equal time and priority.
        """
        return self._seq

    @property
    def pending(self) -> int:
        """Number of entries still in the future-event list.

        Includes lazily-cancelled entries, so this is an upper bound on
        the live events.
        """
        return len(self._heap)

    @property
    def arrivals_pending(self) -> int:
        """Loaded arrivals not yet fired (exact outside arrival callbacks)."""
        return len(self._arrivals) - self._next_arrival

    @property
    def finished(self) -> bool:
        """Whether :meth:`run` has completed (including by exception)."""
        return self._finished

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = PRIORITY_NORMAL,
    ) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        Returns the event handle, which may be passed to :meth:`cancel`.
        """
        # Inlined schedule_at: this sits on the DES hot path (one call
        # per completion) and the extra frame is measurable.
        when = self._now + delay
        if self._finished:
            raise EngineStateError("cannot schedule events on a finished engine")
        if not when >= self._now:  # also catches NaN
            raise SchedulingInPastError(self._now, when)
        self._seq = seq = self._seq + 1
        entry: EventHandle = [when, priority, seq, callback, False]
        _heappush(self._heap, entry)
        return entry

    def schedule_at(
        self,
        when: float,
        callback: Callable[[], None],
        priority: int = PRIORITY_NORMAL,
    ) -> EventHandle:
        """Schedule ``callback`` at absolute time ``when``.

        Raises
        ------
        SchedulingInPastError
            If ``when`` is earlier than the current clock (or NaN).
        EngineStateError
            If the engine already finished its run.
        """
        if self._finished:
            raise EngineStateError("cannot schedule events on a finished engine")
        if not when >= self._now:  # also catches NaN
            raise SchedulingInPastError(self._now, when)
        self._seq = seq = self._seq + 1
        entry: EventHandle = [float(when), priority, seq, callback, False]
        _heappush(self._heap, entry)
        return entry

    def feed(self, submit: Callable[[float], object]) -> None:
        """Install the arrival stream's callback (once per engine).

        Each arrival loaded with :meth:`load_arrivals` is passed to
        ``submit(t)`` at its time ``t``, with :attr:`now` equal to ``t``.
        ``submit`` must not load arrivals itself: inside :meth:`run` the
        stream's index is kept in a local while arrivals fire.

        Raises
        ------
        EngineStateError
            If the engine already has a feeder: an engine takes one
            stream, so every caller builds one source per engine.
        """
        if self._submit is not None:
            raise EngineStateError(
                "engine already has an arrival stream; build one source per engine"
            )
        self._submit = submit

    def load_arrivals(self, times) -> None:
        """Hand the stream a sorted batch of arrival times.

        Accepts a numpy array (the broker's sampled window) or a list.
        A window's batch normally drains before the next one is loaded;
        arrivals still pending — a misbehaving workload model — are
        merged with the new batch rather than dropped.  Loading arms
        the stream: its first arrival orders after every event already
        scheduled at the same instant and priority.

        Raises
        ------
        EngineStateError
            If no callback was installed with :meth:`feed`, or the engine
            already finished its run.
        SchedulingInPastError
            If the first arrival is earlier than the current clock.
        """
        if self._submit is None:
            raise EngineStateError("no arrival stream: call feed() before load_arrivals()")
        if self._finished:
            raise EngineStateError("cannot load arrivals on a finished engine")
        if not isinstance(times, list):
            times = times.tolist()
        idx = self._next_arrival
        if idx < len(self._arrivals):
            times = sorted(self._arrivals[idx:] + times)
        if times and not times[0] >= self._now:  # also catches NaN
            raise SchedulingInPastError(self._now, times[0])
        self._arrivals = times
        self._next_arrival = 0
        self._loads += 1
        if times:
            self._seq = self._arrival_seq = self._seq + 1

    @staticmethod
    def cancel(entry: EventHandle) -> None:
        """Lazily cancel a scheduled event (idempotent).

        The entry stays in the heap but is skipped when popped.
        """
        entry[CANCELLED] = True

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _live_head(self) -> Optional[EventHandle]:
        """The heap's next live entry, popping cancelled heads."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if not entry[4]:
                return entry
            _heappop(heap)
        return None

    def _arrival_next(self, head: Optional[EventHandle]) -> bool:
        """Whether the stream's next arrival fires before ``head``."""
        if self._next_arrival >= len(self._arrivals):
            return False
        if head is None:
            return True
        t = self._arrivals[self._next_arrival]
        return (t, PRIORITY_NORMAL, self._arrival_seq) < (head[0], head[1], head[2])

    def peek(self) -> Optional[float]:
        """Firing time of the next live event, or ``None`` if drained.

        Pops lazily-cancelled heads as a side effect (they are dead
        weight either way), so a following :meth:`step` fires exactly
        the event whose time was returned.  Used by the vectorized
        backend's epoch loop: the array data plane advances to the next
        engine event's time before the event fires.
        """
        key = self.peek_key()
        return None if key is None else key[0]

    def peek_key(self) -> Optional[Tuple[float, int, int]]:
        """``(time, priority, seq)`` of the next live event, or ``None``.

        :meth:`peek` with the event's full firing order, for callers
        that must place work of their own among same-instant events.
        The next arrival's key is the stream's (see the module
        docstring).
        """
        head = self._live_head()
        if self._arrival_next(head):
            return self._arrivals[self._next_arrival], PRIORITY_NORMAL, int(self._arrival_seq)
        if head is None:
            return None
        return head[0], head[1], head[2]

    def run(self, until: Optional[float] = None) -> None:
        """Execute events and arrivals in time order.

        Parameters
        ----------
        until:
            Simulation horizon.  Events strictly after ``until`` are
            not fired and the clock stops exactly at ``until``.  When
            omitted, the engine runs until the event list and the
            arrival stream drain.

        Raises
        ------
        EngineStateError
            If called re-entrantly or after the engine finished.

        Notes
        -----
        The engine is marked finished even when a callback raises — a
        half-run engine is not resumable (its clock and entity state
        are mid-transaction), so re-running or scheduling afterwards
        raises :class:`EngineStateError`.  ``at_end`` hooks only fire
        after a *clean* completion.
        """
        if self._running:
            raise EngineStateError("Engine.run() is not re-entrant")
        if self._finished:
            raise EngineStateError("engine already finished; create a new Engine")
        self._running = True
        heap = self._heap
        pop = _heappop
        normal = PRIORITY_NORMAL
        unarmed = _UNARMED
        horizon = math.inf if until is None else float(until)
        # The stream in locals; reloaded when an event loads arrivals.
        loads = self._loads
        submit = self._submit
        times = self._arrivals
        end = len(times)
        idx = self._next_arrival
        aseq = self._arrival_seq
        try:
            while True:
                head = heap[0] if heap else None
                if head is not None and head[4]:
                    pop(heap)
                    continue
                if idx < end:
                    t = times[idx]
                    if head is None or t < head[0] or (
                        t == head[0]
                        and (head[1] > normal or (head[1] == normal and aseq < head[2]))
                    ):
                        if t > horizon:
                            break
                        idx += 1
                        aseq = unarmed
                        self._now = t
                        # Attributes, not locals: callbacks read them.
                        self._events_fired += 1
                        submit(t)
                        continue
                    if aseq is unarmed:
                        # Arm: the place a heap entry scheduled now takes.
                        self._seq = self._arrival_seq = aseq = self._seq + 1
                elif head is None:
                    break
                when = head[0]
                if when > horizon:
                    break
                pop(heap)
                self._next_arrival = idx
                self._now = when
                self._events_fired += 1
                head[3]()
                if self._loads != loads:
                    loads = self._loads
                    submit = self._submit
                    times = self._arrivals
                    end = len(times)
                    idx = self._next_arrival
                    aseq = self._arrival_seq
            if until is not None and self._now < horizon:
                self._now = horizon
        finally:
            # Leave the stream as step() and peek_key() expect it: armed.
            self._next_arrival = idx
            if aseq is unarmed and idx < end:
                self._seq = aseq = self._seq + 1
            self._arrival_seq = aseq
            self._running = False
            self._finished = True
        for hook in self.at_end:
            hook(self)

    def step(self) -> bool:
        """Fire the single next live event or arrival.

        Returns ``True`` if one fired, ``False`` if the event list and
        the arrival stream are empty.  Useful in tests that need to
        observe intermediate state.  Shares :meth:`run`'s accounting
        and order: ``events_fired`` is updated before the callback
        executes, and after an arrival the stream is armed again, as
        :meth:`run` would arm it before any later event could fire.
        """
        if self._running:
            raise EngineStateError("Engine.step() is not re-entrant")
        head = self._live_head()
        if self._arrival_next(head):
            t = self._arrivals[self._next_arrival]
            self._next_arrival += 1
            self._now = t
            self._events_fired += 1
            self._submit(t)
            if self._next_arrival < len(self._arrivals):
                self._seq = self._arrival_seq = self._seq + 1
            return True
        if head is None:
            return False
        _heappop(self._heap)
        self._now = head[0]
        self._events_fired += 1
        head[3]()
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Engine t={self._now:.6g} pending={len(self._heap)} "
            f"arrivals={self.arrivals_pending} fired={self._events_fired}>"
        )
