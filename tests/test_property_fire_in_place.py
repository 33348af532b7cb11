"""Property test — the engine's arrival stream keeps the event order exactly.

:class:`repro.sim.engine.Engine` holds the broker's arrivals in a sorted
list of its own (:meth:`~repro.sim.engine.Engine.load_arrivals`) and
merges it with the heap, so no arrival takes a heap entry.  The
reference below is the cursor the stream replaced at its simplest: one
``PRIORITY_NORMAL`` heap entry per arrival, scheduled when the previous
arrival fires.  Hypothesis generates worlds around a batch of arrivals
on a quarter-second grid (so arrivals and events tie) — same-instant
events at every priority, events that cancel other events (cancelled
heap heads), events and arrivals that schedule children, a second batch
loaded mid-window — and runs each world with both under ``run()``,
``run(until)`` cutting anywhere, and ``step()``.  Every callback logs
its label, the clock and ``events_fired``; the two logs, and the
arrivals left unfired, must be equal.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine
from repro.sim.events import PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL

GRID = 0.25
PRIORITIES = (PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_LOW)


class ReferenceCursor:
    """One heap entry per arrival, scheduled as the previous one fires."""

    def __init__(self, engine, admission):
        self._engine = engine
        self._admission = admission
        self._times = []
        self._idx = 0
        self._pending = None

    def load(self, times):
        if self._idx < len(self._times):
            times = sorted(self._times[self._idx :] + times)
            if self._pending is not None:
                self._engine.cancel(self._pending)
        self._times = times
        self._idx = 0
        self._pending = None
        if times:
            self._pending = self._engine.schedule_at(times[0], self)

    def __call__(self):
        engine = self._engine
        self._admission.submit(engine.now)
        idx = self._idx = self._idx + 1
        if idx < len(self._times):
            self._pending = engine.schedule_at(self._times[idx], self)
        else:
            self._pending = None

    @property
    def remaining(self):
        return len(self._times) - self._idx


class EngineStream:
    """The engine's own arrival stream, behind the reference's interface."""

    def __init__(self, engine, admission):
        self._engine = engine
        engine.feed(admission.submit)

    def load(self, times):
        self._engine.load_arrivals(times)

    @property
    def remaining(self):
        return self._engine.arrivals_pending


class World:
    """One generated world, driven by one cursor implementation."""

    def __init__(self, cursor_cls, world):
        self.engine = engine = Engine()
        self.log = []
        self.children = world["children"]
        self.arrivals = 0
        self.cursor = cursor_cls(engine, self)
        self.handles = []
        for i, (k, prio, kind, param) in enumerate(world["events"]):
            self.handles.append(
                engine.schedule_at(k * GRID, self._event(i, kind, param), prio)
            )
        self.cursor.load([k * GRID for k in world["arrivals"]])

    def _record(self, label):
        self.log.append((label, self.engine.now, self.engine.events_fired))

    def submit(self, arrival_time):
        # AdmissionControl's signature: the cursor passes the arrival time.
        assert arrival_time == self.engine.now
        self._record("arrival")
        delay, prio = self.children[self.arrivals % len(self.children)]
        self.arrivals += 1
        if delay is not None:
            label = f"child-of-arrival-{self.arrivals}"
            self.engine.schedule(delay * GRID, lambda: self._record(label), prio)
        return True

    def _event(self, i, kind, param):
        def fire():
            self._record(f"event-{i}")
            engine = self.engine
            if kind == "child":
                delay, prio = param
                engine.schedule(delay * GRID, lambda: self._record(f"child-of-{i}"), prio)
            elif kind == "cancel":
                Engine.cancel(self.handles[param % len(self.handles)])
            elif kind == "load":
                later = sorted(engine.now + k * GRID for k in param)
                self.cursor.load(later)

        return fire

    def drive(self, mode):
        engine = self.engine
        if mode == "step":
            while engine.step():
                pass
        elif mode is None:
            engine.run()
        else:
            engine.run(until=mode * GRID)
        return self.log, engine.events_fired, engine.now, self.cursor.remaining


delays = st.one_of(st.none(), st.integers(min_value=0, max_value=8))
priorities = st.sampled_from(PRIORITIES)
instants = st.integers(min_value=0, max_value=40)


def _event(kind, param):
    return st.tuples(instants, priorities, st.just(kind), param)


events = st.lists(
    st.one_of(
        _event("plain", st.none()),
        # Same-instant children (delay 0) are drawn often: they tell an
        # arrival that waited for the event apart from one that did not.
        _event(
            "child",
            st.tuples(st.one_of(st.just(0), st.integers(min_value=0, max_value=8)), priorities),
        ),
        _event("cancel", st.integers(min_value=0, max_value=63)),
        _event("load", st.lists(st.integers(min_value=0, max_value=12), max_size=6)),
    ),
    max_size=14,
)


@settings(max_examples=400, deadline=None)
@given(
    arrivals=st.lists(instants, max_size=40).map(sorted),
    children=st.lists(st.tuples(delays, priorities), min_size=1, max_size=6),
    events=events,
    mode=st.one_of(
        st.none(), st.just("step"), st.integers(min_value=0, max_value=48)
    ),
)
def test_in_place_firing_matches_one_heap_entry_per_arrival(
    arrivals, children, events, mode
):
    world = dict(arrivals=arrivals, children=children, events=events)
    want = World(ReferenceCursor, world).drive(mode)
    got = World(EngineStream, world).drive(mode)
    assert got == want


class Recorder:
    """Stands in for AdmissionControl: records each submitted time."""

    def __init__(self):
        self.fired = []

    def submit(self, arrival_time):
        self.fired.append(arrival_time)
        return True


def test_in_place_firing_skips_the_heap():
    """No arrival takes a heap entry, even one that waits for an event."""
    engine = Engine()
    admission = Recorder()
    engine.feed(admission.submit)
    engine.load_arrivals([1.0, 2.0, 3.0, 4.0])
    engine.schedule_at(
        3.0, lambda: admission.fired.append(("event", engine.pending)), PRIORITY_NORMAL
    )
    scheduled = engine.scheduled
    assert engine.pending == 1
    engine.run()
    # 1.0 and 2.0 fire inline; 3.0 ties a NORMAL event scheduled before
    # 2.0 fired, so it waits, armed: one seq taken but no heap entry
    # (the heap is empty while the event fires); 4.0 follows inline.
    assert admission.fired == [1.0, 2.0, ("event", 0), 3.0, 4.0]
    assert engine.scheduled == scheduled + 1
    assert engine.events_fired == 5


def test_nothing_fires_in_place_under_step():
    """step() fires one arrival per call."""
    engine = Engine()
    admission = Recorder()
    engine.feed(admission.submit)
    engine.load_arrivals([1.0, 2.0])
    assert engine.step() and admission.fired == [1.0]
    assert engine.step() and admission.fired == [1.0, 2.0]
    assert not engine.step()


def test_a_waiting_arrival_precedes_what_the_event_it_waits_for_schedules():
    """An arrival that loses to a same-instant event is armed before the
    event fires, so a NORMAL event that one schedules for the same
    instant fires after the arrival, as after a heap entry scheduled
    when the previous arrival fired."""
    engine = Engine()
    admission = Recorder()
    engine.feed(admission.submit)

    def blocker():
        admission.fired.append("blocker")
        engine.schedule(0.0, lambda: admission.fired.append("child"))

    engine.schedule_at(2.0, blocker)
    engine.load_arrivals([1.0, 2.0])
    engine.schedule_at(2.0, lambda: admission.fired.append("late"))  # after the load
    engine.run()
    # After 1.0 fires, 2.0 loses to the blocker and "late" (both were
    # scheduled before it was armed) and is armed before the blocker
    # fires, so it precedes the blocker's child.
    assert admission.fired == [1.0, "blocker", "late", 2.0, "child"]
