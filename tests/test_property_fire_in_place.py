"""Property test — arrivals fired in place keep the event order exactly.

:meth:`repro.sim.engine.Engine.fire_in_place` lets the broker's arrival
cursor submit an arrival without a heap entry whenever the arrival is
the next event anyway.  The reference below is the cursor it replaced:
one ``PRIORITY_NORMAL`` heap entry per arrival, scheduled when the
previous arrival fires.  Hypothesis generates worlds around a batch of
arrivals on a quarter-second grid (so arrivals and events tie) —
same-instant events at every priority, events that discard other
events (cancelled heap heads), events and arrivals that schedule
children, a second batch loaded mid-window — and runs each world with
both cursors under ``run()``, ``run(until)`` cutting anywhere, and
``step()``.  Every callback logs its label, the clock and
``events_fired``; the two logs must be equal.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.broker import _ArrivalCursor
from repro.sim import Engine
from repro.sim.events import PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL

GRID = 0.25
PRIORITIES = (PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_LOW)


class ReferenceCursor:
    """The one-heap-entry-per-arrival cursor (no in-place firing)."""

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
                self._engine.discard(self._pending)
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
            elif kind == "discard":
                target = self.handles[param % len(self.handles)]
                if param % 2:
                    engine.discard(target)
                else:
                    Engine.cancel(target)
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
        return self.log, engine.events_fired, engine.now, self.cursor._idx


delays = st.one_of(st.none(), st.integers(min_value=0, max_value=8))
priorities = st.sampled_from(PRIORITIES)
instants = st.integers(min_value=0, max_value=40)


def _event(kind, param):
    return st.tuples(instants, priorities, st.just(kind), param)


events = st.lists(
    st.one_of(
        _event("plain", st.none()),
        _event("child", st.tuples(st.integers(min_value=0, max_value=8), priorities)),
        _event("discard", st.integers(min_value=0, max_value=63)),
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
    got = World(_ArrivalCursor, world).drive(mode)
    assert got == want


class Recorder:
    """Stands in for AdmissionControl: records each submitted time."""

    def __init__(self):
        self.fired = []

    def submit(self, arrival_time):
        self.fired.append(arrival_time)
        return True


def test_in_place_firing_skips_the_heap():
    """Arrivals before the next heap event take no heap entry."""
    engine = Engine()
    admission = Recorder()
    cursor = _ArrivalCursor(engine, admission)
    cursor.load([1.0, 2.0, 3.0, 4.0])
    engine.schedule_at(3.0, lambda: admission.fired.append("event"), PRIORITY_NORMAL)
    scheduled = engine.scheduled
    engine.run()
    # 1.0 fired from the heap, 2.0 in place; 3.0 ties a NORMAL event
    # scheduled earlier, so it waits in the heap and 4.0 follows in place.
    assert admission.fired == [1.0, 2.0, "event", 3.0, 4.0]
    assert engine.scheduled == scheduled + 1
    assert engine.events_fired == 5


def test_nothing_fires_in_place_under_step():
    engine = Engine()
    admission = Recorder()
    cursor = _ArrivalCursor(engine, admission)
    cursor.load([1.0, 2.0])
    assert engine.step() and admission.fired == [1.0]
    assert engine.step() and admission.fired == [1.0, 2.0]
    assert not engine.step()
