"""Unit tests of the discrete-event engine."""

from __future__ import annotations

import math

import pytest

from repro.errors import EngineStateError, SchedulingInPastError
from repro.sim import PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL, Engine


def test_events_fire_in_time_order():
    eng = Engine()
    fired = []
    for t in (5.0, 1.0, 3.0, 2.0, 4.0):
        eng.schedule_at(t, lambda t=t: fired.append(t))
    eng.run()
    assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_same_time_fifo_order():
    eng = Engine()
    fired = []
    for i in range(10):
        eng.schedule_at(1.0, lambda i=i: fired.append(i))
    eng.run()
    assert fired == list(range(10))


def test_priority_order_at_same_instant():
    eng = Engine()
    fired = []
    eng.schedule_at(1.0, lambda: fired.append("normal"), PRIORITY_NORMAL)
    eng.schedule_at(1.0, lambda: fired.append("low"), PRIORITY_LOW)
    eng.schedule_at(1.0, lambda: fired.append("high"), PRIORITY_HIGH)
    eng.run()
    assert fired == ["high", "normal", "low"]


def test_clock_advances_to_event_time():
    eng = Engine()
    seen = []
    eng.schedule_at(2.5, lambda: seen.append(eng.now))
    eng.run()
    assert seen == [2.5]
    assert eng.now == 2.5


def test_horizon_stops_and_sets_clock():
    eng = Engine()
    fired = []
    eng.schedule_at(1.0, lambda: fired.append(1))
    eng.schedule_at(50.0, lambda: fired.append(50))
    eng.run(until=10.0)
    assert fired == [1]
    assert eng.now == 10.0


def test_event_exactly_at_horizon_fires():
    eng = Engine()
    fired = []
    eng.schedule_at(10.0, lambda: fired.append(10))
    eng.run(until=10.0)
    assert fired == [10]


def test_schedule_relative_delay():
    eng = Engine(start_time=100.0)
    seen = []
    eng.schedule(5.0, lambda: seen.append(eng.now))
    eng.run()
    assert seen == [105.0]


def test_scheduling_in_past_raises():
    eng = Engine(start_time=10.0)
    with pytest.raises(SchedulingInPastError):
        eng.schedule_at(9.999, lambda: None)


def test_scheduling_nan_raises():
    eng = Engine()
    with pytest.raises(SchedulingInPastError):
        eng.schedule_at(math.nan, lambda: None)


def test_negative_delay_raises():
    eng = Engine(start_time=5.0)
    with pytest.raises(SchedulingInPastError):
        eng.schedule(-1.0, lambda: None)


def test_cancelled_event_skipped():
    eng = Engine()
    fired = []
    handle = eng.schedule_at(1.0, lambda: fired.append("a"))
    eng.schedule_at(2.0, lambda: fired.append("b"))
    Engine.cancel(handle)
    eng.run()
    assert fired == ["b"]


def test_cancel_is_idempotent():
    eng = Engine()
    handle = eng.schedule_at(1.0, lambda: None)
    Engine.cancel(handle)
    Engine.cancel(handle)
    eng.run()
    assert eng.events_fired == 0


def test_events_scheduled_during_run_fire():
    eng = Engine()
    fired = []

    def first():
        eng.schedule(1.0, lambda: fired.append("second"))

    eng.schedule_at(1.0, first)
    eng.run()
    assert fired == ["second"]
    assert eng.now == 2.0


def test_run_twice_raises():
    eng = Engine()
    eng.run()
    with pytest.raises(EngineStateError):
        eng.run()


def test_schedule_after_finish_raises():
    eng = Engine()
    eng.run()
    with pytest.raises(EngineStateError):
        eng.schedule_at(1.0, lambda: None)


def test_step_fires_single_event():
    eng = Engine()
    fired = []
    eng.schedule_at(1.0, lambda: fired.append(1))
    eng.schedule_at(2.0, lambda: fired.append(2))
    assert eng.step() is True
    assert fired == [1]
    assert eng.step() is True
    assert fired == [1, 2]
    assert eng.step() is False


def test_events_fired_counter_excludes_cancelled():
    eng = Engine()
    h = eng.schedule_at(1.0, lambda: None)
    eng.schedule_at(2.0, lambda: None)
    Engine.cancel(h)
    eng.run()
    assert eng.events_fired == 1


def test_at_end_hooks_invoked():
    eng = Engine()
    seen = []
    eng.at_end.append(lambda e: seen.append(e.now))
    eng.schedule_at(3.0, lambda: None)
    eng.run(until=5.0)
    assert seen == [5.0]


def test_pending_counts_heap_entries():
    eng = Engine()
    eng.schedule_at(1.0, lambda: None)
    eng.schedule_at(2.0, lambda: None)
    assert eng.pending == 2


# ----------------------------------------------------------------------
# finished-on-exception semantics
# ----------------------------------------------------------------------
def test_callback_exception_marks_engine_finished():
    eng = Engine()

    def boom():
        raise ValueError("callback exploded")

    eng.schedule_at(1.0, boom)
    with pytest.raises(ValueError):
        eng.run()
    # A half-run engine is not resumable: it is finished, re-running
    # and scheduling both raise.
    assert eng.finished
    with pytest.raises(EngineStateError):
        eng.run()
    with pytest.raises(EngineStateError):
        eng.schedule_at(5.0, lambda: None)


def test_at_end_hooks_skipped_on_exception():
    eng = Engine()
    seen = []
    eng.at_end.append(lambda e: seen.append("end"))
    eng.schedule_at(1.0, lambda: (_ for _ in ()).throw(RuntimeError("x")))
    with pytest.raises(RuntimeError):
        eng.run()
    assert seen == []


def test_events_fired_counts_events_before_exception():
    eng = Engine()
    eng.schedule_at(1.0, lambda: None)
    eng.schedule_at(2.0, lambda: (_ for _ in ()).throw(RuntimeError("x")))
    with pytest.raises(RuntimeError):
        eng.run()
    assert eng.events_fired == 2  # the raising event itself counts


# ----------------------------------------------------------------------
# unified step()/run() accounting
# ----------------------------------------------------------------------
def test_step_then_run_accounting_is_consistent():
    eng = Engine()
    for t in (1.0, 2.0, 3.0, 4.0):
        eng.schedule_at(t, lambda: None)
    assert eng.step() is True
    assert eng.step() is True
    assert eng.events_fired == 2
    eng.run()
    assert eng.events_fired == 4


def test_events_fired_includes_current_event_during_run_and_step():
    observed = []

    eng1 = Engine()
    eng1.schedule_at(1.0, lambda: observed.append(("run", eng1.events_fired)))
    eng1.schedule_at(2.0, lambda: observed.append(("run", eng1.events_fired)))
    eng1.run()

    eng2 = Engine()
    eng2.schedule_at(1.0, lambda: observed.append(("step", eng2.events_fired)))
    eng2.step()

    # Both execution paths expose the same mid-callback counter value.
    assert observed == [("run", 1), ("run", 2), ("step", 1)]


def test_static_cancel_still_works_without_tracking():
    eng = Engine()
    h = eng.schedule_at(1.0, lambda: None)
    Engine.cancel(h)  # class-level call
    eng.run()
    assert eng.events_fired == 0


def test_event_beyond_horizon_survives_for_inspection():
    eng = Engine()
    eng.schedule_at(50.0, lambda: None)
    eng.run(until=10.0)
    assert eng.now == 10.0
    assert eng.pending == 1  # popped, inspected, pushed back
