"""Tests of batched arrival dispatch in the broker (WorkloadSource)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.broker import WorkloadSource
from repro.errors import ConfigurationError, EngineStateError
from repro.sim import Engine
from repro.sim.events import PRIORITY_HIGH, PRIORITY_LOW


class RecordingAdmission:
    """Stands in for AdmissionControl: records every submit time."""

    def __init__(self):
        self.times = []

    def submit(self, arrival_time):
        self.times.append(arrival_time)
        return True


class GridWorkload:
    """Deterministic workload: ``per_window`` evenly spaced arrivals."""

    window = 60.0

    def __init__(self, per_window=100):
        self.per_window = per_window

    def sample_window(self, rng, t0):
        return t0 + np.linspace(0.0, self.window, self.per_window, endpoint=False)


def make_source(per_window=100, horizon=180.0):
    eng = Engine()
    admission = RecordingAdmission()
    source = WorkloadSource(eng, GridWorkload(per_window), None, admission, horizon)
    return eng, admission, source


def test_every_arrival_dispatched_in_order_across_windows():
    eng, admission, source = make_source(per_window=50, horizon=180.0)
    source.start()
    eng.run()
    assert source.generated == 3 * 50
    assert len(admission.times) == 3 * 50
    assert admission.times == sorted(admission.times)
    assert admission.times[0] == 0.0
    assert admission.times[-1] < 180.0


def test_heap_stays_small_despite_large_batches():
    eng, admission, source = make_source(per_window=5000, horizon=120.0)
    source.start()
    max_pending = 0
    while eng.step():
        max_pending = max(max_pending, eng.pending)
    # The window-generation event alone: the 5000-arrival batch stays
    # in the engine's arrival stream and never lands in the heap.
    assert len(admission.times) == 2 * 5000
    assert max_pending <= 1


def test_arrivals_beyond_horizon_are_clipped():
    eng, admission, source = make_source(per_window=60, horizon=90.0)
    source.start()
    eng.run()
    # Window [60, 120) is generated but clipped at the 90-s horizon.
    assert all(t < 90.0 for t in admission.times)
    assert source.generated == 60 + 30
    assert len(admission.times) == 90


def test_cursor_index_resets_between_windows():
    # Regression: after fully draining a batch the stream must not treat
    # its last (already-dispatched) timestamp as a leftover — merging it
    # into the next window would put an arrival in the past.
    eng = Engine()
    admission = RecordingAdmission()
    eng.feed(admission.submit)
    eng.load_arrivals([1.0, 2.0])

    def reload():
        assert admission.times == [1.0, 2.0]
        assert eng.arrivals_pending == 0
        eng.load_arrivals([6.0, 7.0])  # must not re-dispatch t=2.0

    eng.schedule_at(5.0, reload)
    eng.run(until=10.0)
    assert admission.times == [1.0, 2.0, 6.0, 7.0]


def test_cursor_merges_genuine_leftovers():
    eng = Engine()
    admission = RecordingAdmission()
    eng.feed(admission.submit)
    eng.load_arrivals([5.0, 6.0, 7.0])

    def early_reload():
        assert eng.arrivals_pending == 2  # only t=5.0 dispatched so far
        eng.load_arrivals([8.0])

    eng.schedule_at(5.5, early_reload)
    eng.run(until=10.0)
    assert admission.times == [5.0, 6.0, 7.0, 8.0]


def test_invalid_horizon_rejected():
    eng = Engine()
    with pytest.raises(ConfigurationError):
        WorkloadSource(eng, GridWorkload(), None, RecordingAdmission(), 0.0)
    with pytest.raises(ConfigurationError):
        WorkloadSource(eng, GridWorkload(), None, RecordingAdmission(), float("inf"))


class PullingSink:
    """Stands in for VectorFleet: records the source it pulls from."""

    source = None

    def pull_from(self, source):
        self.source = source


def test_sink_mode_schedules_no_generation_events():
    eng = Engine()
    sink = PullingSink()
    source = WorkloadSource(eng, GridWorkload(10), None, horizon=150.0, sink=sink)
    source.start()
    assert sink.source is source and eng.pending == 0
    windows = []
    while source.due(float("inf")):
        windows.append(source.pull())
    assert [t0 for t0, _ in windows] == [0.0, 60.0, 120.0]
    assert windows[-1][1].tolist() == [120.0, 126.0, 132.0, 138.0, 144.0]
    assert (source.windows, source.generated, source.next_start) == (3, 25, float("inf"))
    assert eng.pending == 0


def test_due_orders_a_window_among_same_instant_events():
    """A window starting at an engine event's time is due before it
    exactly when its generation event would fire first: the event has a
    lower priority, or it was scheduled after the previous window."""
    eng = Engine()
    eng.schedule_at(60.0, lambda: None, PRIORITY_HIGH)  # before the source starts
    source = WorkloadSource(eng, GridWorkload(1), None, horizon=600.0, sink=PullingSink())
    source.start()
    assert source.due(30.0)
    source.pull()  # window 0
    assert not source.due(60.0)  # the earlier event fires first
    eng.step()
    assert eng.now == 60.0
    eng.schedule_at(60.0, lambda: None, PRIORITY_HIGH)  # after window 0
    assert source.due(60.0)
    source.pull()  # window 60
    eng.step()
    eng.schedule_at(120.0, lambda: None, PRIORITY_LOW)
    assert source.due(120.0)
    eng.schedule_at(120.0, lambda: None, PRIORITY_HIGH)  # after window 60
    assert source.due(120.0)
    assert not source.due(90.0) and not source.due(120.0 - 1e-9)


def test_a_second_feeder_is_refused():
    eng = Engine()
    with pytest.raises(EngineStateError):
        eng.load_arrivals([1.0])  # no callback installed yet
    first, second = (
        WorkloadSource(eng, GridWorkload(), None, RecordingAdmission(), 120.0) for _ in range(2)
    )  # building a source does not feed the engine
    first.start()
    with pytest.raises(EngineStateError):
        second.start()


@pytest.mark.parametrize("mode", ["step", "run"])
def test_no_arrival_enters_the_heap_on_a_des_web_run(mode):
    """The heap holds the completions of busy instances plus the window
    and control events; the arrivals wait in the engine's stream."""
    from repro import AdaptivePolicy, web_scenario
    from repro.backends.des import build_context

    scenario = web_scenario(scale=2000.0, horizon=4 * 3600.0)
    ctx = build_context(scenario, seed=0)
    AdaptivePolicy(
        update_interval=scenario.update_interval, lead_time=scenario.lead_time
    ).attach(ctx)
    eng = ctx.engine
    # Before the source starts: the control events (the analyzer's tick).
    control = eng.pending
    seen = []

    def check():
        busy = sum(1 for inst in ctx.fleet.live_instances if inst.occupancy)
        assert eng.pending <= busy + control + 1  # + the window event

    class Probe:
        def submit(self, arrival_time):
            check()
            return ctx.admission.submit(arrival_time)

    source = WorkloadSource(
        eng, scenario.workload, ctx.streams.get("arrivals"), Probe(), scenario.horizon
    )
    source.start()
    assert eng.pending == control + 1
    if mode == "step":
        while eng.step():
            check()
            seen.append(eng.arrivals_pending)
        assert max(seen) > 10  # the window's batch really sat in the stream
    else:
        eng.run()
    assert ctx.metrics.total_requests == source.generated > 1000
