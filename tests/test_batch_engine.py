"""The vectorized SoA data plane against its scalar reference.

Three layers of evidence that ``repro.sim.batch`` + ``VectorFleet``
are a *performance* change and not a *semantics* change:

1. Kernel unit tests — every array kernel (Lindley unroll, grouped
   rows, round-robin reshape, the one-pass span's assign/drain)
   checked against a brute-force scalar loop, the one-pass span
   checked bit for bit against the event-granular span over generated
   states, and the event-granular span against the scalar round-robin
   balancer and against itself carried across window bounds.
2. Backend cross-checks — ``des-vec`` vs ``des`` on jitterless web and
   scientific scenarios must agree **bit-for-bit** on the control
   trajectory and exactly on every count; the fluid backend ties in as
   the third independent implementation of the same control plane.
3. Hypothesis properties — the per-piece choice between the one-pass
   and the event-granular path changes wall-clock only: any routing of
   pieces to either path yields the identical
   :class:`~repro.backends.base.RunMetrics` and admission trace; and
   where spans end (at every arrival window, or only at engine events
   and every ``MAX_SPAN_WINDOWS`` windows) moves the span-flushed
   float statistics by rounding only.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import random
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import vecfleet
from repro.cloud.datacenter import Datacenter
from repro.cloud.failures import FailureInjector
from repro.cloud.loadbalancer import RoundRobinBalancer
from repro.cloud.monitor import Monitor
from repro.cloud.vecfleet import MAX_SPAN_WINDOWS, VectorFleet
from repro.core import AdaptivePolicy, StaticPolicy
from repro.economy import PricingModel, SpotPolicy
from repro.errors import ConfigurationError
from repro.experiments import run_policy, scientific_scenario, web_scenario
from repro.obs.bus import RingBufferSink, TraceBus
from repro.metrics.collector import MetricsCollector
from repro.workloads.base import ServiceTimeSampler
from repro.sim import (
    Engine,
    SoAQueues,
    event_span,
    fifo_departures_grouped,
    round_robin_departures,
)
from repro.sim.batch import EventState, one_pass_span
from repro.workloads import ScientificWorkload, WebWorkload

# ---------------------------------------------------------------------------
# kernel unit tests
# ---------------------------------------------------------------------------


def _lindley_loop(arrivals, services, ready=-math.inf):
    dep = []
    prev = ready
    for a, s in zip(arrivals, services):
        start = max(a, prev)
        prev = start + s
        dep.append(prev)
    return np.array(dep)


def test_fifo_departures_matches_scalar_loop():
    rng = np.random.default_rng(7)
    arrivals = np.sort(rng.uniform(0.0, 100.0, size=200))
    services = rng.exponential(2.0, size=200)
    # The cumsum unroll reassociates the float additions, so the match
    # is to within a few ulps, not bitwise (the SoA data plane used by
    # VectorFleet performs the scalar-ordered arithmetic and IS exact).
    np.testing.assert_allclose(
        fifo_departures_grouped(arrivals[None, :], services[None, :])[0],
        _lindley_loop(arrivals, services),
        rtol=1e-12,
    )


def test_fifo_departures_respects_ready_time():
    arrivals = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    services = np.ones((2, 3))
    # Server 0 busy until t=10: everything queues behind it.  Server 1
    # frees up before its first arrival, which starts on arrival.
    np.testing.assert_array_equal(
        fifo_departures_grouped(arrivals, services, ready=np.array([10.0, 0.5])),
        np.array([[11.0, 12.0, 13.0], [2.0, 3.0, 4.0]]),
    )


def test_fifo_departures_empty_and_mismatch():
    assert fifo_departures_grouped(np.empty((2, 0)), np.empty((2, 0))).shape == (2, 0)
    with pytest.raises(ConfigurationError):
        fifo_departures_grouped(np.zeros((1, 3)), np.zeros((1, 2)))
    with pytest.raises(ConfigurationError):
        fifo_departures_grouped(np.zeros(3), np.zeros(3))


def test_fifo_departures_grouped_rows_are_independent_servers():
    rng = np.random.default_rng(11)
    arrivals = np.sort(rng.uniform(0.0, 50.0, size=(4, 40)), axis=1)
    services = rng.exponential(1.5, size=(4, 40))
    ready = rng.uniform(0.0, 10.0, size=4)
    got = fifo_departures_grouped(arrivals, services, ready=ready)
    for row in range(4):
        np.testing.assert_allclose(
            got[row],
            _lindley_loop(arrivals[row], services[row], ready=ready[row]),
            rtol=1e-12,
        )


def test_round_robin_departures_matches_scalar_dispatch():
    rng = np.random.default_rng(3)
    n, m = 237, 5  # deliberately not a multiple of m: exercises padding
    arrivals = np.sort(rng.uniform(0.0, 300.0, size=n))
    services = rng.exponential(4.0, size=n)
    got = round_robin_departures(arrivals, services, m)
    free = [-math.inf] * m
    want = np.empty(n)
    for i in range(n):
        q = i % m
        start = max(arrivals[i], free[q])
        free[q] = start + services[i]
        want[i] = free[q]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def _no_arrivals():
    return np.empty(0), np.empty(0)


def test_soa_assign_and_drain_single_station_is_lindley():
    """One arrival per span, drained at its own arrival: the queue
    carries over between spans and the departures are the scalar
    Lindley loop's, whenever the kernel materializes them."""
    soa = SoAQueues(capacity=4)
    idx = soa.alloc()
    station = np.array([idx], dtype=np.intp)
    arrivals = np.array([0.0, 0.5, 1.0])
    services = np.array([2.0, 2.0, 2.0])
    for i in range(3):
        plan = soa.assign(station, 1, arrivals[i : i + 1], services[i : i + 1])
        assert plan.clean == 1
        assert soa.drain(plan, arrivals[i]) == (None, [])
    assert soa.occupancy(station)[0] == 3
    completions, emptied = soa.drain(soa.assign(station, 1, *_no_arrivals()), 100.0)
    np.testing.assert_array_equal(completions[0], _lindley_loop(arrivals, services))
    assert soa.occupancy(station)[0] == 0 and emptied == []


def test_soa_drain_strict_excludes_boundary_completion():
    soa = SoAQueues(capacity=2)
    idx = soa.alloc()
    station = np.array([idx], dtype=np.intp)
    plan = soa.assign(station, 1, np.array([0.0]), np.array([5.0]))
    assert soa.drain(plan, 5.0, strict=True) == (None, [])
    completions, _ = soa.drain(soa.assign(station, 1, *_no_arrivals()), 5.0)
    np.testing.assert_array_equal(completions[0], [5.0])


def test_soa_assign_overflow_guard():
    """No station ever holds more than ``capacity``: the first arrival
    that meets a full station ends the clean prefix, and only that
    prefix is committed."""
    soa = SoAQueues(capacity=1)
    idx = soa.alloc()
    station = np.array([idx], dtype=np.intp)
    plan = soa.assign(station, 1, np.array([0.0, 1.0, 20.0]), np.array([10.0] * 3))
    assert plan.clean == 1
    assert soa.drain(plan, 1.0) == (None, [])
    assert soa.occupancy(station)[0] == 1
    assert soa.svc_end[idx] == 10.0


def test_event_span_matches_one_pass_and_respects_strictness():
    """One full station, two arrivals: the first is queued, the second
    rejected; the span end decides whether the completion at exactly
    ``t_end`` is taken (inclusive) or left for the next span (strict)."""
    def run(strict):
        soa = SoAQueues(capacity=2)
        idx = soa.alloc()
        station = np.array([idx], dtype=np.intp)
        soa.drain(soa.assign(station, 1, np.array([0.0]), np.array([5.0])), 0.0)
        span = event_span(
            soa, [idx], [], np.array([1.0, 2.0]), np.array([3.0, 3.0]), 0, 5.0, strict, 0
        )
        return soa, span

    soa, span = run(strict=True)
    assert (span.stop, span.rr, span.rejected, span.clean) == (2, 0, [(1, 2)], 1)
    assert span.completions is None
    assert soa.occupancy(np.array([0]))[0] == 2
    soa, span = run(strict=False)
    np.testing.assert_array_equal(span.completions[0], [5.0])
    # The queued request starts at the departure (Lindley), as the
    # one-pass kernel computes it.
    completions, _ = soa.drain(soa.assign(np.array([0]), 1, *_no_arrivals()), 100.0)
    np.testing.assert_array_equal(completions[0], [8.0])


def _quarters(lo, hi):
    # A quarter-second grid makes ties between arrivals, departures and
    # the span end common.
    return st.integers(int(lo * 4), int(hi * 4)).map(lambda q: q / 4)


@st.composite
def _span_cases(draw):
    """A reachable ``SoAQueues`` state and one span of arrivals over it."""
    k = draw(st.integers(min_value=1, max_value=5))
    # Up to a dozen dispatch stations, so that the round-robin walk from
    # the pointer to the next free station often passes several full
    # ones and wraps around the end of the dispatch order.
    n_dispatch = draw(st.integers(min_value=0, max_value=12))
    n_drain = draw(st.integers(min_value=0, max_value=3))
    soa = SoAQueues(capacity=k, initial_slots=2)
    slots = [soa.alloc() for _ in range(n_dispatch + n_drain)]
    # Many arrivals with long services keep most stations full.
    longest = draw(st.sampled_from([3, 12]))

    def stream(lo, hi, shortest):
        n = draw(st.integers(min_value=0, max_value=60))
        times = sorted(draw(st.lists(_quarters(lo, hi), min_size=n, max_size=n)))
        # Dividing a grid service by a factor puts some services off the
        # grid (÷ 0.75, ÷ 3) while departures still tie with arrivals.
        factors = st.sampled_from([0.5, 0.75, 1.5, 2.0, 3.0])
        services = draw(
            st.lists(
                st.tuples(_quarters(shortest, longest), factors).map(lambda q: q[0] / q[1]),
                min_size=n,
                max_size=n,
            )
        )
        return np.array(times), np.array(services)

    # Warm every station up through the event path, then hand some of
    # them over to draining.
    event_span(soa, slots, [], *stream(0, 10, 0.25), 0, 10.0, draw(st.booleans()), 0)
    times, services = stream(10, 16, 0)
    return dict(
        soa=soa,
        dispatch=np.array(slots[:n_dispatch], dtype=np.intp),
        drain_only=np.array(slots[n_dispatch:], dtype=np.intp),
        times=times,
        services=services,
        start=0,
        t_end=draw(st.sampled_from([12.0, 14.0, 15.5, 16.0])),
        strict=draw(st.booleans()),
        rr=draw(st.integers(min_value=0, max_value=max(n_dispatch - 1, 0))),
    )


def _completion_bytes(span):
    if span.completions is None:
        return None
    dep, arr, svc = span.completions
    order = np.lexsort((svc, arr, dep))
    return tuple(a[order].tobytes() for a in (dep, arr, svc))


def _state_bytes(soa):
    busy = soa.svc_end != np.inf
    return (
        soa.svc_end.tobytes(),
        np.where(busy, soa.cur_arr, 0.0).tobytes(),
        np.where(busy, soa.cur_svc, 0.0).tobytes(),
        soa.qlen.tobytes(),
        soa.q_arr.tobytes(),
        soa.q_svc.tobytes(),
    )


def _one_pass_then_event(soa, **case):
    """The one-pass kernel up to the first full station, then the event
    path from there: the hand-off ``VectorFleet`` makes."""
    with mock.patch("repro.sim.batch.event_span", side_effect=AssertionError):
        head = one_pass_span(soa, **case)
    stop = int(np.searchsorted(case["times"], case["t_end"], side="left"))
    if head.stop == stop:
        return head
    assert head.clean == head.stop - case["start"]
    rest = event_span(soa, **dict(case, start=head.stop, rr=head.rr))
    completions = head.completions
    if rest.completions is not None:
        if completions is None:
            completions = rest.completions
        else:
            completions = tuple(map(np.concatenate, zip(completions, rest.completions)))
    return rest._replace(
        completions=completions, emptied=head.emptied + rest.emptied, clean=head.clean
    )


@settings(max_examples=300, deadline=None)
@given(case=_span_cases())
def test_one_pass_span_matches_event_span_bit_for_bit(case):
    """The one-pass span leaves exactly what the arrival-by-arrival
    span leaves: departures, completions, rejections, the pointer, the
    emptied drain-only stations and every byte of the queue state —
    including spans that meet a full station mid-way, where the
    one-pass kernel stops (never calling the event path itself) and
    the event path takes the rest."""
    soa = case.pop("soa")
    event_soa, one_pass_soa = copy.deepcopy(soa), copy.deepcopy(soa)
    want = event_span(event_soa, **case)
    got = _one_pass_then_event(one_pass_soa, **case)
    assert (got.stop, got.rr, got.rejected, got.clean) == (
        want.stop,
        want.rr,
        want.rejected,
        want.clean,
    )
    assert _completion_bytes(got) == _completion_bytes(want)
    assert sorted(got.emptied) == sorted(want.emptied)
    assert _state_bytes(one_pass_soa) == _state_bytes(event_soa)


@settings(max_examples=150, deadline=None)
@given(case=_span_cases())
def test_event_span_walk_is_the_round_robin_balancer(case):
    """The event path sends every arrival where the scalar balancer's
    linear walk sends it.  Replayed arrival by arrival with the array
    kernel (complete what is due, ask ``RoundRobinBalancer.select``,
    admit there), the span leaves the same rejections, pointer and
    queue state."""
    soa = case.pop("soa")
    want_soa = copy.deepcopy(soa)
    want = event_span(want_soa, **case)
    dispatch, times, services = case["dispatch"], case["times"], case["services"]
    every = np.concatenate((dispatch, case["drain_only"]))
    nothing = np.empty(0)
    balancer = RoundRobinBalancer()
    balancer._next = case["rr"]
    rejected = []
    stop = int(np.searchsorted(times, case["t_end"], side="left"))
    for i in range(case["start"], stop):
        soa.drain(soa.assign(every, 0, nothing, nothing), times[i])
        picked = balancer.select(
            [
                SimpleNamespace(occupancy=o, capacity=soa.capacity, position=p)
                for p, o in enumerate(soa.occupancy(dispatch).tolist())
            ]
        )
        if picked is None:
            rejected.append(i)
            continue
        station = dispatch[picked.position : picked.position + 1]
        soa.drain(soa.assign(station, 1, times[i : i + 1], services[i : i + 1]), times[i])
    soa.drain(soa.assign(every, 0, nothing, nothing), case["t_end"], case["strict"])
    assert [i for lo, hi in want.rejected for i in range(lo, hi)] == rejected
    assert want.rr == balancer._next
    assert _state_bytes(soa) == _state_bytes(want_soa)


@settings(max_examples=200, deadline=None)
@given(case=_span_cases(), cuts=st.lists(_quarters(10, 16), max_size=5))
def test_event_state_carried_across_pieces_matches_event_span(case, cuts):
    """One ``EventState`` run over a span cut at window bounds (each
    piece ending strictly at its bound, as ``VectorFleet`` cuts them)
    leaves exactly what one ``event_span`` call per piece leaves: each
    piece's stop, pointer, rejections, clean prefix, emptied stations
    and completions, and every byte of the queue state once stored."""
    soa = case.pop("soa")
    t_end, strict, start, rr = (case.pop(key) for key in ("t_end", "strict", "start", "rr"))
    stations = dict(dispatch=case.pop("dispatch"), drain_only=case.pop("drain_only"))
    ends = [(b, True) for b in sorted(set(cuts)) if b < t_end] + [(t_end, strict)]
    apart, carried = copy.deepcopy(soa), copy.deepcopy(soa)
    state = EventState(carried, **stations)
    for end, end_strict in ends:
        want = event_span(apart, **stations, **case, start=start, t_end=end, strict=end_strict, rr=rr)
        got = state.run(**case, start=start, t_end=end, strict=end_strict, rr=rr)
        assert (got.stop, got.rr, got.rejected, got.clean, got.emptied) == (
            want.stop,
            want.rr,
            want.rejected,
            want.clean,
            want.emptied,
        )
        assert _completion_bytes(got) == _completion_bytes(want)
        start, rr = want.stop, want.rr
    state.store()
    assert _state_bytes(carried) == _state_bytes(apart)


def test_engine_peek_skips_cancelled_and_reports_next_time():
    eng = Engine()
    first = eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    assert eng.peek() == 1.0
    eng.cancel(first)
    assert eng.peek() == 2.0
    eng.run()
    assert eng.peek() is None


def test_vecfleet_drained_station_with_queued_work_destroyed_once():
    """A draining station that finishes several requests within one
    span (in-service + queued) must be destroyed exactly once, at its
    *last* departure.  Regression: the per-wave emptied test compared
    against the post-drain state, scheduling the destroy once per wave
    and crashing the flush on the duplicate removal.
    """
    engine = Engine()
    metrics = MetricsCollector(track_fleet_series=True)
    fleet = VectorFleet(
        engine=engine,
        datacenter=Datacenter(num_hosts=4),
        sampler=ServiceTimeSampler(np.random.default_rng(0), base=1.0, jitter=0.0),
        monitor=Monitor(engine=engine, metrics=metrics, default_service_time=1.0),
        metrics=metrics,
        capacity=3,
    )
    fleet.scale_to(1)
    fleet.load(np.array([0.0, 0.1]))
    fleet.advance(0.5)  # both admitted: one in service, one queued
    assert fleet.in_flight == 2
    fleet.scale_to(0)  # occupied station -> graceful drain
    assert fleet.live_count == 1
    fleet.finish(10.0)  # both completions land in the same span
    assert fleet.completions_processed == 2
    assert fleet.live_count == 0
    # Destroyed at the second departure (t=2.0), not the first.
    assert metrics.fleet_series[-1] == (2.0, 0)


# ---------------------------------------------------------------------------
# backend cross-checks
# ---------------------------------------------------------------------------

SCALE = 5000.0
HORIZON = 6 * 3600.0

EXACT_FIELDS = (
    "total_requests",
    "accepted",
    "completed",
    "rejected",
    "qos_violations",
    "min_instances",
    "max_instances",
    "vm_hours",
    "core_hours",
    "utilization",
    "mean_response_time",
)


@pytest.fixture(scope="module")
def web():
    base = web_scenario(scale=SCALE, horizon=HORIZON, track_fleet_series=True)
    scenario = base.with_updates(
        workload=WebWorkload(service_jitter=0.0).scaled(SCALE)
    )
    return {
        backend: run_policy(scenario, AdaptivePolicy(), seed=0, backend=backend)
        for backend in ("des", "des-vec", "fluid")
    }


@pytest.fixture(scope="module")
def scientific():
    scale = 50.0
    base = scientific_scenario(scale=scale, horizon=12 * 3600.0, track_fleet_series=True)
    scenario = base.with_updates(
        workload=ScientificWorkload(service_jitter=0.0).scaled(scale)
    )
    return {
        backend: run_policy(scenario, AdaptivePolicy(), seed=0, backend=backend)
        for backend in ("des", "des-vec")
    }


def test_vec_backend_reports_its_tag(web):
    assert web["des-vec"].backend == "des-vec"


def test_web_control_series_bit_identical_across_all_backends(web):
    assert web["des"].control_series, "adaptive run produced no actuations"
    assert web["des-vec"].control_series == web["des"].control_series
    assert web["fluid"].control_series == web["des"].control_series


def test_web_fleet_series_identical(web):
    assert web["des"].fleet_series
    assert web["des-vec"].fleet_series == web["des"].fleet_series


def test_web_aggregates_exactly_equal(web):
    for name in EXACT_FIELDS:
        assert getattr(web["des-vec"], name) == getattr(web["des"], name), name
    # Welford-vs-Chan variance merging differs in the last ulp only.
    assert web["des-vec"].response_time_std == pytest.approx(
        web["des"].response_time_std, abs=1e-12
    )


def test_scientific_control_series_bit_identical(scientific):
    assert scientific["des"].control_series
    assert scientific["des-vec"].control_series == scientific["des"].control_series
    assert scientific["des-vec"].fleet_series == scientific["des"].fleet_series
    for name in EXACT_FIELDS:
        assert getattr(scientific["des-vec"], name) == getattr(
            scientific["des"], name
        ), name


def test_jittered_web_still_matches_scalar():
    """With stochastic service times both engines draw in arrival order
    from the same stream, so even the jittered run stays equal."""
    scenario = web_scenario(scale=SCALE, horizon=HORIZON)
    des = run_policy(scenario, AdaptivePolicy(), seed=1, backend="des")
    vec = run_policy(scenario, AdaptivePolicy(), seed=1, backend="des-vec")
    assert vec.control_series == des.control_series
    assert vec.accepted == des.accepted
    assert vec.rejected == des.rejected
    assert vec.completed == des.completed
    assert vec.vm_hours == des.vm_hours
    assert vec.mean_response_time == pytest.approx(des.mean_response_time, rel=1e-9)


@pytest.fixture(scope="module")
def saturated():
    """Undersized static fleets on the jitterless web night at 1/400:
    the regime where every instance is full and requests are rejected."""
    scale = 400.0
    base = web_scenario(scale=scale, horizon=HORIZON, track_fleet_series=True)
    scenario = base.with_updates(
        workload=WebWorkload(service_jitter=0.0).scaled(scale)
    )
    return {
        m: {
            backend: run_policy(scenario, StaticPolicy(m), seed=0, backend=backend)
            for backend in ("des", "des-vec")
        }
        for m in (20, 40, 75)
    }


@pytest.mark.parametrize("m", [20, 40, 75])
def test_saturated_static_matches_scalar(saturated, m):
    des, vec = saturated[m]["des"], saturated[m]["des-vec"]
    assert des.rejected > 0, "the cell must reject to exercise saturation"
    for name in (
        "total_requests",
        "accepted",
        "completed",
        "rejected",
        "qos_violations",
        "vm_hours",
        "control_series",
        "fleet_series",
    ):
        assert getattr(vec, name) == getattr(des, name), name
    # Bulk vs per-request accumulation differ in the last ulp only.
    assert vec.mean_response_time == pytest.approx(des.mean_response_time, rel=1e-12)
    assert vec.response_time_std == pytest.approx(des.response_time_std, rel=1e-12)


def test_span_path_routing_follows_the_load():
    """The path choice is read off the load: the adaptive web day, which
    rarely fills an instance, stays on the one-pass path; the undersized
    Static-75 day at 1/400 spends most spans on the event path."""
    day = web_scenario(scale=100.0, horizon=24 * 3600.0)
    adaptive = run_policy(
        day,
        AdaptivePolicy(update_interval=day.update_interval, lead_time=day.lead_time),
        seed=0,
        backend="des-vec",
    ).profile["counters"]
    assert adaptive["event_spans"] <= 0.05 * adaptive["spans"]
    static = run_policy(
        web_scenario(scale=400.0, horizon=24 * 3600.0),
        StaticPolicy(75),
        seed=0,
        backend="des-vec",
    ).profile["counters"]
    assert static["event_spans"] > 0.5 * static["spans"]


def test_jitterless_web_spans_complete_in_one_pass():
    """Round-robin never meets a full instance on the jitterless web day
    at 1/2000, so every span with arrivals completes in one pass: the
    event path is never entered, neither straight nor by hand-off."""
    scale = 2000.0
    scenario = web_scenario(scale=scale, horizon=24 * 3600.0).with_updates(
        workload=WebWorkload(service_jitter=0.0).scaled(scale)
    )
    # Both routes into the event path, straight and by hand-off, build
    # an EventState in the fleet and run it.
    assert vecfleet.EventState is EventState
    with mock.patch.object(
        EventState, "run", autospec=True, side_effect=EventState.run
    ) as event_path:
        result = run_policy(scenario, AdaptivePolicy(), seed=0, backend="des-vec")
    counters = result.profile["counters"]
    assert result.rejected == 0
    assert counters["arrivals"] == result.total_requests > 0
    assert counters["spans"] > 0 and counters["event_spans"] == 0
    assert event_path.call_count == 0


def _normalized(metrics):
    # wall_seconds is the only field that is not a deterministic
    # function of (scenario, policy, seed, backend); profile is already
    # excluded from equality (compare=False).
    return dataclasses.replace(metrics, wall_seconds=0.0)


# ---------------------------------------------------------------------------
# span-path invariance property
# ---------------------------------------------------------------------------

_ADMISSION_EVENTS = ("admission.state", "request.admitted", "request.rejected")
_PATH_SCALE = 20_000.0


def _path_scenario(k, jitter, boot_delay):
    scale = _PATH_SCALE
    workload = WebWorkload() if jitter else WebWorkload(service_jitter=0.0)
    workload = workload.scaled(scale)
    base = web_scenario(scale=scale, horizon=24 * 3600.0)
    # Eq. 1: k = floor(Ts / Tr); aim Ts mid-way between k and k + 1.
    qos = dataclasses.replace(
        base.qos, max_response_time=(k + 0.5) * workload.base_service_time
    )
    scenario = base.with_updates(
        workload=workload, qos=qos, boot_delay=boot_delay, track_fleet_series=True
    )
    assert scenario.capacity == k
    return scenario


def _path_policy(kind, instances, crash_times, seed):
    if kind == "static":
        policy = StaticPolicy(instances)
    elif kind == "adaptive":
        policy = AdaptivePolicy()
    else:
        policy = SpotPolicy(0.3, pricing=PricingModel(spot_mtbf=1800.0))
    if crash_times:
        attach = policy.attach

        def attach_and_arm(ctx):
            attach(ctx)
            FailureInjector(
                ctx.engine,
                ctx.fleet,
                np.random.default_rng(seed),
                schedule=crash_times,
                horizon=ctx.horizon,
            ).start()

        policy.attach = attach_and_arm
    return policy


def _run_on_paths(scenario, make_policy, choose):
    bus = TraceBus(RingBufferSink(maxlen=1 << 20), events=_ADMISSION_EVENTS)
    with mock.patch.object(VectorFleet, "_use_event_path", choose):
        got = run_policy(scenario, make_policy(), seed=0, backend="des-vec", trace=bus)
    return _normalized(got), list(bus.sink.events), got.profile["counters"]


_PATH_CASES = dict(
    k=st.sampled_from([1, 2, 3]),
    jitter=st.booleans(),
    boot_delay=st.sampled_from([0.0, 120.0, 600.0]),
    kind=st.sampled_from(["static", "adaptive", "spot"]),
    instances=st.integers(min_value=2, max_value=40),
    crash_times=st.lists(
        st.floats(min_value=60.0, max_value=24 * 3600.0 - 60.0), max_size=4
    ),
    mix_seed=st.integers(min_value=0, max_value=2**32 - 1),
)


@settings(max_examples=15, deadline=None)
@given(**_PATH_CASES)
def test_span_path_choice_never_changes_results(
    k, jitter, boot_delay, kind, instances, crash_times, mix_seed
):
    """Every piece of a span (a window, or the rest of the span on the
    one-pass path) picks its path afresh; any sequence of picks gives
    the same result and admission trace."""
    scenario = _path_scenario(k, jitter, boot_delay)

    def make_policy():
        return _path_policy(kind, instances, crash_times, mix_seed)

    mix = random.Random(mix_seed)
    picks = []

    def always_event(self):
        picks.append(True)
        return True

    one_pass = _run_on_paths(scenario, make_policy, lambda self: False)
    event = _run_on_paths(scenario, make_policy, always_event)
    mixed = _run_on_paths(scenario, make_policy, lambda self: mix.random() < 0.5)
    assert one_pass[2]["event_spans"] == 0
    assert event[2]["event_spans"] == event[2]["spans"] > 0
    # The event path takes one window per piece: spans hold several.
    assert len(picks) > event[2]["spans"]
    assert one_pass[0] == event[0] == mixed[0]
    assert one_pass[1] == event[1] == mixed[1]


#: Floats that a span flush accumulates: the order of float additions
#: follows the span boundaries.
_FLUSHED_FLOATS = ("mean_response_time", "response_time_std", "utilization")


def _same_event(want, got):
    if want.keys() != got.keys():
        return False
    for key, w in want.items():
        g = got[key]
        if isinstance(w, float) and not isinstance(w, bool):
            if not math.isclose(g, w, rel_tol=1e-12, abs_tol=0.0):
                return False
        elif g != w:
            return False
    return True


def _run_with_cap(scenario, make_policy, cap):
    bus = TraceBus(RingBufferSink(maxlen=1 << 20))
    with mock.patch("repro.cloud.vecfleet.MAX_SPAN_WINDOWS", cap):
        got = run_policy(scenario, make_policy(), seed=0, backend="des-vec", trace=bus)
    events = [
        {k: v for k, v in e.items() if not (e["type"] == "run.end" and k == "events")}
        for e in bus.sink.events
        if e["type"] != "batch.span"
    ]
    return _normalized(got), events, got.profile["counters"]


@settings(max_examples=15, deadline=None)
@given(**_PATH_CASES)
def test_span_window_cap_never_changes_results(
    k, jitter, boot_delay, kind, instances, crash_times, mix_seed
):
    """Ending a span at every arrival window (``MAX_SPAN_WINDOWS`` = 1,
    one span per window as an engine event per window would) and ending
    it only at engine events and every 16 windows give the same counts,
    series, VM-hours and rejections, floats to 1e-12, and the same
    trace in the same order apart from the ``batch.span`` summaries."""
    scenario = _path_scenario(k, jitter, boot_delay)

    def make_policy():
        return _path_policy(kind, instances, crash_times, mix_seed)

    cut, whole = (_run_with_cap(scenario, make_policy, cap) for cap in (1, 16))
    assert cut[2]["spans"] >= whole[2]["spans"] > 0
    for field in dataclasses.fields(cut[0]):
        if not field.compare:
            continue
        want, got = getattr(cut[0], field.name), getattr(whole[0], field.name)
        if field.name in _FLUSHED_FLOATS:
            # abs: a jitterless run's standard deviation is rounding noise.
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), field.name
        else:
            assert got == want, field.name
    assert len(cut[1]) == len(whole[1])
    for want, got in zip(cut[1], whole[1]):
        assert _same_event(want, got), (want, got)


def test_static_week_spans_are_capped():
    """A static fleet has no control events: its spans end every
    ``MAX_SPAN_WINDOWS`` windows, so a week's buffer stays the size of a
    few hours' (the tracemalloc peak within 2x a 6-h run's)."""
    import tracemalloc

    def run(hours):
        scenario = web_scenario(scale=400.0, horizon=hours * 3600.0)
        tracemalloc.start()
        try:
            got = run_policy(scenario, StaticPolicy(200), seed=0, backend="des-vec")
            return got, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run(1)  # warm-up: lazily built module state is not the data plane's
    _, short_peak = run(6)
    week, week_peak = run(7 * 24)
    counters = week.profile["counters"]
    assert counters["events"] == 0
    assert counters["spans"] >= 7 * 1440 / MAX_SPAN_WINDOWS
    assert week_peak <= 2 * short_peak, (week_peak, short_peak)
