"""Stateful property tests — fleet lifecycle invariants under any schedule.

:class:`FleetMachine` drives the scalar data plane through arbitrary
interleavings of scaling, request submission, time advancement, and
instance crashes, and checks the conservation laws that every other
test relies on implicitly:

* fleet census == data-center census;
* per-instance occupancy never exceeds the admission capacity ``k``;
* request conservation: accepted = completed + in-flight + crash-lost;
* the busy-time ledger never exceeds provisioned VM time;
* each instance's occupancy counter agrees with its queue and its
  completion event, through crashes, drains, revivals and speed changes.

:class:`LifecycleLockstep` drives an ``ApplicationFleet`` and a
``VectorFleet`` through the same scale, kill, revive and time-advance
operations and holds both to a model of the paper's scaling policy
(§IV-C): grow by reviving the most recently drained instance first,
then creating VMs up to the data center's capacity; shrink by cancelling
the newest booting instances, then destroying idle ones in active
order, then draining the least-occupied ones (ties by id).  Requests
are seated only so that members differ in occupancy; the machine checks
the lifecycle, not the data planes' request accounting.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from hypothesis import strategies as st

from repro.cloud import InstanceState

from helpers import make_env


class FleetMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.env = make_env(capacity=2, service_time=1.0, num_hosts=8, seed=0)
        #: Every instance ever seen live, destroyed ones included.
        self.seen = {}

    # ------------------------------------------------------------------
    # rules
    # ------------------------------------------------------------------
    @rule(n=st.integers(min_value=0, max_value=20))
    def scale(self, n):
        self.env.fleet.scale_to(n)

    @rule(count=st.integers(min_value=1, max_value=8))
    def submit(self, count):
        for _ in range(count):
            self.env.admission.submit(self.env.engine.now)

    @rule(steps=st.integers(min_value=1, max_value=16))
    def advance(self, steps):
        for _ in range(steps):
            if not self.env.engine.step():
                break

    @rule(pick=st.integers(min_value=0, max_value=63))
    def crash(self, pick):
        live = self.env.fleet.live_instances
        if live:
            self.env.fleet.kill(live[pick % len(live)])

    @rule()
    def drain_one(self, ):
        if self.env.fleet.serving_count > 0:
            self.env.fleet.scale_to(self.env.fleet.serving_count - 1)

    @rule()
    def revive_one(self):
        # Growing the fleet revives a draining instance first.
        self.env.fleet.scale_to(self.env.fleet.serving_count + 1)

    @rule(pick=st.integers(min_value=0, max_value=63), speed=st.integers(1, 4))
    def set_speed(self, pick, speed):
        live = self.env.fleet.live_instances
        if live:
            self.env.fleet.set_speed(live[pick % len(live)], speed)

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    @invariant()
    def census_matches_datacenter(self):
        assert self.env.fleet.live_count == self.env.datacenter.live_vms

    @invariant()
    def occupancy_bounded(self):
        for inst in self.env.fleet.live_instances:
            assert 0 <= inst.occupancy <= inst.capacity
            assert inst.state is not InstanceState.DESTROYED

    @invariant()
    def occupancy_counter_matches_queue_and_pending(self):
        # A request is in service iff occupancy > 0: the rest wait in
        # the queue, and the one in service has a completion event.
        for inst in self.env.fleet.live_instances:
            self.seen[inst.instance_id] = inst
        for inst in self.seen.values():
            assert len(inst._queue) == max(inst.occupancy - 1, 0)
            assert (inst._pending is None) == (inst.occupancy == 0)
            assert inst.is_idle == (inst.occupancy == 0)
            assert inst.is_full == (inst.occupancy >= inst.capacity)

    @invariant()
    def request_conservation(self):
        m = self.env.metrics
        in_system = sum(i.occupancy for i in self.env.fleet.live_instances)
        assert m.in_flight == in_system
        assert m.accepted == m.completed + m.in_flight + m.lost_requests

    @invariant()
    def busy_time_within_provisioned_time(self):
        now = self.env.engine.now
        assert self.env.metrics.busy_seconds <= self.env.datacenter.vm_seconds(now) + 1e-6

    @invariant()
    def census_never_negative(self):
        f = self.env.fleet
        assert f.active_count >= 0
        assert f.serving_count >= f.active_count
        assert f.live_count >= f.serving_count


TestFleetStateful = FleetMachine.TestCase
TestFleetStateful.settings = settings(max_examples=40, stateful_step_count=60, deadline=None)


#: Control steps advance the clock in multiples of 5 s and requests
#: arrive on them; an irrational service time keeps every completion off
#: that grid, so no completion ties a control step (the planes order such
#: measure-zero ties differently by design).
STEP = 5.0
SERVICE = 10.0 * math.sqrt(2.0) * STEP
BUCKETS = ("_active", "_booting", "_draining")


class LifecycleLockstep(RuleBasedStateMachine):
    """Both fleets, one model of the lifecycle (see the module docstring)."""

    @initialize(boot_delay=st.sampled_from([0.0, 6 * STEP]))
    def build(self, boot_delay):
        kw = dict(capacity=3, service_time=SERVICE, num_hosts=2, boot_delay=boot_delay)
        self.planes = [make_env(**kw), make_env(vectorized=True, **kw)]
        self.boot_delay = boot_delay
        self.max_vms = self.planes[0].datacenter.max_vms()
        #: The model: member ids per bucket, and when each booting one boots.
        self.model = {bucket: [] for bucket in BUCKETS}
        self.boots_at = {}
        self.next_id = 0

    # -- plane access ------------------------------------------------------
    @staticmethod
    def _ids(fleet, bucket):
        return [fleet._member_id(m) for m in getattr(fleet, bucket)]

    def _member(self, fleet, member_id):
        return next(m for m in fleet.live_instances if fleet._member_id(m) == member_id)

    def _loads(self):
        """Requests on board per member id; both planes must agree."""
        des, vec = (
            {f._member_id(m): f._occupancy(m) for m in f.live_instances}
            for f in (env.fleet for env in self.planes)
        )
        assert des == vec
        return des

    @property
    def now(self):
        return self.planes[0].engine.now

    # -- rules -------------------------------------------------------------
    @rule(size=st.integers(min_value=0, max_value=20))
    def scale(self, size):
        load = self._loads()
        reached = {env.fleet.scale_to(size) for env in self.planes}
        active, booting, draining = (self.model[b] for b in BUCKETS)
        count = size - len(active) - len(booting)
        while count > 0 and draining:
            active.append(draining.pop())
            count -= 1
        while count > 0 and len(active) + len(booting) + len(draining) < self.max_vms:
            if self.boot_delay:
                booting.append(self.next_id)
                self.boots_at[self.next_id] = self.now + self.boot_delay
            else:
                active.append(self.next_id)
            self.next_id += 1
            count -= 1
        if count < 0:
            cancelled = booting[::-1][:-count]
            del booting[len(booting) - len(cancelled) :]
            idle = [i for i in active if not load[i]]
            busy = sorted((i for i in active if load[i]), key=lambda i: (load[i], i))
            for i in (idle + busy)[: -count - len(cancelled)]:
                active.remove(i)
                if load[i]:
                    draining.append(i)
        assert reached == {len(active) + len(booting)}

    @rule()
    def revive_one(self):
        self.scale(self.planes[0].fleet.serving_count + 1)

    @rule()
    def shed_one(self):
        self.scale(max(self.planes[0].fleet.serving_count - 1, 0))

    @rule(pick=st.integers(min_value=0, max_value=63))
    def kill(self, pick):
        live = [i for bucket in BUCKETS for i in self.model[bucket]]
        if not live:
            return
        victim = live[pick % len(live)]
        des, vec = (env.fleet for env in self.planes)
        assert des.kill(self._member(des, victim)) == vec.kill(self._member(vec, victim))
        for bucket in BUCKETS:
            if victim in self.model[bucket]:
                self.model[bucket].remove(victim)

    @rule(count=st.integers(min_value=1, max_value=12))
    def submit(self, count):
        des, vec = self.planes
        for _ in range(count):
            des.admission.submit(self.now)
        vec.fleet.load(np.full(count, self.now))
        # Spans stop short of their end; admit at now, as des just did.
        vec.fleet.advance(math.nextafter(self.now, math.inf))

    @rule(steps=st.integers(min_value=1, max_value=12))
    def advance(self, steps):
        until = self.now + steps * STEP
        for env in self.planes:
            engine, fleet = env.engine, env.fleet
            tick = []
            engine.schedule_at(until, lambda: tick.append(until))
            while not tick:
                if env.admission is None:
                    fleet.advance(engine.peek())  # the des-vec epoch loop
                engine.step()
        booting, active = self.model["_booting"], self.model["_active"]
        booted = [i for i in booting if self.boots_at[i] <= until]
        del booting[: len(booted)]
        active += booted
        # Draining members retire as their last request completes.
        remaining, vec_remaining = (self._ids(env.fleet, "_draining") for env in self.planes)
        assert remaining == vec_remaining
        assert set(remaining) <= set(self.model["_draining"])
        self.model["_draining"] = [i for i in self.model["_draining"] if i in remaining]

    # -- invariants --------------------------------------------------------
    @invariant()
    def buckets_match_the_model(self):
        for env in self.planes:
            for bucket in BUCKETS:
                assert self._ids(env.fleet, bucket) == self.model[bucket], bucket

    @invariant()
    def planes_agree_on_census_and_vm_time(self):
        des, vec = self.planes
        assert des.fleet.live_count == vec.fleet.live_count == vec.datacenter.live_vms
        assert des.datacenter.vm_seconds(self.now) == vec.datacenter.vm_seconds(self.now)


TestLifecycleLockstep = LifecycleLockstep.TestCase
TestLifecycleLockstep.settings = settings(max_examples=100, stateful_step_count=50, deadline=None)
