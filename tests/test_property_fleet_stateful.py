"""Stateful property test — fleet lifecycle invariants under any schedule.

A hypothesis rule machine drives the data plane through arbitrary
interleavings of scaling, request submission, time advancement, and
instance crashes, and checks the conservation laws that every other
test relies on implicitly:

* fleet census == data-center census;
* per-instance occupancy never exceeds the admission capacity ``k``;
* request conservation: accepted = completed + in-flight + crash-lost;
* the busy-time ledger never exceeds provisioned VM time;
* each instance's occupancy counter agrees with its queue and its
  completion event, through crashes, drains, revivals and speed changes.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
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
