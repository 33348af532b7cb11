"""The economy subsystem: pricing, ledger, policies, revocation.

Four layers of evidence that profit accounting is a *measurement*
layer and not a semantics change:

1. Unit tests — pricing coercion/validation, ledger delta sampling,
   the qos-attainment objective, the deterministic newest-victim
   revocation rule.
2. A hypothesis property — :meth:`ProfitLedger.merge` is associative
   and order-invariant bit-for-bit (the Chan-merge contract the
   metrics registry also keeps).
3. Search correctness — the profit ``m*`` search equals the brute-force
   argmax from every warm start, and the load-rescaled warm-start hint
   is a pure accelerator (answers are history-independent).
4. Backend cross-checks — a priced spot run on jitterless web must
   agree between ``des`` and ``des-vec`` bit-for-bit on counts, control
   trajectory, revocations, and the bill.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AdaptivePolicy
from repro.core.qos import QoSTarget
from repro.backends.base import RunMetrics
from repro.campaigns import CampaignSpec
from repro.campaigns.spec import _policy_factory
from repro.economy import (
    EconomyTotals,
    IntervalRecord,
    PricingModel,
    ProfitLedger,
    ProfitModeler,
    ProfitPolicy,
    RevocationInjector,
    SpotPolicy,
)
from repro.errors import ConfigurationError
from repro.experiments import run_policy, web_scenario
from repro.experiments.seeds import parse_seeds
from repro.obs.bus import RingBufferSink, TraceBus
from repro.sim import Engine
from repro.sim.rng import RandomStreams
from repro.workloads import WebWorkload

# ---------------------------------------------------------------------------
# pricing model
# ---------------------------------------------------------------------------


def test_pricing_defaults_validate():
    p = PricingModel()
    assert p.revenue(10) == 10 * p.revenue_per_request
    assert p.capacity_cost(2.0) == 2.0 * p.cost_per_core_hour


def test_pricing_unknown_key_rejected():
    with pytest.raises(ConfigurationError, match="unknown pricing keys"):
        PricingModel.coerce({"revenue_per_requst": 0.1})


def test_pricing_bool_rejected():
    with pytest.raises(ConfigurationError, match="must be a number"):
        PricingModel.coerce({"sla_penalty": True})


def test_pricing_validation_bounds():
    with pytest.raises(ConfigurationError):
        PricingModel(revenue_per_request=-1.0)
    with pytest.raises(ConfigurationError):
        PricingModel(spot_cost_factor=0.0)
    with pytest.raises(ConfigurationError):
        PricingModel(sla_tolerance=1.5)
    with pytest.raises(ConfigurationError):
        PricingModel(spot_mtbf=0.0)


def test_pricing_pair_tuple_round_trip():
    p = PricingModel(revenue_per_request=0.02, cost_per_core_hour=0.3)
    assert PricingModel.coerce(p.as_tuple()) == p
    assert PricingModel.coerce(p) is p
    assert PricingModel.coerce(None) is None


def test_capacity_cost_blends_spot():
    p = PricingModel(cost_per_core_hour=1.0, spot_cost_factor=0.25)
    # 10 core-hours of which 4 are spot: 6 on-demand + 4 * 0.25.
    assert p.capacity_cost(10.0, 4.0) == pytest.approx(7.0)


def test_interval_violates_uses_tolerance():
    p = PricingModel(sla_tolerance=0.1)
    assert not p.interval_violates(100, 10)  # exactly at tolerance
    assert p.interval_violates(100, 11)
    assert not p.interval_violates(0, 5)  # empty interval never violates


# ---------------------------------------------------------------------------
# qos attainment objective
# ---------------------------------------------------------------------------


def _metrics(**overrides):
    base = dict(
        scenario="s",
        policy="p",
        seed=0,
        total_requests=100,
        accepted=90,
        completed=90,
        rejected=10,
        rejection_rate=0.1,
        mean_response_time=0.1,
        response_time_std=0.0,
        qos_violations=0,
        min_instances=1,
        max_instances=2,
        vm_hours=1.0,
        core_hours=1.0,
        failures=0,
        lost_requests=0,
        utilization=0.5,
        wall_seconds=0.0,
        events=0,
    )
    base.update(overrides)
    return RunMetrics(**base)


def test_qos_attainment_counts_rejections_against():
    # 90 completed in time out of 100 submitted: rejections are misses.
    assert _metrics().qos_attainment == pytest.approx(0.9)
    assert _metrics(qos_violations=40).qos_attainment == pytest.approx(0.5)


def test_qos_attainment_degenerate_cases():
    assert _metrics(total_requests=0, completed=0, rejected=0).qos_attainment == 1.0
    assert _metrics(qos_violations=1000).qos_attainment == 0.0


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------


class _StubCollector:
    def __init__(self):
        self.completed = 0
        self.rejected = 0
        self.violations = 0


def test_ledger_rejects_nonpositive_interval():
    with pytest.raises(ConfigurationError):
        ProfitLedger(PricingModel(), interval=0.0)


def test_ledger_samples_deltas_not_cumulatives():
    pricing = PricingModel(revenue_per_request=1.0, cost_per_core_hour=3600.0)
    collector = _StubCollector()
    hours = {"t": 0.0}
    ledger = ProfitLedger(
        pricing,
        interval=60.0,
        collector=collector,
        vm_hours_fn=lambda now: hours["t"],
    )
    collector.completed, hours["t"] = 10, 1.0
    first = ledger.sample(60.0)
    collector.completed, hours["t"] = 25, 1.5
    second = ledger.sample(120.0)
    assert (first.completed, first.core_seconds) == (10, 3600.0)
    assert (second.completed, second.core_seconds) == (15, 1800.0)
    totals = ledger.totals()
    assert totals.revenue == pytest.approx(25.0)
    assert totals.cost == pytest.approx(1.5 * 3600.0)
    assert totals.profit == totals.revenue - totals.cost - totals.penalty


def test_ledger_zero_length_interval_skipped():
    ledger = ProfitLedger(PricingModel(), interval=60.0)
    assert ledger.sample(0.0) is None
    assert ledger.records == []


def test_totals_from_aggregates_matches_pricing_arithmetic():
    pricing = PricingModel(
        revenue_per_request=0.01, cost_per_core_hour=0.5, sla_penalty=2.0
    )
    totals = EconomyTotals.from_aggregates(
        pricing,
        completed=1000,
        core_hours=10.0,
        vm_hours=10.0,
        spot_fraction=0.4,
        violating_intervals=3,
        revocations=2,
    )
    assert totals.revenue == pytest.approx(10.0)
    assert totals.cost == pytest.approx(pricing.capacity_cost(10.0, 4.0))
    assert totals.penalty == pytest.approx(6.0)
    assert totals.spot_vm_hours == pytest.approx(4.0)
    assert totals.revocations == 2


_records = st.lists(
    st.builds(
        IntervalRecord,
        start=st.floats(0.0, 1e6, allow_nan=False),
        duration=st.floats(1e-3, 1e4, allow_nan=False),
        completed=st.integers(0, 10**6),
        rejected=st.integers(0, 10**6),
        violations=st.integers(0, 10**4),
        core_seconds=st.floats(0.0, 1e9, allow_nan=False),
        spot_core_seconds=st.floats(0.0, 1e9, allow_nan=False),
    ),
    max_size=8,
)


def _ledger(records):
    return ProfitLedger(
        PricingModel(revenue_per_request=0.01, sla_penalty=1.0),
        interval=60.0,
        spot_fraction=0.3,
        records=records,
    )


@settings(max_examples=50, deadline=None)
@given(_records, st.randoms(use_true_random=False))
def test_ledger_totals_order_invariant(records, rnd):
    shuffled = list(records)
    rnd.shuffle(shuffled)
    assert _ledger(records).totals() == _ledger(shuffled).totals()


# ---------------------------------------------------------------------------
# the m* search
# ---------------------------------------------------------------------------

_QOS = QoSTarget(max_response_time=0.250, min_utilization=0.80)


def _modeler(pricing, max_vms=400):
    return ProfitModeler(
        pricing, qos=_QOS, capacity=2, max_vms=max_vms, decision_cache_size=0
    )


def test_profit_zero_rate_short_circuits_to_floor():
    m = _modeler(PricingModel())
    decision = m.decide(0.0, 0.105, 37)
    assert decision.instances == m.min_vms
    assert decision.iterations == 0


@pytest.mark.parametrize("cost", [0.08, 0.3, 5.0])
def test_profit_search_matches_brute_force_from_any_warm_start(cost):
    pricing = PricingModel(revenue_per_request=0.002, cost_per_core_hour=cost)
    modeler = _modeler(pricing)
    for lam in (3.0, 40.0, 120.0):
        brute = max(
            range(1, modeler.max_vms + 1),
            key=lambda k: modeler.profit_rate(lam, 0.105, k),
        )
        for warm in (1, max(1, brute - 1), brute, brute + 1, 3 * brute, modeler.max_vms):
            decision = modeler.decide(lam, 0.105, warm)
            assert decision.instances == brute, (lam, warm)
            assert decision.meets_qos in (True, False)


def test_profit_hint_is_a_pure_accelerator():
    pricing = PricingModel(revenue_per_request=0.002, cost_per_core_hour=0.3)
    warmed = _modeler(pricing)
    rates = [5.0, 20.0, 80.0, 120.0, 80.0, 20.0, 5.0]
    m = 1
    for lam in rates:
        hinted = warmed.decide(lam, 0.105, m).instances
        fresh = _modeler(pricing).decide(lam, 0.105, m).instances
        assert hinted == fresh
        m = hinted


def test_profit_policy_builds_profit_modeler_with_its_pricing():
    pricing = PricingModel(revenue_per_request=0.02)
    policy = ProfitPolicy(pricing=pricing)
    modeler = policy._build_modeler(_QOS, capacity=2, max_vms=100)
    assert isinstance(modeler, ProfitModeler)
    assert modeler.pricing == pricing


# ---------------------------------------------------------------------------
# spot policy + revocation
# ---------------------------------------------------------------------------


def test_spot_fraction_validated():
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ConfigurationError, match="spot_fraction"):
            SpotPolicy(bad)
    assert SpotPolicy(0.3).name == "Spot-30"


def test_revocation_schedule_is_a_function_of_seed_only():
    policy = SpotPolicy(0.3, pricing=PricingModel(spot_mtbf=600.0))
    horizon = 6 * 3600.0
    first = policy.revocation_schedule(RandomStreams(7), horizon)
    again = policy.revocation_schedule(RandomStreams(7), horizon)
    other = policy.revocation_schedule(RandomStreams(8), horizon)
    assert first == again
    assert first != other
    assert first == sorted(first)
    assert all(0.0 < t < horizon for t in first)


class _Instance:
    def __init__(self, instance_id):
        self.instance_id = instance_id


class _StubFleet:
    def __init__(self, ids):
        self._live = [_Instance(i) for i in ids]
        self.killed = []

    @property
    def live_instances(self):
        return list(self._live)

    def kill(self, victim, reason="crashed"):
        self._live.remove(victim)
        self.killed.append((victim.instance_id, reason))
        return 4  # queued requests lost with the instance


def test_revocation_kills_newest_instance_and_traces_it():
    engine = Engine()
    fleet = _StubFleet([3, 9, 5])
    sink = RingBufferSink()
    injector = RevocationInjector(
        engine, fleet, schedule=[10.0, 20.0], horizon=15.0, tracer=TraceBus(sink)
    )
    injector.start()
    engine.run()
    # Only the event inside the horizon fires; the newest (max id) dies.
    assert fleet.killed == [(9, "revoked")]
    assert injector.revocations == 1
    events = [e for e in sink.events if e["type"] == "economy.revocation"]
    assert len(events) == 1
    assert events[0]["instance"] == 9
    assert events[0]["lost"] == 4


# ---------------------------------------------------------------------------
# backend cross-check: priced spot run, des vs des-vec
# ---------------------------------------------------------------------------

_SPOT_PRICING = PricingModel(
    revenue_per_request=0.002,
    cost_per_core_hour=0.1,
    sla_penalty=0.05,
    spot_mtbf=1800.0,
)
_SCALE = 5000.0
_HORIZON = 6 * 3600.0


@pytest.fixture(scope="module")
def spot_runs():
    base = web_scenario(
        scale=_SCALE,
        horizon=_HORIZON,
        pricing=_SPOT_PRICING,
        track_fleet_series=True,
    )
    scenario = base.with_updates(
        workload=WebWorkload(service_jitter=0.0).scaled(_SCALE)
    )
    return {
        backend: run_policy(
            scenario,
            SpotPolicy(0.3, pricing=_SPOT_PRICING),
            seed=0,
            backend=backend,
        )
        for backend in ("des", "des-vec")
    }


def test_spot_revocations_fire_and_are_bit_identical(spot_runs):
    des, vec = spot_runs["des"], spot_runs["des-vec"]
    assert des.revocations > 0
    assert vec.revocations == des.revocations
    # Every crash in this run is a revocation (no failure injector), and
    # the collector observes each one.
    assert des.failures == vec.failures == des.revocations


def test_spot_counts_and_trajectories_identical(spot_runs):
    des, vec = spot_runs["des"], spot_runs["des-vec"]
    assert des.control_series
    assert vec.control_series == des.control_series
    assert vec.fleet_series == des.fleet_series
    for field in (
        "total_requests",
        "accepted",
        "completed",
        "rejected",
        "lost_requests",
        "qos_violations",
        "min_instances",
        "max_instances",
        "vm_hours",
    ):
        assert getattr(vec, field) == getattr(des, field), field


def test_spot_bill_identical_and_consistent(spot_runs):
    des, vec = spot_runs["des"], spot_runs["des-vec"]
    for field in ("revenue", "cost", "penalty", "profit", "spot_vm_hours"):
        assert getattr(vec, field) == getattr(des, field), field
    assert des.revenue == _SPOT_PRICING.revenue(des.completed)
    assert des.profit == des.revenue - des.cost - des.penalty
    assert 0.0 < des.spot_vm_hours < des.vm_hours


def test_unpriced_run_bills_nothing():
    scenario = web_scenario(scale=_SCALE, horizon=2 * 3600.0)
    run = run_policy(scenario, AdaptivePolicy(), seed=0)
    assert (run.revenue, run.cost, run.penalty, run.profit) == (0, 0, 0, 0)
    assert run.revocations == 0


# ---------------------------------------------------------------------------
# seeds: descending ranges get a hint
# ---------------------------------------------------------------------------


def test_parse_seeds_descending_range_hints_the_fix():
    with pytest.raises(ConfigurationError, match=r"did you mean '3-7'"):
        parse_seeds("7-3")


# ---------------------------------------------------------------------------
# campaign spec integration
# ---------------------------------------------------------------------------


def _economy_spec(pricing=None, name=None):
    block = {"scenario": "web", "scale": 1000.0, "horizon": 3600.0}
    if pricing is not None:
        block["pricing"] = pricing
    if name is not None:
        block["name"] = name
    return CampaignSpec.from_dict(
        {
            "campaign": {"name": "economy-test"},
            "execution": {
                "policies": ["adaptive", "profit", "spot-30"],
                "backends": ["des"],
                "seeds": "0",
            },
            "scenarios": [block],
        }
    )


def test_policy_factory_parses_economy_policies():
    assert _policy_factory("profit")[0] == "Profit"
    assert _policy_factory("spot-30")[0] == "Spot-30"
    assert _policy_factory("spot:45")[0] == "Spot-45"
    for bad in ("spot-0", "spot-100", "spot--1"):
        with pytest.raises(ConfigurationError):
            _policy_factory(bad)
    with pytest.raises(ConfigurationError, match="'spot-N'"):
        _policy_factory("margin")


def test_cell_pricing_round_trips_into_scenario_and_policy():
    pricing = {"revenue_per_request": 0.02, "cost_per_core_hour": 0.3}
    spec = _economy_spec(pricing=pricing)
    cells = spec.expanded()
    profit = next(c for c in cells if c.policy == "profit")
    spot = next(c for c in cells if c.policy == "spot-30")
    expected = PricingModel.coerce(pricing)
    assert profit.build_scenario().pricing == expected
    built = profit.policy_factory()()
    assert isinstance(built, ProfitPolicy)
    assert built.pricing == expected
    spot_policy = spot.policy_factory()()
    assert isinstance(spot_policy, SpotPolicy)
    assert spot_policy.spot_fraction == pytest.approx(0.3)
    assert spot_policy.pricing == expected


def test_pricing_changes_the_cell_key():
    plain = _economy_spec().expanded()[0]
    priced = _economy_spec(pricing={"revenue_per_request": 0.02}).expanded()[0]
    assert plain.key() != priced.key()


def test_spec_rejects_unknown_pricing_key_at_load():
    with pytest.raises(ConfigurationError, match="unknown pricing keys"):
        _economy_spec(pricing={"revenue": 0.02})


def test_scenario_label_prefers_block_name():
    cell = _economy_spec(name="web-margin").expanded()[0]
    assert cell.scenario_label() == "web-margin"
    assert _economy_spec().expanded()[0].scenario_label() == "web@1/1000"
