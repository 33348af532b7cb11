"""Tests of the process-pool replication runner (repro.backends.pool via run_replications)."""

from __future__ import annotations

import dataclasses
import logging
import pickle

import pytest

from repro.core import AdaptivePolicy, StaticPolicy
from repro.experiments import PolicySpec, run_replications, web_scenario

SEEDS = (0, 1, 2, 3)


def small_scenario(**overrides):
    defaults = dict(scale=5000.0, horizon=4 * 3600.0, track_fleet_series=True)
    defaults.update(overrides)
    return web_scenario(**defaults)


def strip_wall(result):
    """wall_seconds is the one nondeterministic diagnostic field."""
    return dataclasses.replace(result, wall_seconds=0.0)


def test_parallel_matches_sequential_bit_identical_adaptive():
    sc = small_scenario()
    spec = PolicySpec(AdaptivePolicy)
    seq = run_replications(sc, spec, seeds=SEEDS, workers=1)
    par = run_replications(sc, spec, seeds=SEEDS, workers=4)
    assert [strip_wall(r) for r in seq] == [strip_wall(r) for r in par]
    # fleet_series is part of the dataclass equality above, but make the
    # trajectory comparison explicit — it is the strongest determinism
    # signal (every scaling action at the exact same instant).
    for a, b in zip(seq, par):
        assert a.fleet_series == b.fleet_series
        assert a.fleet_series  # tracking was on; trajectory non-trivial


def test_parallel_matches_sequential_static():
    sc = small_scenario(track_fleet_series=False)
    spec = PolicySpec(StaticPolicy, 20)
    seq = run_replications(sc, spec, seeds=(0, 1), workers=1)
    par = run_replications(sc, spec, seeds=(0, 1), workers=2)
    assert [strip_wall(r) for r in seq] == [strip_wall(r) for r in par]


def test_results_come_back_in_seed_order():
    sc = small_scenario(track_fleet_series=False)
    results = run_replications(
        sc, PolicySpec(StaticPolicy, 10), seeds=(3, 0, 2, 1), workers=2
    )
    assert [r.seed for r in results] == [3, 0, 2, 1]


def test_chunk_size_does_not_change_results():
    sc = small_scenario(track_fleet_series=False)
    spec = PolicySpec(StaticPolicy, 10)
    a = run_replications(sc, spec, seeds=SEEDS, workers=2, chunk_size=1)
    b = run_replications(sc, spec, seeds=SEEDS, workers=2, chunk_size=4)
    assert [strip_wall(r) for r in a] == [strip_wall(r) for r in b]


def test_unpicklable_factory_falls_back_sequentially_with_log_warning(caplog):
    sc = small_scenario(track_fleet_series=False)
    with caplog.at_level(logging.WARNING, logger="repro.backends.pool"):
        results = run_replications(
            sc, lambda: StaticPolicy(10), seeds=(0, 1), workers=2
        )
    assert [r.seed for r in results] == [0, 1]
    records = [
        r for r in caplog.records if r.name == "repro.backends.pool"
    ]
    assert len(records) == 1
    assert records[0].levelno == logging.WARNING
    message = records[0].getMessage()
    assert "reason=unpicklable-work-item" in message
    assert "PolicySpec" in message


def test_workers_one_is_plain_sequential_no_pool():
    sc = small_scenario(track_fleet_series=False)
    results = run_replications(sc, lambda: StaticPolicy(10), seeds=(0,), workers=1)
    assert len(results) == 1


def test_policy_spec_builds_fresh_instances_and_pickles():
    spec = PolicySpec(StaticPolicy, 25)
    p1, p2 = spec(), spec()
    assert p1 is not p2
    assert p1.instances == p2.instances == 25
    clone = pickle.loads(pickle.dumps(spec))
    assert clone().instances == 25
    kw = PolicySpec(AdaptivePolicy, update_interval=1800.0)
    assert pickle.loads(pickle.dumps(kw))().update_interval == 1800.0


def test_adaptive_cache_counters_deterministic_across_backends():
    sc = small_scenario(track_fleet_series=False)
    spec = PolicySpec(AdaptivePolicy)
    seq = run_replications(sc, spec, seeds=(0, 1), workers=1)
    par = run_replications(sc, spec, seeds=(0, 1), workers=2)
    assert [(r.cache_hits, r.cache_misses) for r in seq] == [
        (r.cache_hits, r.cache_misses) for r in par
    ]
    assert all(r.cache_misses > 0 for r in seq)
