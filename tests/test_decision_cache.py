"""Tests of the quantized LRU decision cache on PerformanceModeler.decide."""

from __future__ import annotations

import pytest

from repro.core import PerformanceModeler, QoSTarget
from repro.errors import ConfigurationError

WEB_QOS = QoSTarget(max_response_time=0.250, min_utilization=0.80)


def modeler(**kw) -> PerformanceModeler:
    defaults = dict(qos=WEB_QOS, capacity=2, max_vms=8000)
    defaults.update(kw)
    return PerformanceModeler(**defaults)


def test_cached_decision_equals_fresh_decide_across_rate_sweep():
    cached = modeler()
    sweep = [50.0, 120.0, 400.0, 800.0, 1200.0, 2500.0]
    first = {lam: cached.decide(lam, 0.105, 100) for lam in sweep}
    for lam in sweep:  # second pass: all hits
        again = cached.decide(lam, 0.105, 100)
        fresh = modeler().decide(lam, 0.105, 100)
        assert again == first[lam]
        assert again.instances == fresh.instances
        assert again.meets_qos == fresh.meets_qos
        assert again.predicted == fresh.predicted
    assert cached.cache_hits == len(sweep)
    assert cached.cache_misses == len(sweep)


def test_hit_and_miss_counters_and_info():
    m = modeler()
    assert m.cache_info() == {"hits": 0, "misses": 0, "size": 0, "maxsize": 256}
    m.decide(800.0, 0.105, 100)
    assert (m.cache_hits, m.cache_misses) == (0, 1)
    m.decide(800.0, 0.105, 100)
    assert (m.cache_hits, m.cache_misses) == (1, 1)
    m.decide(800.0, 0.105, 50)  # different start point -> different key
    assert (m.cache_hits, m.cache_misses) == (1, 2)
    assert m.cache_info()["size"] == 2


def test_quantization_collapses_near_identical_inputs():
    m = modeler()
    d1 = m.decide(800.0, 0.105, 100)
    # λ and T_m wobbling beyond 3 significant digits land on the same line.
    d2 = m.decide(800.2, 0.10502, 100)
    assert d2 is d1
    assert m.cache_hits == 1
    # A genuinely different rate misses.
    m.decide(808.0, 0.105, 100)
    assert m.cache_misses == 2


def test_qos_reassignment_invalidates_cache():
    m = modeler()
    # Start from a heavily overprovisioned fleet: the 80 % utilization
    # floor forces the shrink bisection down to ~100 instances.
    tight = m.decide(800.0, 0.105, 500)
    assert tight.instances < 400
    m.qos = QoSTarget(max_response_time=0.250, min_utilization=0.10)
    assert m.cache_info()["size"] == 0
    loose = m.decide(800.0, 0.105, 500)
    # Same inputs, new contract: a 10 % floor accepts the start point,
    # so a stale cache line would have returned the wrong fleet size.
    assert loose.instances == 500
    assert loose.instances != tight.instances
    assert m.cache_hits == 0 and m.cache_misses == 2


def test_clear_cache_preserves_counters():
    m = modeler()
    m.decide(800.0, 0.105, 100)
    m.decide(800.0, 0.105, 100)
    m.clear_cache()
    assert m.cache_info() == {"hits": 1, "misses": 1, "size": 0, "maxsize": 256}
    m.decide(800.0, 0.105, 100)
    assert m.cache_misses == 2


def test_lru_eviction_bounds_size_and_drops_oldest():
    m = modeler(decision_cache_size=4)
    for lam in (100.0, 200.0, 300.0, 400.0):
        m.decide(lam, 0.105, 100)
    m.decide(100.0, 0.105, 100)  # refresh λ=100 to most-recent
    m.decide(500.0, 0.105, 100)  # evicts λ=200, the least recent
    assert m.cache_info()["size"] == 4
    m.decide(100.0, 0.105, 100)
    assert m.cache_hits == 2  # still cached
    hits_before = m.cache_hits
    m.decide(200.0, 0.105, 100)  # was evicted -> miss
    assert m.cache_hits == hits_before


def test_cache_disabled_never_counts():
    m = modeler(decision_cache_size=0)
    for _ in range(3):
        m.decide(800.0, 0.105, 100)
    assert m.cache_info() == {"hits": 0, "misses": 0, "size": 0, "maxsize": 0}


def test_cache_config_validation():
    with pytest.raises(ConfigurationError):
        modeler(decision_cache_size=-1)


def test_zero_rate_short_circuit_is_cached_too():
    m = modeler(min_vms=3)
    d1 = m.decide(0.0, 0.105, 100)
    d2 = m.decide(0.0, 0.105, 100)
    assert d1.instances == d2.instances == 3
    assert m.cache_hits == 1
