"""Campaign spec loading, validation, and grid-expansion properties."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaigns import CampaignSpec
from repro.errors import ConfigurationError
from repro.experiments.seeds import parse_seeds


def _spec_dict(**overrides):
    base = {
        "campaign": {"name": "t"},
        "scenarios": [
            {
                "scenario": "web",
                "scale": 5000.0,
                "horizon": 43200.0,
                "policies": ["adaptive", "static-60"],
                "backends": ["fluid"],
                "seeds": "0-1",
            }
        ],
    }
    base.update(overrides)
    return base


# ----------------------------------------------------------------------
# Seed grammar (shared helper)
# ----------------------------------------------------------------------
def test_parse_seeds_comma_list():
    assert parse_seeds("0,1,2") == [0, 1, 2]


def test_parse_seeds_range():
    assert parse_seeds("0-9") == list(range(10))


def test_parse_seeds_mixed_preserves_written_order():
    assert parse_seeds("4-6,1,10-11") == [4, 5, 6, 1, 10, 11]


def test_parse_seeds_int_and_iterable():
    assert parse_seeds(7) == [7]
    assert parse_seeds((3, 1)) == [3, 1]


def test_parse_seeds_rejects_garbage_and_empty_range():
    with pytest.raises(ConfigurationError):
        parse_seeds("a,b")
    with pytest.raises(ConfigurationError):
        parse_seeds("5-3")


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def test_unknown_scenario_rejected():
    raw = _spec_dict()
    raw["scenarios"][0]["scenario"] = "nope"
    with pytest.raises(ConfigurationError, match="unknown scenario"):
        CampaignSpec.from_dict(raw)


def test_unknown_policy_and_backend_rejected():
    raw = _spec_dict()
    raw["scenarios"][0]["policies"] = ["dynamic"]
    with pytest.raises(ConfigurationError, match="unknown policy"):
        CampaignSpec.from_dict(raw)
    raw = _spec_dict()
    raw["scenarios"][0]["backends"] = ["gpu"]
    with pytest.raises(ConfigurationError, match="unknown backend"):
        CampaignSpec.from_dict(raw)


def test_figure_cross_reference_validated_against_experiments():
    raw = _spec_dict()
    raw["scenarios"][0]["figure"] = "fig5"
    CampaignSpec.from_dict(raw)  # known id is fine
    raw["scenarios"][0]["figure"] = "fig99"
    with pytest.raises(ConfigurationError, match="known experiment id"):
        CampaignSpec.from_dict(raw)


def test_bad_scenario_params_rejected_at_load_time():
    raw = _spec_dict()
    raw["scenarios"][0]["horizon"] = -5.0
    with pytest.raises(ConfigurationError):
        CampaignSpec.from_dict(raw)


@pytest.mark.parametrize(
    "param, literal",
    [
        ("lead_time", "inf"),
        ("lead_time", "nan"),
        ("boot_delay", "nan"),
        ("num_hosts", "0"),
        ("rate_sample_interval", "nan"),
    ],
)
def test_non_finite_timing_and_empty_datacenter_rejected_at_load_time(tmp_path, param, literal):
    """A TOML ``inf``/``nan`` timing value or an empty data center fails
    at spec load; an infinite lead time would otherwise hang the cell's
    worker, a NaN sampling cadence fail its des run, and a zero-host
    data center fail every attempt."""
    path = tmp_path / "c.toml"
    path.write_text(
        '[campaign]\nname = "t"\n\n[[scenarios]]\nscenario = "web"\nscale = 5000.0\n'
        'horizon = "day"\npolicies = ["adaptive"]\nbackends = ["fluid"]\n'
        f"{param} = {literal}\n"
    )
    with pytest.raises(ConfigurationError, match=param):
        CampaignSpec.load(path)


def test_unknown_top_level_key_rejected():
    raw = _spec_dict(extras={"x": 1})
    with pytest.raises(ConfigurationError, match="unknown top-level"):
        CampaignSpec.from_dict(raw)


def test_horizon_aliases():
    raw = _spec_dict()
    raw["scenarios"][0]["horizon"] = "day"
    spec = CampaignSpec.from_dict(raw)
    assert spec.expanded()[0].build_scenario().horizon == 86_400.0


# ----------------------------------------------------------------------
# Expansion determinism (the property the store depends on)
# ----------------------------------------------------------------------
policies_st = st.lists(
    st.sampled_from(["adaptive", "static-20", "static-60", "static-100"]),
    min_size=1,
    max_size=3,
    unique=True,
)
backends_st = st.lists(
    st.sampled_from(["des", "fluid"]), min_size=1, max_size=2, unique=True
)
seeds_st = st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(policies=policies_st, backends=backends_st, seeds=seeds_st)
def test_expansion_is_deterministic_duplicate_free_order_stable(
    policies, backends, seeds
):
    raw = _spec_dict()
    raw["scenarios"][0].update(
        policies=policies, backends=backends, seeds=list(seeds)
    )
    spec = CampaignSpec.from_dict(raw)
    cells = spec.expanded()
    # Deterministic: a second expansion (and a reload) gives identical cells.
    assert spec.expanded() == cells
    assert CampaignSpec.from_dict(raw).expanded() == cells
    # Duplicate-free: content keys are unique.
    keys = [c.key() for c in cells]
    assert len(set(keys)) == len(keys)
    # Complete: one cell per (backend, policy, canonical seed).
    assert len(cells) == len(backends) * len(policies) * len(set(seeds))
    # Order-stable: seed order in the spec is irrelevant.
    raw["scenarios"][0]["seeds"] = list(reversed(seeds))
    assert CampaignSpec.from_dict(raw).expanded() == cells


def test_duplicate_cells_across_blocks_collapse():
    raw = _spec_dict()
    raw["scenarios"].append(dict(raw["scenarios"][0]))
    spec = CampaignSpec.from_dict(raw)
    assert len(spec.expanded()) == 4  # not 8


def test_cell_key_is_stable_content_hash():
    spec = CampaignSpec.from_dict(_spec_dict())
    a, b = spec.expanded()[0], spec.expanded()[0]
    assert a.key() == b.key()
    # Any configuration change moves the key.
    import dataclasses

    assert dataclasses.replace(a, seed=99).key() != a.key()
    assert dataclasses.replace(a, backend="des").key() != a.key()


def test_cell_key_is_hashed_once_and_kept_out_of_equality_and_pickles(monkeypatch):
    import copy
    import dataclasses
    import hashlib
    import pickle

    import repro.campaigns.spec as spec_module

    calls = []

    class CountingHashlib:
        @staticmethod
        def sha256(data):
            calls.append(data)
            return hashlib.sha256(data)

    monkeypatch.setattr(spec_module, "hashlib", CountingHashlib)
    expanded = CampaignSpec.from_dict(_spec_dict()).expanded()[0]
    cell, fresh = dataclasses.replace(expanded), dataclasses.replace(expanded)
    calls.clear()
    key = cell.key()
    assert [cell.key() for _ in range(5)] == [key] * 5
    assert len(calls) == 1
    # The kept key changes neither equality, hashing nor the pickle.
    assert cell == fresh and hash(cell) == hash(fresh)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.dumps(cell, protocol) == pickle.dumps(fresh, protocol)
    assert pickle.loads(pickle.dumps(cell)).key() == key
    assert copy.deepcopy(cell).key() == fresh.key() == key


def test_quick_cells_hash_differently_and_apply_overrides():
    raw = _spec_dict()
    raw["scenarios"][0]["quick"] = {"horizon": 3600.0, "seeds": "0"}
    spec = CampaignSpec.from_dict(raw)
    full, quick = spec.expanded(), spec.expanded(quick=True)
    assert len(quick) == 2  # seeds trimmed to {0}
    assert quick[0].build_scenario().horizon == 3600.0
    assert {c.key() for c in full}.isdisjoint({c.key() for c in quick})


# ----------------------------------------------------------------------
# File loading
# ----------------------------------------------------------------------
def test_load_json_spec(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_spec_dict()))
    spec = CampaignSpec.load(path)
    assert spec.name == "t"
    assert len(spec.expanded()) == 4


def test_load_missing_spec():
    with pytest.raises(ConfigurationError, match="not found"):
        CampaignSpec.load("/nonexistent/campaign.toml")


def test_shipped_specs_load_and_expand():
    tomllib = pytest.importorskip("tomllib")  # noqa: F841 - py3.11+ only
    paper = CampaignSpec.load("campaigns/paper.toml")
    cells = paper.expanded()
    # fig5 + fig5-fullscale + fig6(x3 seeds) + fig6-fullscale(x3 seeds)
    assert len(cells) == 6 + 6 + 18 + 18
    assert len(paper.expanded(quick=True)) == 6 + 6 + 6 + 6
    # The full §V grid now runs entirely on the DES (scalar + vectorized);
    # the fluid engine participates as each cell's prescreen twin.
    assert {c.backend for c in cells} == {"des", "des-vec"}
    smoke = CampaignSpec.load("campaigns/smoke.toml")
    assert len(smoke.expanded()) == 4


def test_adaptive_policy_inherits_scenario_cadence():
    raw = _spec_dict()
    raw["scenarios"][0].update(scenario="scientific", scale=1.0, horizon="day")
    spec = CampaignSpec.from_dict(raw)
    adaptive = [c for c in spec.expanded() if c.policy == "adaptive"][0]
    policy = adaptive.policy_factory()()
    assert policy.update_interval == 1800.0  # scientific cadence, not the 900 s default
