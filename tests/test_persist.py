"""Tests of result persistence (the v3 schema and its rejection paths)."""

from __future__ import annotations

import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import RunMetrics
from repro.core import StaticPolicy
from repro.errors import ConfigurationError
from repro.experiments import run_policy, web_scenario
from repro.experiments.persist import (
    canonical_json,
    load_results,
    result_from_dict,
    result_to_dict,
    save_results,
)


@pytest.fixture(scope="module")
def scenario():
    return web_scenario(scale=5000.0, horizon=2 * 3600.0, track_fleet_series=True)


@pytest.fixture(scope="module")
def des_result(scenario):
    return run_policy(scenario, StaticPolicy(20), seed=0)


@pytest.fixture(scope="module")
def fluid_result(scenario):
    return run_policy(scenario, StaticPolicy(20), seed=0, backend="fluid")


def test_des_result_roundtrip(tmp_path, des_result):
    path = tmp_path / "results.json"
    save_results(path, [des_result])
    loaded = load_results(path)
    assert loaded == [des_result]
    assert loaded[0].backend == "des"


def test_fluid_result_roundtrip(tmp_path, fluid_result):
    path = tmp_path / "fluid.json"
    assert fluid_result.backend == "fluid"
    save_results(path, [fluid_result])
    assert load_results(path) == [fluid_result]


def test_mixed_results_roundtrip(tmp_path, des_result, fluid_result):
    path = tmp_path / "mixed.json"
    save_results(path, [des_result, fluid_result])
    loaded = load_results(path)
    assert loaded[0] == des_result
    assert loaded[1] == fluid_result
    assert [r.backend for r in loaded] == ["des", "fluid"]


def test_dict_roundtrip_preserves_series(des_result):
    blob = result_to_dict(des_result)
    restored = result_from_dict(json.loads(json.dumps(blob)))
    assert restored.fleet_series == des_result.fleet_series
    assert isinstance(restored.fleet_series, tuple)
    assert restored.control_series == des_result.control_series
    assert isinstance(restored.control_series, tuple)


# ----------------------------------------------------------------------
# rejection paths
# ----------------------------------------------------------------------
def test_rejects_foreign_files(tmp_path):
    path = tmp_path / "foreign.json"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ConfigurationError):
        load_results(path)


def test_rejects_future_versions(tmp_path):
    # Version 1 (the pre-backend "run"/"fluid" blobs) is no longer read,
    # nor version 2 (whose metrics carried a ``compactions`` field).
    for version in (1, 2, 999):
        path = tmp_path / f"v{version}.json"
        doc = {"format": "repro-results", "version": version, "results": []}
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match="unsupported results version"):
            load_results(path)


def test_rejects_unknown_kind():
    with pytest.raises(ConfigurationError):
        result_from_dict({"kind": "mystery", "data": {}})


def test_rejects_v2_legacy_kinds():
    # The retired v1 kinds are not valid in a current file.
    with pytest.raises(ConfigurationError):
        result_from_dict({"kind": "run", "data": {}}, version=3)


def test_rejects_unknown_fields():
    with pytest.raises(ConfigurationError, match="unknown field\\(s\\) bogus"):
        result_from_dict({"kind": "metrics", "data": {"bogus": 1}})


def test_rejects_missing_fields(des_result):
    blob = result_to_dict(des_result)
    del blob["data"]["seed"], blob["data"]["events"]
    with pytest.raises(ConfigurationError, match="missing field\\(s\\) events, seed"):
        result_from_dict(blob)


def test_fields_with_defaults_may_be_omitted(des_result):
    blob = result_to_dict(des_result)
    del blob["data"]["revenue"]
    assert result_from_dict(blob) == des_result


def test_rejects_a_current_file_that_carries_compactions(tmp_path, des_result):
    path = tmp_path / "stale.json"
    save_results(path, [des_result])
    doc = json.loads(path.read_text())
    doc["results"][0]["data"]["compactions"] = 0
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError, match="unknown field\\(s\\) compactions"):
        load_results(path)


@pytest.mark.parametrize("data", [None, [], "metrics"])
def test_rejects_data_that_is_not_an_object(data):
    with pytest.raises(ConfigurationError, match="must be an object"):
        result_from_dict({"kind": "metrics", "data": data})


def test_rejects_non_result_objects():
    with pytest.raises(ConfigurationError):
        result_to_dict({"not": "a result"})  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# canonical_json is json.dumps(value, indent=1, sort_keys=True), byte for byte
# ---------------------------------------------------------------------------
class _Level(enum.IntEnum):
    LOW = 0
    HIGH = 7


class _Seconds(float):
    pass


_floats = st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0])
_ints = st.integers() | st.sampled_from([2**63, -(2**63) - 1, 10**30, -(2**70)])
_strings = st.text(max_size=8) | st.text(
    alphabet=st.sampled_from(list('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600 a')),
    max_size=8,
)
_leaves = (
    st.none()
    | st.booleans()
    | _ints
    | _floats
    | _strings
    | st.sampled_from(list(_Level))
    | _floats.map(_Seconds)
)
# Dicts whose keys are not all str, and sort among themselves, take the
# stdlib fallback.
_other_keys = _ints | st.floats(allow_nan=False) | st.booleans()
_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_strings, inner, max_size=4)
    | st.dictionaries(_other_keys, inner, max_size=3),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(value=_values, depth=st.integers(0, 3))
def test_canonical_json_is_the_stdlib_indent1_encoding(value, depth):
    want = json.dumps(value, indent=1, sort_keys=True)
    assert canonical_json(value) == want
    assert canonical_json(value, depth=depth) == want.replace("\n", "\n" + " " * depth)


def test_canonical_json_raises_what_the_stdlib_raises():
    for value in ({"a": {1: 0, "b": 0}}, [object()], {"k": {1, 2}}):
        with pytest.raises(TypeError):
            json.dumps(value, indent=1, sort_keys=True)
        with pytest.raises(TypeError):
            canonical_json(value)


def test_save_results_writes_the_canonical_layout(tmp_path, des_result, fluid_result):
    path = tmp_path / "results.json"
    save_results(path, [des_result, fluid_result])
    text = path.read_text()
    assert text == json.dumps(json.loads(text), indent=1, sort_keys=True)
