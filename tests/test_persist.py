"""Tests of result persistence (the v2 schema and its rejection paths)."""

from __future__ import annotations

import json

import pytest

from repro.backends import RunMetrics
from repro.core import StaticPolicy
from repro.errors import ConfigurationError
from repro.experiments import run_policy, web_scenario
from repro.experiments.persist import (
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
    # Version 1 (the pre-backend "run"/"fluid" blobs) is no longer read.
    for version in (1, 999):
        path = tmp_path / f"v{version}.json"
        doc = {"format": "repro-results", "version": version, "results": []}
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match="unsupported results version"):
            load_results(path)


def test_rejects_unknown_kind():
    with pytest.raises(ConfigurationError):
        result_from_dict({"kind": "mystery", "data": {}})


def test_rejects_v2_legacy_kinds():
    # The retired v1 kinds are not valid in a v2 file.
    with pytest.raises(ConfigurationError):
        result_from_dict({"kind": "run", "data": {}}, version=2)


def test_rejects_non_result_objects():
    with pytest.raises(ConfigurationError):
        result_to_dict({"not": "a result"})  # type: ignore[arg-type]
