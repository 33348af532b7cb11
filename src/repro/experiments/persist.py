"""Result persistence — JSON round-tripping of experiment outputs.

Long parameter sweeps (the Figure-5 week at low scale factors takes
minutes) should never have to be re-run to re-tabulate: the unified
:class:`~repro.backends.base.RunMetrics` record serializes to plain
JSON with a format header, so saved result sets survive library
upgrades with an explicit version check instead of a silent misparse.

Format history
--------------
* **version 2** (current) — one ``kind: "metrics"`` entry per result,
  the JSON form of :class:`RunMetrics` (backend tag included).
* **version 1** — two result kinds: ``"run"`` (the pre-backend
  ``RunResult``) and ``"fluid"`` (the fluid engine's ``FluidResult``).
  :func:`load_results` still reads these, upgrading each blob to a
  :class:`RunMetrics`: ``run`` blobs map field-for-field with
  ``backend="des"``; ``fluid`` blobs carried no identification or
  diagnostics, so ``scenario``/``policy`` load as ``"unknown"``,
  ``seed`` as 0, ``completed`` as the accepted count, and the missing
  counters as 0 (``backend="fluid"``).
"""

from __future__ import annotations

import copy
import dataclasses
import json
from pathlib import Path
from typing import List, Sequence, Union

from ..backends.base import RunMetrics
from ..errors import ConfigurationError

__all__ = ["result_to_dict", "result_from_dict", "save_results", "load_results"]

#: Format identifier written into every results file.
_FORMAT = "repro-results"
_VERSION = 2

#: Fields of a version-1 ``"fluid"`` blob (FluidResult, now retired).
_V1_FLUID_FIELDS = frozenset(
    {
        "total_requests",
        "accepted",
        "rejected",
        "rejection_rate",
        "mean_response_time",
        "min_instances",
        "max_instances",
        "vm_hours",
        "utilization",
        "fleet_series",
    }
)


#: RunMetrics field names, in declaration order.
_FIELDS = tuple(f.name for f in dataclasses.fields(RunMetrics))


def result_to_dict(result: RunMetrics) -> dict:
    """Serialize one result to a JSON-safe dict (with a ``kind`` tag)."""
    if not isinstance(result, RunMetrics):
        raise ConfigurationError(
            f"cannot serialize {type(result).__name__}; expected RunMetrics"
        )
    # What ``dataclasses.asdict`` returns, without its recursive copy of
    # the (immutable) series tuples: only dict and list values can be
    # mutated through the payload, so only those are deep-copied.
    # Tuples (fleet/control series) become lists in JSON; normalized on
    # load.
    payload = {}
    for name in _FIELDS:
        value = getattr(result, name)
        payload[name] = copy.deepcopy(value) if isinstance(value, (dict, list)) else value
    return {"kind": "metrics", "data": payload}


def _series(data: dict, key: str) -> None:
    if key in data:
        data[key] = tuple(tuple(point) for point in data[key])


def _from_metrics(data: dict) -> RunMetrics:
    _series(data, "fleet_series")
    _series(data, "control_series")
    return RunMetrics(**data)


def _from_v1_run(data: dict) -> RunMetrics:
    # A v1 "run" blob is a RunMetrics minus the backend split's fields.
    data.setdefault("backend", "des")
    data.setdefault("control_series", ())
    return _from_metrics(data)


def _from_v1_fluid(data: dict) -> RunMetrics:
    unknown = set(data) - _V1_FLUID_FIELDS
    if unknown:
        raise ConfigurationError(
            f"v1 fluid result has unexpected fields {sorted(unknown)}"
        )
    _series(data, "fleet_series")
    return RunMetrics(
        scenario="unknown",
        policy="unknown",
        seed=0,
        total_requests=data["total_requests"],
        accepted=data["accepted"],
        completed=data["accepted"],
        rejected=data["rejected"],
        rejection_rate=data["rejection_rate"],
        mean_response_time=data["mean_response_time"],
        response_time_std=0.0,
        qos_violations=0,
        min_instances=data["min_instances"],
        max_instances=data["max_instances"],
        vm_hours=data["vm_hours"],
        core_hours=data["vm_hours"],
        failures=0,
        lost_requests=0,
        utilization=data["utilization"],
        wall_seconds=0.0,
        events=0,
        fleet_series=data.get("fleet_series", ()),
        control_series=data.get("fleet_series", ()),
        backend="fluid",
    )


#: (version, kind) → decoder.
_DECODERS = {
    (2, "metrics"): _from_metrics,
    (1, "run"): _from_v1_run,
    (1, "fluid"): _from_v1_fluid,
}

_SUPPORTED_VERSIONS = frozenset(v for v, _ in _DECODERS)


def result_from_dict(blob: dict, version: int = _VERSION) -> RunMetrics:
    """Inverse of :func:`result_to_dict` (version-aware)."""
    kind = blob.get("kind")
    decoder = _DECODERS.get((int(version), kind))
    if decoder is None:
        raise ConfigurationError(
            f"unknown result kind {kind!r} for format version {version}"
        )
    return decoder(dict(blob["data"]))


def save_results(path: Union[str, Path], results: Sequence[RunMetrics]) -> None:
    """Write a result set to ``path`` as versioned JSON."""
    path = Path(path)
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "results": [result_to_dict(r) for r in results],
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))


def load_results(path: Union[str, Path]) -> List[RunMetrics]:
    """Load a result set written by :func:`save_results`.

    Reads the current format (version 2) and transparently upgrades
    version-1 files written before the backend unification.

    Raises
    ------
    ConfigurationError
        If the file is not a repro results file or has an unsupported
        format version.
    """
    path = Path(path)
    doc = json.loads(path.read_text())
    if doc.get("format") != _FORMAT:
        raise ConfigurationError(f"{path}: not a repro results file")
    version = doc.get("version")
    if version not in _SUPPORTED_VERSIONS:
        raise ConfigurationError(
            f"{path}: unsupported results version {version!r} "
            f"(this build reads versions {sorted(_SUPPORTED_VERSIONS)})"
        )
    return [result_from_dict(blob, version=version) for blob in doc["results"]]
