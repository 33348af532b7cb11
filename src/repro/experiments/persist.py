"""Result persistence — JSON round-tripping of experiment outputs.

Long parameter sweeps (the Figure-5 week at low scale factors takes
minutes) should never have to be re-run to re-tabulate: the unified
:class:`~repro.backends.base.RunMetrics` record serializes to plain
JSON with a format header, so saved result sets survive library
upgrades with an explicit version check instead of a silent misparse.

The format is version 3: one ``kind: "metrics"`` entry per result, the
JSON form of :class:`RunMetrics` (backend tag included).  Any other
version, and an entry whose fields are not :class:`RunMetrics`' own, is
rejected with a :class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path
from typing import Any, List, Sequence, Union

from ..backends.base import RunMetrics
from ..errors import ConfigurationError

__all__ = [
    "canonical_json",
    "result_to_dict",
    "result_from_dict",
    "save_results",
    "load_results",
]

#: Format identifier written into every results file.
_FORMAT = "repro-results"
_VERSION = 3

#: RunMetrics field names, in declaration order.
_FIELDS = tuple(f.name for f in dataclasses.fields(RunMetrics))
#: The fields an entry must carry: those without a default.
_REQUIRED = frozenset(
    f.name
    for f in dataclasses.fields(RunMetrics)
    if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
)

_float_repr = float.__repr__
_int_repr = int.__repr__
#: What ``json`` writes for the float reprs that are not JSON numbers.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def canonical_json(value: Any, depth: int = 0) -> str:
    """``json.dumps(value, indent=1, sort_keys=True)``, byte for byte.

    Every results file, campaign manifest and lease is written in this
    layout.  With ``depth``, the text is laid out as it sits ``depth``
    levels deep inside a larger document: each line after the first is
    indented ``depth`` more spaces.

    Dicts with str keys, lists, tuples and str/int/float/bool/None
    leaves (exact types) are encoded here, with the stdlib's own leaf
    encoders: ``encode_basestring_ascii``, ``float.__repr__``,
    ``int.__repr__`` and ``NaN``/``Infinity``.  Any other subtree (a
    subclass such as an ``IntEnum``, a dict with non-str keys, an
    unknown type) is handed to the stdlib call and re-indented by
    newline replacement.  That is exact because the ``indent=1``
    layout puts each nesting level on its own lines and encoded JSON
    strings never hold a raw newline; it also raises the stdlib's
    ``TypeError`` for values JSON cannot hold.  A circular structure
    raises ``RecursionError`` (the stdlib raises ``ValueError``).
    """
    return _encode(value, "\n" + " " * depth)


def _encode(value: Any, nl: str) -> str:
    """``value`` encoded, each line break in it written as ``nl``.

    ``nl`` is a newline plus the indentation of ``value``'s own level.
    """
    kind = type(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        keys = None
        items = value
    elif kind is dict and all(type(key) is str for key in value):
        if not value:
            return "{}"
        keys = sorted(value)
        items = [value[key] for key in keys]
    elif kind is float:
        text = _float_repr(value)
        return _NONFINITE[text] if "n" in text else text
    elif kind is str:
        return _escape(value)
    elif kind is int:
        return _int_repr(value)
    elif value is None:
        return "null"
    elif value is True:
        return "true"
    elif value is False:
        return "false"
    else:
        return json.dumps(value, indent=1, sort_keys=True).replace("\n", nl)
    inner = nl + " "
    texts = []
    # The common leaves inline (a finite float's repr holds no "n");
    # everything else recurses.
    for item in items:
        kind = type(item)
        if kind is float:
            text = _float_repr(item)
            if "n" in text:
                text = _NONFINITE[text]
        elif kind is str:
            text = _escape(item)
        elif kind is int:
            text = _int_repr(item)
        else:
            text = _encode(item, inner)
        texts.append(text)
    if keys is None:
        return "[" + inner + ("," + inner).join(texts) + nl + "]"
    members = [_escape(key) + ": " + text for key, text in zip(keys, texts)]
    return "{" + inner + ("," + inner).join(members) + nl + "}"


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


def result_from_dict(blob: dict, version: int = _VERSION) -> RunMetrics:
    """Inverse of :func:`result_to_dict` (version-aware).

    Raises
    ------
    ConfigurationError
        If the entry is not a ``metrics`` entry of this format version,
        or its ``data`` is not a dict of :class:`RunMetrics` fields
        holding at least every field without a default.
    """
    kind = blob.get("kind") if isinstance(blob, dict) else None
    if (int(version), kind) != (_VERSION, "metrics"):
        raise ConfigurationError(
            f"unknown result kind {kind!r} for format version {version}"
        )
    data = blob.get("data")
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"a metrics entry's data must be an object, got {type(data).__name__}"
        )
    fields = set(data)
    problems = [
        f"{what} field(s) {', '.join(sorted(names))}"
        for what, names in (
            ("unknown", fields.difference(_FIELDS)),
            ("missing", _REQUIRED - fields),
        )
        if names
    ]
    if problems:
        raise ConfigurationError(f"malformed metrics entry: {'; '.join(problems)}")
    data = dict(data)
    for key in ("fleet_series", "control_series"):
        if key in data:
            data[key] = tuple(tuple(point) for point in data[key])
    return RunMetrics(**data)


def save_results(path: Union[str, Path], results: Sequence[RunMetrics]) -> None:
    """Write a result set to ``path`` as versioned JSON."""
    path = Path(path)
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "results": [result_to_dict(r) for r in results],
    }
    path.write_text(canonical_json(doc))


def load_results(path: Union[str, Path]) -> List[RunMetrics]:
    """Load a result set written by :func:`save_results`.

    Reads the current format (version 3) only.

    Raises
    ------
    ConfigurationError
        If the file is not a repro results file or has an unsupported
        format version.
    """
    path = Path(path)
    doc = json.loads(path.read_text())
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise ConfigurationError(f"{path}: not a repro results file")
    version = doc.get("version")
    if version != _VERSION:
        raise ConfigurationError(
            f"{path}: unsupported results version {version!r} "
            f"(this build reads version {_VERSION})"
        )
    return [result_from_dict(blob, version=version) for blob in doc["results"]]
