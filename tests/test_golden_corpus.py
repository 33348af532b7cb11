"""The golden-run corpus is reproduced exactly (see golden_corpus.py)."""

from __future__ import annotations

import json
import math

from golden_corpus import CORPUS, FORMAT, VERSION, compute, diff


def test_corpus_is_reproduced():
    want = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert (want["format"], want["version"]) == (FORMAT, VERSION)
    problems = diff(want, compute())
    assert not problems, "\n".join([f"{len(problems)} difference(s):"] + problems[:40])


def test_diff_tolerates_rel_1e12_only_outside_series():
    want = {"m": {"mean": 1.0, "fleet_series": [[0.5, 3]]}}
    assert diff(want, {"m": {"mean": 1.0 + 2e-13, "fleet_series": [[0.5, 3]]}}) == []
    assert diff(want, {"m": {"mean": 1.0 + 1e-11, "fleet_series": [[0.5, 3]]}})
    assert diff(want, {"m": {"mean": 1.0, "fleet_series": [[math.nextafter(0.5, 1.0), 3]]}})
    assert diff(want, {"m": {"mean": 1.0, "fleet_series": [[0.5, 4]]}})
    # An integer count never passes as a float, nor a missing key as present.
    assert diff({"n": 3}, {"n": 3.0})
    assert diff(want, {"m": {"mean": 1.0}})
