"""The golden-run corpus: what a fixed set of runs produced, committed.

Refactors promise "same behaviour".  This module turns that promise into
a standing check: it runs a fixed grid of cells and compares every
output with ``tests/golden/corpus.json``.  The grid is:

* des, des-vec and fluid × {Adaptive, Static-20, priced Profit, priced
  Spot-30} × seeds 0–1 on the web workload at rate scale 1/2000 over
  6 h;
* a saturated Static-20 at web@1/400 on des and des-vec (most of its
  des-vec spans take the event-granular path);
* scientific Adaptive on all three backends;
* Vertical-20 on des (the only backend that runs it) on the same web
  scenario and seeds.

Every run is metered and traced (control-plane events, as ``repro run
--trace`` writes them).  Per run the corpus records the
:class:`~repro.backends.base.RunMetrics` fields without
``wall_seconds``, with ``profile`` cut down to its deterministic
counters, and ``telemetry`` on its own with the histogram bounds every
snapshot repeats kept once.  It also records the event count and a
digest of the JSONL trace.  Integers, strings and the
fleet/control series compare exactly; every other float compares to a
relative 1e-12.  The digest is taken over a canonical form of the trace
with floats rounded to 13 significant digits, so it holds to the same
tolerance.

numpy's SIMD transcendental functions may differ by an ULP across CPUs.
A mismatch on a new host is a finding to explain, not a reason to
regenerate.  Regenerate only when a change is meant to alter behaviour,
and say why in CHANGES.md::

    PYTHONPATH=src python tests/golden_corpus.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

from repro.core import AdaptivePolicy, StaticPolicy, VerticalScalingPolicy
from repro.economy import PricingModel, ProfitPolicy, SpotPolicy
from repro.experiments import (
    PolicySpec,
    run_replications,
    scientific_scenario,
    web_scenario,
)
from repro.obs.bus import TraceConfig
from repro.obs.metrics import MetricsConfig
from repro.obs.schema import CONTROL_EVENTS

CORPUS = Path(__file__).resolve().parent / "golden" / "corpus.json"
FORMAT = "repro-golden"
VERSION = 1

#: Relative tolerance of every float outside the exact series.
REL_TOL = 1e-12
#: Keys whose values compare exactly, floats included.
EXACT_KEYS = frozenset({"fleet_series", "control_series"})

BACKENDS = ("des", "des-vec", "fluid")
SEEDS = (0, 1)
HORIZON = 6 * 3600.0
PRICING = PricingModel(
    revenue_per_request=0.002,
    cost_per_core_hour=0.1,
    sla_penalty=0.05,
    spot_mtbf=1800.0,
)


def cells() -> List[tuple]:
    """``(backend, scenario, policy factory, seeds)`` for every cell."""
    web = web_scenario(scale=2000.0, horizon=HORIZON, track_fleet_series=True)
    priced = web.with_updates(pricing=PRICING)
    saturated = web_scenario(scale=400.0, horizon=HORIZON, track_fleet_series=True)
    scientific = scientific_scenario(track_fleet_series=True)
    out = []
    for backend in BACKENDS:
        out += [
            (backend, web, PolicySpec(AdaptivePolicy), SEEDS),
            (backend, web, PolicySpec(StaticPolicy, 20), SEEDS),
            (backend, priced, PolicySpec(ProfitPolicy, pricing=PRICING), SEEDS),
            (backend, priced, PolicySpec(SpotPolicy, 0.3, pricing=PRICING), SEEDS),
        ]
    for backend in ("des", "des-vec"):
        out.append((backend, saturated, PolicySpec(StaticPolicy, 20), (0,)))
    for backend in BACKENDS:
        out.append(
            (backend, scientific, PolicySpec(AdaptivePolicy, update_interval=1800.0), SEEDS)
        )
    out.append(("des", web, PolicySpec(VerticalScalingPolicy, 20), SEEDS))
    return out


def _round_floats(value):
    if isinstance(value, float):
        return float(f"{value:.12e}") if math.isfinite(value) else value
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_round_floats(v) for v in value]
    return value


def trace_digest(path: Path) -> Dict[str, object]:
    """Event count and sha256 of a JSONL trace, floats to 13 digits."""
    digest = hashlib.sha256()
    events = 0
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            event = _round_floats(json.loads(line))
            digest.update(json.dumps(event, sort_keys=True).encode("utf-8"))
            digest.update(b"\n")
            events += 1
    return {"events": events, "sha256": digest.hexdigest()}


def record(result, trace_path: Path) -> Dict[str, object]:
    """The corpus entry of one run."""
    fields = {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name not in ("wall_seconds", "profile", "telemetry")
    }
    fields["profile_counters"] = result.profile.get("counters", {})
    # Every snapshot repeats the histogram bounds; keep each list once.
    telemetry = dict(result.telemetry)
    snapshots = [dict(s) for s in telemetry.pop("snapshots", [])]
    bounds: List[list] = []
    for snapshot in snapshots:
        b = snapshot.pop("bounds", None)
        if b is not None and b not in bounds:
            bounds.append(b)
    telemetry["snapshots"] = snapshots
    telemetry["snapshot_bounds"] = bounds
    entry = {
        "metrics": fields,
        "telemetry": telemetry,
        "trace": trace_digest(trace_path),
    }
    # The JSON round trip turns tuples into lists, as in the file.
    return json.loads(json.dumps(entry))


def compute() -> Dict[str, object]:
    """Run every cell and return the corpus document."""
    runs: Dict[str, object] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (backend, scenario, factory, seeds) in enumerate(cells()):
            cell_dir = Path(tmp) / str(i)
            trace = TraceConfig(
                sink="jsonl",
                path=str(cell_dir / "s{seed}.jsonl"),
                events=tuple(sorted(CONTROL_EVENTS)),
            )
            results = run_replications(
                scenario,
                factory,
                seeds=seeds,
                trace=trace,
                backend=backend,
                metrics=MetricsConfig(),
            )
            for result in results:
                key = f"{backend}/{result.scenario}/{result.policy}/s{result.seed}"
                runs[key] = record(result, cell_dir / f"s{result.seed}.jsonl")
    return {"format": FORMAT, "version": VERSION, "runs": runs}


def _same_float(want: float, got: float) -> bool:
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)


def diff(want, got, path: str = "", exact: bool = False) -> List[str]:
    """Human-readable differences of ``got`` from ``want`` (empty = same)."""
    if isinstance(want, dict) and isinstance(got, dict):
        problems: List[str] = []
        for key in sorted(set(want) | set(got)):
            where = f"{path}/{key}"
            if key not in got:
                problems.append(f"{where}: missing")
            elif key not in want:
                problems.append(f"{where}: not in the corpus")
            else:
                problems += diff(want[key], got[key], where, exact or key in EXACT_KEYS)
        return problems
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{path}: length {len(got)}, corpus has {len(want)}"]
        problems = []
        for i, (w, g) in enumerate(zip(want, got)):
            problems += diff(w, g, f"{path}[{i}]", exact)
        return problems
    if type(want) is not type(got):
        return [f"{path}: {got!r} ({type(got).__name__}), corpus has {want!r}"]
    if isinstance(want, float) and not exact:
        same = _same_float(want, got)
    else:
        same = want == got or (want != want and got != got)  # NaN equals NaN
    return [] if same else [f"{path}: {got!r}, corpus has {want!r}"]


def dump(doc: Dict[str, object]) -> str:
    """The corpus as JSON text, one run per line."""
    runs = ",\n".join(
        f"{json.dumps(key)}: {json.dumps(run, sort_keys=True)}"
        for key, run in sorted(doc["runs"].items())
    )
    head = json.dumps({"format": doc["format"], "version": doc["version"]})
    return head[:-1] + ', "runs": {\n' + runs + "\n}}\n"


def main(argv: List[str]) -> int:
    """``--write`` regenerates the corpus; no argument checks it."""
    doc = compute()
    if argv == ["--write"]:
        CORPUS.parent.mkdir(parents=True, exist_ok=True)
        CORPUS.write_text(dump(doc), encoding="utf-8")
        print(f"wrote {CORPUS} ({len(doc['runs'])} runs)")
        return 0
    if argv:
        print("usage: golden_corpus.py [--write]", file=sys.stderr)
        return 2
    problems = diff(json.loads(CORPUS.read_text(encoding="utf-8")), doc)
    for line in problems:
        print(line)
    print(f"{len(doc['runs'])} runs, {len(problems)} difference(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
