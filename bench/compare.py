#!/usr/bin/env python3
"""Compare two benchmark result files against BENCHMARK.json's bounds.

    python3 bench/compare.py BASE.json CHANGE.json

Both files are written by ``bench/run.py --out``.  For each workload and
end-to-end metric present in both, it prints each side's median and
quartiles, the ratio CHANGE/BASE, the bound and a verdict.  A metric is
outside its bound when CHANGE is worse than BASE by more than the bound's
share of BASE's median; ``fail_frac`` may not increase at all.  Exits 1
if any pair is outside its bound, 0 otherwise, and 2 if the two files
were made under different settings (format, run length, ``--quick`` or
``--trace``).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: Header fields two result files must share to be comparable.
SETTINGS = ("format", "seconds", "quick", "trace")


def bounds() -> dict:
    """Metric name → (better, bound) for every end-to-end metric."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    table = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    table["fail_frac"] = ("lower", 0.0)
    return table


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def worse_by(base: float, change: float, better: str) -> float:
    """How much worse ``change`` is, as a share of ``base`` (<= 0: not worse)."""
    delta = change - base if better == "lower" else base - change
    if base == 0:
        return 0.0 if delta <= 0 else float("inf")
    return delta / abs(base)


def compare(base: dict, change: dict) -> tuple:
    """Report lines and the number of pairs outside their bound."""
    lines = [
        f"{'workload':<18} {'metric':<12} {'base median [q1, q3]':>34} "
        f"{'change median [q1, q3]':>34} {'ratio':>7} {'bound':>6}  verdict"
    ]
    outside = 0
    table = bounds()
    for workload, b in base["workloads"].items():
        c = change["workloads"].get(workload)
        if c is None:
            continue
        for name, (better, bound) in table.items():
            if name not in b["metrics"] or name not in c["metrics"]:
                continue
            bm, cm = b["metrics"][name], c["metrics"][name]
            ratio = cm["median"] / bm["median"] if bm["median"] else float("nan")
            bad = worse_by(bm["median"], cm["median"], better) > bound
            outside += bad
            sides = []
            for m in (bm, cm):
                q1, q3 = quartiles(m["samples"])
                sides.append(f"{m['median']:.5g} [{q1:.4g}, {q3:.4g}]")
            lines.append(
                f"{workload:<18} {name:<12} {sides[0]:>34} {sides[1]:>34} "
                f"{ratio:>7.3f} {bound:>6.0%}  {'OUTSIDE' if bad else 'ok'}"
                f"  ({bm['unit']}, better {better}, n={len(bm['samples'])}/{len(cm['samples'])})"
            )
    return lines, outside


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, change = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    differ = [f"{k}: {base.get(k)!r} vs {change.get(k)!r}" for k in SETTINGS if base.get(k) != change.get(k)]
    if differ:
        print("the files were made under different settings: " + "; ".join(differ), file=sys.stderr)
        return 2
    lines, outside = compare(base, change)
    if len(lines) == 1:
        print("no end-to-end metric appears in both files", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(f"{outside} pair(s) outside their bound" if outside else "all pairs within their bounds")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
