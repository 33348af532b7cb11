#!/usr/bin/env python3
"""Benchmark the repro simulator end to end and layer by layer.

    python3 bench/run.py [--workload W] [--seed S] [--trace [0|1]]
                         [--quick] [--out FILE]

Runs each selected workload (all four by default) in its own fresh
child process, one child at a time, with one thread of numpy/BLAS.
Before a workload's child, it times set-up in fresh interpreters
(``setup_s``).  Times are CPU seconds at a nominal host speed (see
``hostspeed.py``), not wall seconds: on a shared host, neither the time
the host runs other work nor how fast it runs this work is the
program's.  It prints every metric with its unit and sample count,
then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The metrics are BENCHMARK.json's
``end_to_end`` list, or its ``per_layer`` list with ``--trace``; a
traced run also writes its spans to ``bench-trace.json``.  A workload
whose ops all failed has no sample of some metrics; those are left out.
Exits 1 if an output check fails and 2 if the benchmark cannot run.

The run length is BENCHMARK.json's ``run_seconds``.  ``--seconds N`` is
accepted for callers that pass the run length on the command line, and
must equal it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Fresh interpreters timed for ``setup_s`` (after one untimed to warm caches).
SETUP_SAMPLES = 7
#: Longest a child may take before it is killed.
CHILD_TIMEOUT = 170.0


class BenchError(Exception):
    """The benchmark itself could not run."""


def _env() -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _child(args) -> str:
    """Run ``child.py`` to completion and return its standard output."""
    cmd = [sys.executable, str(BENCH / "child.py"), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child timed out after {CHILD_TIMEOUT:.0f}s: {' '.join(args)}")
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {' '.join(args)}")
    return proc.stdout or ""


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_samples(workload: str, seed: int, quick: bool) -> list:
    """CPU seconds at the nominal host speed of fresh interpreters
    importing the workload's modules and building its input."""
    args = ["--setup", "--workload", workload, "--seed", str(seed)] + (["--quick"] if quick else [])
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = _children_cpu()
        out = _child(args)
        if i:
            probe = json.loads(out.strip().splitlines()[-1])["probe"]
            samples.append(hostspeed.normalise(_children_cpu() - start, probe))
    return samples


def run_workload(workload: str, args, workdir: Path) -> dict:
    """One workload: its samples per metric, op counts and check outcome."""
    child_args = [
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(SPEC["run_seconds"]),
        "--trace", str(args.trace), "--workdir", str(workdir),
    ]
    if args.quick:
        child_args.append("--quick")
    trace_file = workdir / f"{workload}.spans.json"
    if args.trace:
        child_args += ["--trace-file", str(trace_file)]
    setup = [] if args.trace else setup_samples(workload, args.seed, args.quick)
    lines = _child(child_args).strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: child printed no result")
    child = json.loads(lines[-1])
    if args.trace:
        samples = {name: [value] for name, value in child["metrics"].items()}
    else:
        samples = dict(child["samples"], setup_s=setup, peak_rss_mb=[child["peak_rss_mb"]])
    samples["fail_frac"] = [child["failed"] / child["attempted"]]
    return {
        "attempted": child["attempted"],
        "failed": child["failed"],
        "samples": samples,
        "numpy": child["numpy"],
        "trace_file": trace_file if args.trace else None,
    }


def _units(trace: int) -> dict:
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    units["fail_frac"] = "ratio"
    return units


def _write_trace(results: dict) -> None:
    """Concatenate the children's span files into ``bench-trace.json``."""
    with open(ROOT / "bench-trace.json", "w", encoding="utf-8") as out:
        out.write('{"workloads":{')
        for i, (workload, res) in enumerate(results.items()):
            out.write(("," if i else "") + json.dumps(workload) + ":")
            with open(res["trace_file"], encoding="utf-8") as fh:
                shutil.copyfileobj(fh, out)
        out.write("}}\n")


def host() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"], help=argparse.SUPPRESS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="web scale 2000, one op, 16-cell grid")
    parser.add_argument("--out", help="write every sample to this JSON file (for compare.py)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds != SPEC["run_seconds"]:
        parser.error(f"--seconds must equal run_seconds in BENCHMARK.json ({SPEC['run_seconds']})")
    selected = [args.workload] if args.workload else WORKLOADS
    units = _units(args.trace)

    workdir = ROOT / ".bench-work" / f"run-{os.getpid()}"
    results = {}
    try:
        for workload in selected:
            print(f"# {workload}", file=sys.stderr, flush=True)
            results[workload] = run_workload(workload, args, workdir)
        if args.trace:
            _write_trace(results)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    for workload, res in results.items():
        missing = [name for name in units if not res["samples"].get(name)]
        if missing and not res["failed"]:
            print(f"bench: {workload}: no samples for {missing}", file=sys.stderr)
            return 2
    metrics = {}
    print(f"{'workload':<18} {'metric':<44} {'median':>16} {'unit':<7} {'n':>3}")
    for workload, res in results.items():
        for name, unit in units.items():
            values = res["samples"].get(name)
            if not values:  # every op failed its checks
                print(f"{workload:<18} {name:<44} {'n/a':>16} {unit:<7} {0:>3}")
                continue
            median = statistics.median(values)
            print(f"{workload:<18} {name:<44} {median:>16.6g} {unit:<7} {len(values):>3}")
            if name != "fail_frac":
                key = name if len(selected) == 1 else f"{workload}.{name}"
                metrics[key] = {"value": median, "unit": unit}

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.out:
        doc = {
            "format": "repro-bench-results",
            "seed": args.seed,
            "seconds": SPEC["run_seconds"],
            "quick": args.quick,
            "trace": args.trace,
            "host": dict(host(), numpy=next(iter(results.values()))["numpy"]),
            "workloads": {
                w: {
                    "attempted": r["attempted"],
                    "failed": r["failed"],
                    "metrics": {
                        name: {
                            "unit": unit,
                            "median": statistics.median(r["samples"][name]),
                            "samples": r["samples"][name],
                        }
                        for name, unit in units.items()
                        if r["samples"].get(name)
                    },
                }
                for w, r in results.items()
            },
        }
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
