"""Run one benchmark workload in a fresh interpreter (started by run.py).

    python3 bench/child.py --workload W --seed S --seconds N --workdir DIR
                           [--trace 0|1] [--trace-file FILE] [--quick] [--setup]

``--setup`` only imports the workload's modules and builds its input,
so that the caller can time set-up in a fresh interpreter; it prints
the host-speed probe's samples.  Otherwise the child runs one untimed
warm-up op and then either

* times ops while the next one is expected to end within ``--seconds``
  of op wall time (at least ``MIN_REPS`` ops; it stops early after
  ``MIN_REPS`` failed ops), rep *i* on seed S+i, checking each op's
  outputs (the costly comparison with a reference run on the first op
  only).  An op's time is its CPU time at the nominal host speed
  (``hostspeed``): an op is single-threaded, so CPU time leaves out
  waits for the disk or for a core, and the probe corrects for how fast
  the shared host ran the core meanwhile; or
* with ``--trace 1``, runs one untraced and one traced op on seed S and
  derives the per-layer metrics from the traced op's spans.

It prints one JSON object as its only line on standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed
import spans

#: Fewest timed ops a measuring run makes, however long they take.
MIN_REPS = 3

#: Layers reported with both a call count and self time.
CALLS_AND_SELF = (
    "cloud.vecfleet.advance",
    "sim.batch.assign",
    "sim.batch.drain",
    "workloads.sample_window",
    "sim.engine.step",
    "core.controlplane.on_estimate",
    "core.controlplane.step",
    "core.modeler.decide",
    "economy.modeler.decide",
    "queueing.network.evaluate",
    "prediction.predict",
    "campaigns.store.put",
)
#: Layers reported with self time only.
SELF_ONLY = (
    "cloud.vecfleet.load",
    "cloud.monitor.record_responses",
    "sim.engine.run",
    "sim.fluid.run_adaptive",
    "metrics.collector.finalize",
    "campaigns.store.claim",
    "campaigns.store.release",
    "experiments.persist.result_to_dict",
)
BACKENDS = ("des", "des-vec", "fluid")
#: Layer-name prefixes summed into each ``share.*`` metric.
SHARES = {
    "share.vecfleet_batch": ("cloud.vecfleet.", "sim.batch."),
    "share.store_persist": ("campaigns.store.", "experiments.persist."),
    "share.control_plane": ("core.", "queueing.", "prediction.", "economy.", "sim.fluid."),
}


def attempt(workload, built, seed, workdir, around=None, reference=True):
    """Run one op inside the context ``around`` (a span recorder's or a
    host-speed probe), then check it: ``(wall s, CPU s, Op or None, problems)``."""
    op = None
    wall = cpu = math.nan
    # Garbage an earlier op left behind is not collected on this op's time.
    gc.collect()
    try:
        start, start_cpu = time.perf_counter(), time.process_time()
        with around or contextlib.nullcontext():
            op = workload.run(built, seed, workdir)
        wall = time.perf_counter() - start
        cpu = time.process_time() - start_cpu
        problems = workload.check(built, seed, op, reference)
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        problems = [f"{workload.name} s{seed}: raised {exc!r}"]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return wall, cpu, op, problems


def measure(workload, built, seed, seconds, quick, workdir) -> dict:
    """Timed ops filling ``seconds`` of wall time: per-op CPU time at the
    nominal host speed, and request rate."""
    times, rates = [], []
    spent = []  # wall seconds each attempt used of the budget
    attempted = failed = 0
    while attempted < (1 if quick else MIN_REPS) or (
        not quick and failed < MIN_REPS and sum(spent) + statistics.median(spent) <= seconds
    ):
        start = time.perf_counter()
        probe = hostspeed.Probe()
        # The costly reference comparison runs on the first op only.
        wall, cpu, op, problems = attempt(
            workload, built, seed + attempted, workdir, probe, reference=attempted == 0
        )
        attempted += 1
        # Checks do not eat into the budget, except a failed op's, which gives no sample.
        spent.append(time.perf_counter() - start if problems else wall)
        if op is not None:
            op.close()
        if problems:
            failed += 1
            continue
        times.append(hostspeed.normalise(cpu, probe.samples))
        rates.append(op.requests / times[-1])
    return {
        "attempted": attempted,
        "failed": failed,
        "samples": {"norm_cpu_s": times, "req_per_s": rates},
    }


def _p99(values) -> float:
    """Nearest-rank 99th percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


def layer_metrics(stats, op, traced_wall, untraced_wall, cost_ratio) -> dict:
    """The per-layer metrics of one traced op."""
    def get(layer, key, default=0):
        return stats.get(layer, {}).get(key, default)

    out = {}
    for layer in CALLS_AND_SELF:
        out[f"{layer}.calls"] = get(layer, "calls")
        out[f"{layer}.self_s"] = get(layer, "self_s", 0.0)
    for layer in SELF_ONLY:
        out[f"{layer}.self_s"] = get(layer, "self_s", 0.0)
    out["cloud.vecfleet.advance.p99_us"] = _p99(get("cloud.vecfleet.advance", "durations", ())) * 1e6
    out["campaigns.store.put.p99_ms"] = _p99(get("campaigns.store.put", "durations", ())) * 1e3
    for name in BACKENDS:
        out[f"backends.{name}.run.s"] = sum(get(f"backends.{name}.run", "durations", ()))
        out[f"backends.{name}.unattributed_s"] = get(f"backends.{name}.run", "self_s", 0.0)

    counters = [r.profile.get("counters", {}) for r in op.results]
    waves = get("sim.batch.assign", "calls") + get("sim.batch.drain", "calls")
    advances = get("cloud.vecfleet.advance", "calls")
    moved = sum(c.get("arrivals", 0) + c.get("completions", 0) for c in counters)
    out["cloud.vecfleet.waves_per_advance"] = waves / advances if advances else 0.0
    out["cloud.vecfleet.requests_per_wave"] = moved / waves if waves else 0.0
    out["sim.engine.events"] = sum(c.get("events", 0) for c in counters)
    out["obs.trace.emitted"] = sum(c.get("trace_events", 0) for c in counters)
    out["obs.metrics.snapshots"] = sum(len(r.telemetry.get("snapshots", ())) for r in op.results)
    out["obs.cost_ratio"] = cost_ratio
    hits = sum(r.cache_hits for r in op.results)
    lookups = hits + sum(r.cache_misses for r in op.results)
    out["core.modeler.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    out["campaigns.store.manifest_bytes"] = op.manifest_bytes
    out["bench.trace_overhead"] = traced_wall / untraced_wall
    for share, prefixes in SHARES.items():
        busy = sum(s["self_s"] for layer, s in stats.items() if layer.startswith(prefixes))
        out[share] = busy / traced_wall
    return out


def trace(workload, built, seed, workdir, trace_file) -> dict:
    """One untraced and one traced op on ``seed``: per-layer metrics.

    The untraced op's check runs the reference comparison, whose timed
    unobserved run gives ``obs.cost_ratio`` (0 where there is none).
    """
    before = spans.snapshot()
    untraced_wall, _, op, problems = attempt(workload, built, seed, workdir)
    cost_ratio = 0.0
    if op is not None:
        if "reference_wall" in op.state:
            cost_ratio = untraced_wall / op.state["reference_wall"]
        op.close()
    recorder = spans.SpanRecorder()
    recorder.op = 1
    traced_wall, _, op, traced_problems = attempt(
        workload, built, seed, workdir, recorder.installed(), reference=False
    )
    left = spans.unrestored(before)
    if left:
        raise RuntimeError(f"wrapped attributes not restored: {left}")
    failed = bool(problems) + bool(traced_problems)
    metrics = {}
    if not failed:
        metrics = layer_metrics(recorder.layer_stats(), op, traced_wall, untraced_wall, cost_ratio)
    if op is not None:
        op.close()
    if trace_file:
        recorder.dump(trace_file, workload=workload.name, seed=seed, traced_op=recorder.op)
    return {"attempted": 2, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--workdir", default=".")
    args = parser.parse_args(argv)

    if args.setup:
        # The workload's modules are imported under the probe, so that it
        # samples the host's speed over most of the set-up being timed.
        with hostspeed.Probe() as probe:
            import workloads

            workloads.WORKLOADS[args.workload].setup(args.seed, args.quick)
        print(json.dumps({"probe": probe.samples}))
        return 0
    import numpy
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    # Untimed warm-up: the same op on the small scenario (or quick grid).
    warm = workload.run(workload.setup(args.seed, quick=True), args.seed, workdir)
    warm.close()
    built = workload.setup(args.seed, args.quick)
    if args.trace:
        result = trace(workload, built, args.seed, workdir, args.trace_file)
    else:
        result = measure(workload, built, args.seed, args.seconds, args.quick, workdir)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
