#!/usr/bin/env python3
"""Trace-driven provisioning — record, persist, and replay a workload.

Production users bring traces, not models.  This example records one
morning of the web model into a CSV trace, reloads it as a
:class:`TraceWorkload`, characterizes it (what should my predictor look
like?), and drives the adaptive provisioner from the trace alone —
using a reactive EWMA predictor with the profile-derived safety factor,
since a trace has no analytic rate curve to consult.

Usage::

    python examples/trace_replay.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import AdaptivePolicy, run_policy
from repro.core import QoSTarget
from repro.experiments.scenario import ScenarioConfig
from repro.prediction import EWMAPredictor
from repro.workloads import (
    WebWorkload,
    characterize,
    load_trace,
    save_trace,
)


def record_trace(path: Path, horizon: float) -> int:
    """Sample one realized morning of (rate-scaled) web traffic."""
    workload = WebWorkload().scaled(1000.0)
    rng = np.random.default_rng(42)
    chunks = []
    t = 0.0
    while t < horizon:
        chunks.append(workload.sample_window(rng, t))
        t += workload.window
    arrivals = np.concatenate(chunks)
    save_trace(path, arrivals)
    return arrivals.size


def main() -> None:
    horizon = 10 * 3600.0  # midnight → 10 a.m. (rising demand)
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "morning.csv"
        n = record_trace(trace_path, horizon)
        print(f"recorded {n:,} arrivals to {trace_path.name}")

        trace = load_trace(trace_path, base_service_time=100.0, service_jitter=0.10)

        profile = characterize(trace, np.random.default_rng(0), horizon, bin_width=60.0)
        factor = profile.recommended_safety_factor()
        print(f"trace profile: mean {profile.mean_rate:.2f} req/s, "
              f"p99 {profile.rate_p99:.2f}, batchiness {profile.batch_fraction:.1%}")
        print(f"derived predictor safety factor: x{factor:.2f}\n")

        scenario = ScenarioConfig(
            name="trace-replay",
            workload=trace,
            qos=QoSTarget(max_response_time=250.0, min_utilization=0.80),
            horizon=horizon,
            scale=1000.0,  # the trace was recorded at 1/1000 rate scale
            update_interval=600.0,
            lead_time=60.0,
            rate_sample_interval=60.0,
        )
        policy = AdaptivePolicy(
            update_interval=600.0,
            predictor_factory=lambda ctx: EWMAPredictor(alpha=0.4, safety_factor=factor),
            initial_instances=40,
            deviation_threshold=0.5,
        )
        result = run_policy(scenario, policy, seed=0)

        print(f"replayed through the adaptive provisioner:")
        print(f"  fleet range   : {result.min_instances} - {result.max_instances} instances")
        print(f"  rejection     : {result.rejection_rate:.3%}")
        print(f"  QoS violations: {result.qos_violations}")
        print(f"  avg response  : {result.mean_response_time * 1000:.1f} ms (paper-scale)")
        print(f"  utilization   : {result.utilization:.1%}")


if __name__ == "__main__":
    main()
