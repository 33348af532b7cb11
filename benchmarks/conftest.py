"""Shared configuration for the benchmark harness.

Environment knobs
-----------------
``REPRO_WEB_SCALE``
    Rate-scale factor for the week-long web DES benchmarks (default
    400; smaller = closer to paper scale but slower; 1 reproduces the
    paper's 500 M-request week and is only practical through the fluid
    benchmarks).
``REPRO_SEEDS``
    Comma-separated replication seeds (default "0").

Every figure benchmark prints the regenerated table (run pytest with
``-s`` to see them); the assertions encode the paper's shape claims so
a silent pass is still meaningful.
"""

from __future__ import annotations

import importlib.util
import os
import time
from pathlib import Path

# One BLAS thread, as bench/run.py runs its ops, set before anything
# below imports numpy.  A BLAS call long enough to split across threads
# leaves them spinning between calls, and that lands in the process CPU
# time that norm_cpu and the host-speed probe read.  The T_m fold keeps
# its dots short enough never to split; this keeps any other call from
# doing so.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import pytest

from repro.obs.profile import Stopwatch


def _load_hostspeed():
    """``bench/hostspeed.py``, the end-to-end benchmark's host-speed probe."""
    path = Path(__file__).resolve().parent.parent / "bench" / "hostspeed.py"
    spec = importlib.util.spec_from_file_location("hostspeed", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


hostspeed = _load_hostspeed()


def web_scale() -> float:
    """Rate-scale factor for web DES benchmarks."""
    return float(os.environ.get("REPRO_WEB_SCALE", "400"))


def seeds() -> tuple:
    """Replication seeds for DES benchmarks."""
    return tuple(int(s) for s in os.environ.get("REPRO_SEEDS", "0").split(","))


def best_of(fn, repeats: int = 5) -> float:
    """Fastest of ``repeats`` timed calls of ``fn``, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        watch = Stopwatch()
        fn()
        best = min(best, watch.elapsed())
    return best


#: Shortest wall time of one probed lap of :func:`norm_cpu`, in probe
#: periods: a shorter op is repeated within the lap until it spans them.
LAP_PERIODS = 5


def norm_cpu(fn):
    """Run ``fn``: ``(its result, its CPU seconds per call at the nominal
    host speed)``.

    Timed under ``bench/hostspeed.py``'s probe, as ``bench/run.py``
    times its ops, so a gate on it does not move with how busy the
    host's other tenants are.  The probe samples once per
    ``hostspeed.PERIOD_S`` of wall time, so an op shorter than a few
    periods would be scaled by one or two samples: such an op is called
    again within the same probed lap until the lap has lasted
    :data:`LAP_PERIODS` periods, and the lap's time is divided by the
    number of calls.  The result is the first call's.
    """
    calls = 1
    lap = LAP_PERIODS * hostspeed.PERIOD_S
    start, wall = time.process_time(), time.perf_counter()
    with hostspeed.Probe() as probe:
        result = fn()
        while time.perf_counter() - wall < lap:
            fn()
            calls += 1
    return result, hostspeed.normalise(time.process_time() - start, probe.samples) / calls


def best_norm_cpu_of(fn, repeats: int = 5) -> float:
    """Fastest of ``repeats`` :func:`norm_cpu` timings of ``fn``."""
    return min(norm_cpu(fn)[1] for _ in range(repeats))


@pytest.fixture(scope="session")
def bench_seeds():
    return seeds()


@pytest.fixture(scope="session")
def bench_web_scale():
    return web_scale()
