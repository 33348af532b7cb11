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

import os

import pytest

from repro.obs.profile import Stopwatch


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


@pytest.fixture(scope="session")
def bench_seeds():
    return seeds()


@pytest.fixture(scope="session")
def bench_web_scale():
    return web_scale()
