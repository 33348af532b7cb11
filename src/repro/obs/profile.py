"""Run profiling — per-phase wall-clock and event-count accounting.

A replication spends its wall-clock in three phases — *build* (wire the
data plane, attach the policy), *run* (the event loop) and *finalize*
(metric aggregation) — and its work in a handful of kernel counters
(events fired, trace events emitted).
:class:`RunProfile` captures both per run, serializes to a JSON-safe
dict that survives the process-pool pickle round-trip (the counters
used to die with the worker process), and aggregates across
replications with :func:`aggregate_profiles` so the CLI perf summary
is correct at any ``--workers`` value.

Wall-clock numbers are inherently nondeterministic, so the runner
stores the profile in a ``compare=False`` field of ``RunMetrics`` —
bit-identity between the sequential and parallel backends is asserted
on everything else.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterable, Mapping

__all__ = ["RunProfile", "Stopwatch", "aggregate_profiles"]


class Stopwatch:
    """Monotonic duration meter — the sanctioned wall-clock access.

    The determinism invariant (docs/static-analysis.md) is that no
    library module reads a clock directly; durations are measured here,
    from a counter with an *arbitrary epoch*, so no absolute timestamp
    can ever leak into simulation state or stored results.

    >>> watch = Stopwatch()
    >>> ...            # doctest: +SKIP
    >>> watch.elapsed()  # seconds since construction  # doctest: +SKIP
    """

    __slots__ = ("_t0",)

    def __init__(self) -> None:
        self._t0 = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds since construction (or the last :meth:`restart`)."""
        return time.perf_counter() - self._t0

    def restart(self) -> float:
        """Reset the epoch; returns the duration of the ending lap."""
        now = time.perf_counter()
        lap = now - self._t0
        self._t0 = now
        return lap


class RunProfile:
    """Accumulates phase timings and named counters for one run."""

    __slots__ = ("phase_seconds", "counters")

    def __init__(self) -> None:
        #: phase name → cumulative wall-clock seconds.
        self.phase_seconds: Dict[str, float] = {}
        #: counter name → cumulative count.
        self.counters: Dict[str, int] = {}

    @contextmanager
    def phase(self, name: str):
        """Time a ``with`` block under ``name`` (cumulative on re-entry)."""
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - t0
            self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + elapsed

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + int(n)

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON-safe snapshot (the form stored on ``RunMetrics``)."""
        return {
            "phase_seconds": dict(self.phase_seconds),
            "counters": dict(self.counters),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Mapping[str, float]]) -> "RunProfile":
        """Inverse of :meth:`to_dict` (tolerates missing sections)."""
        profile = cls()
        for k, v in dict(data.get("phase_seconds", {})).items():
            profile.phase_seconds[str(k)] = float(v)
        for k, v in dict(data.get("counters", {})).items():
            profile.counters[str(k)] = int(v)
        return profile

    def merge(self, other: "RunProfile") -> "RunProfile":
        """Fold ``other`` into this profile (sums both sections)."""
        for k, v in other.phase_seconds.items():
            self.phase_seconds[k] = self.phase_seconds.get(k, 0.0) + v
        for k, v in other.counters.items():
            self.counters[k] = self.counters.get(k, 0) + v
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        phases = ", ".join(f"{k}={v:.3g}s" for k, v in self.phase_seconds.items())
        return f"<RunProfile {phases} counters={self.counters}>"


def aggregate_profiles(
    profiles: Iterable[Mapping[str, Mapping[str, float]]]
) -> RunProfile:
    """Sum serialized profiles (e.g. ``r.profile`` across replications).

    This is the cross-worker aggregation point: each pool worker ships
    its profile back inside the pickled ``RunMetrics``, and the caller
    folds them here instead of reading counters off engines that no
    longer exist.
    """
    total = RunProfile()
    for blob in profiles:
        if blob:
            total.merge(RunProfile.from_dict(blob))
    return total
