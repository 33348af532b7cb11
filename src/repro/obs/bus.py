"""Trace bus — typed events, pluggable sinks, zero cost when off.

The bus is the single funnel for every trace event the instrumented
components emit (:mod:`repro.obs.schema` lists them).  The design rule
is *zero cost when disabled*: components hold an optional tracer and
guard every emission with one ``if tracer is not None`` check, so a
run without tracing executes exactly the seed code path — the <3 %
``bench_kernel_perf`` gate in ISSUE 2 is enforced by never touching
the engine's inner loop at all.

Sinks are deliberately dumb ``write(event_dict)`` objects:

* :class:`RingBufferSink` — bounded in-memory deque, for tests and
  interactive debugging;
* :class:`JsonlSink` — one JSON object per line, the on-disk format
  the ``repro trace`` subcommand renders and CI validates;
* :class:`NullSink` — counts and drops (overhead measurement).

:class:`TraceConfig` is the *picklable* recipe the experiment runner
threads through process pools: each worker builds its own bus (and its
own JSONL file, via ``{scenario}/{policy}/{seed}`` placeholders), so
tracing composes with ``run_replications(workers=N)``.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Iterable, List, Optional, Tuple

from ..errors import ConfigurationError
from .schema import EVENT_TYPES

__all__ = [
    "TraceBus",
    "TraceSink",
    "RingBufferSink",
    "JsonlSink",
    "NullSink",
    "TraceConfig",
    "narrowed",
    "resolve_run_path",
]


class TraceSink:
    """Interface of a trace destination (duck-typed; subclassing optional).

    Sinks are context managers: ``with JsonlSink(path) as sink: ...``
    guarantees :meth:`close` (and thus the final buffer flush) even
    when the block raises or a :class:`KeyboardInterrupt` lands —
    buffered tail events cannot be lost on an interrupt path.
    """

    def write(self, event: dict) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered events to the destination (no-op by default)."""

    def close(self) -> None:
        """Release resources; further writes are undefined."""

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class NullSink(TraceSink):
    """Accepts and discards every event (keeps only a count)."""

    def __init__(self) -> None:
        self.written = 0

    def write(self, event: dict) -> None:
        self.written += 1


class RingBufferSink(TraceSink):
    """Keeps the most recent ``maxlen`` events in memory."""

    def __init__(self, maxlen: int = 65_536) -> None:
        if maxlen < 1:
            raise ConfigurationError(f"ring buffer size must be >= 1, got {maxlen}")
        self.events: Deque[dict] = deque(maxlen=int(maxlen))

    def write(self, event: dict) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def of_type(self, event_type: str) -> List[dict]:
        """The buffered events of one type, in emission order."""
        return [e for e in self.events if e["type"] == event_type]


class JsonlSink(TraceSink):
    """Appends one compact JSON object per event to a file."""

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", encoding="utf-8")
        self.written = 0

    def write(self, event: dict) -> None:
        self._fh.write(json.dumps(event, separators=(",", ":")) + "\n")
        self.written += 1

    def flush(self) -> None:
        if not self._fh.closed:
            self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


class TraceBus:
    """Routes typed events to one sink, optionally filtered by type.

    Parameters
    ----------
    sink:
        Destination for every accepted event.
    events:
        Event types to accept; ``None`` accepts all registered types.
        Filtering happens *before* the event dict is built, so dropped
        types cost one set lookup, not an allocation.
    """

    __slots__ = ("sink", "_accept", "emitted", "dropped")

    def __init__(self, sink: TraceSink, events: Optional[Iterable[str]] = None) -> None:
        self.sink = sink
        if events is None:
            self._accept = None
        else:
            accept = frozenset(events)
            unknown = accept - set(EVENT_TYPES)
            if unknown:
                raise ConfigurationError(
                    f"unknown trace event types: {sorted(unknown)}"
                )
            self._accept = accept
        #: Events written to the sink.
        self.emitted = 0
        #: Events rejected by the type filter.
        self.dropped = 0

    def accepts(self, event_type: str) -> bool:
        """Whether the type filter lets ``event_type`` through."""
        return self._accept is None or event_type in self._accept

    def emit(self, event_type: str, t: float, **fields: object) -> None:
        """Record one event at simulation time ``t``."""
        accept = self._accept
        if accept is not None and event_type not in accept:
            self.dropped += 1
            return
        event = {"t": t, "type": event_type}
        event.update(fields)
        self.emitted += 1
        self.sink.write(event)

    def flush(self) -> None:
        """Flush the sink without closing it.

        The interrupt-path guarantee for *borrowed* buses: owners close,
        borrowers flush, so a campaign killed mid-run leaves every event
        it emitted on disk either way.
        """
        flush = getattr(self.sink, "flush", None)
        if flush is not None:
            flush()

    def close(self) -> None:
        """Close the underlying sink (flushes JSONL files)."""
        self.sink.close()

    def __enter__(self) -> "TraceBus":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TraceBus emitted={self.emitted} dropped={self.dropped} sink={type(self.sink).__name__}>"


def narrowed(tracer: Optional[object], *event_types: str) -> Optional[object]:
    """``tracer`` if it records any of ``event_types``, else ``None``.

    Components resolve the type filter once, when they are wired, for
    the events of each emission site: a site whose types are all
    filtered out then costs the untraced ``is None`` check instead of
    one filtered :meth:`TraceBus.emit` call per event.  A tracer
    without an ``accepts`` method records everything.
    """
    if tracer is None:
        return None
    accepts = getattr(tracer, "accepts", None)
    if accepts is None or any(accepts(t) for t in event_types):
        return tracer
    return None


def resolve_run_path(raw: object, scenario: str, policy: str, seed: int) -> Path:
    """The concrete JSONL path of one (scenario, policy, seed) run.

    ``raw`` may contain ``{scenario}``, ``{policy}`` and ``{seed}``
    placeholders; a path ending in ``/`` (or an existing directory)
    gets one ``<scenario>-<policy>-s<seed>.jsonl`` file per run.
    Scenario/policy labels are sanitized into single filename
    components (``web@1/5000`` → ``web@1_5000``) so a rate-scaled
    scenario name cannot nest surprise subdirectories.
    """
    scenario, policy = (
        re.sub(r"[/\\\s]+", "_", label.strip()) or "unnamed" for label in (scenario, policy)
    )
    raw = str(raw)
    if "{" in raw:
        return Path(raw.format(scenario=scenario, policy=policy, seed=seed))
    p = Path(raw)
    if raw.endswith(("/", "\\")) or p.is_dir():
        return p / f"{scenario}-{policy}-s{seed}.jsonl"
    return p


@dataclass(frozen=True)
class TraceConfig:
    """Picklable recipe for building one :class:`TraceBus` per run.

    Parameters
    ----------
    sink:
        ``"jsonl"`` (needs ``path``), ``"memory"``, or ``"null"``.
    path:
        JSONL destination.  May contain ``{scenario}``, ``{policy}``
        and ``{seed}`` placeholders; a path ending in ``/`` (or an
        existing directory) gets one ``<scenario>-<policy>-s<seed>.jsonl``
        file per run, which is how multi-policy experiments avoid
        interleaving several processes into one file.
    events:
        Accepted event types (``None`` = all).  The CLI passes
        :data:`~repro.obs.schema.CONTROL_EVENTS` unless
        ``--trace-requests`` opts into the per-request firehose.
    ring_size:
        Buffer bound for the ``"memory"`` sink.
    """

    sink: str = "jsonl"
    path: Optional[str] = None
    events: Optional[Tuple[str, ...]] = None
    ring_size: int = 65_536

    def __post_init__(self) -> None:
        if self.sink not in ("jsonl", "memory", "null"):
            raise ConfigurationError(
                f"trace sink must be 'jsonl', 'memory' or 'null', got {self.sink!r}"
            )
        if self.sink == "jsonl" and not self.path:
            raise ConfigurationError("jsonl trace sink needs a path")

    def resolve_path(self, scenario: str, policy: str, seed: int) -> Path:
        """The concrete JSONL path for one (scenario, policy, seed)."""
        return resolve_run_path(self.path, scenario, policy, seed)

    def build(self, scenario: str, policy: str, seed: int) -> TraceBus:
        """Construct the bus (and sink) for one run."""
        if self.sink == "memory":
            sink: TraceSink = RingBufferSink(self.ring_size)
        elif self.sink == "null":
            sink = NullSink()
        else:
            sink = JsonlSink(self.resolve_path(scenario, policy, seed))
        return TraceBus(sink, events=self.events)
