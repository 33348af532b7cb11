"""Timing spans around the public methods of the repro layers.

A traced benchmark run temporarily replaces each method named in
:data:`LAYERS` with a wrapper that records one span per call: name,
start, end, parent span id and op id.  Spans stay in memory and are
written out when the run ends.  A span's self time is its duration
minus the time its child spans cover.

Only per-block or per-decision methods are wrapped.  Per-request
scalar methods are left alone: a million wrapper calls would measure
the wrapper, not the program.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

#: ``(module, attribute path, layer name)`` of every wrapped callable.
#: A dotted path names a method on a class; a bare name is a function
#: patched where it was imported (``from x import f`` binds a copy).
#: Several entries may share a layer; a call nested directly inside a
#: span of its own layer (a wrapper delegating to its inner workload)
#: is folded into the outer span.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.engine", "Engine.step", "sim.engine.step"),
    ("repro.sim.engine", "Engine.run", "sim.engine.run"),
    ("repro.sim.batch", "SoAQueues.assign", "sim.batch.assign"),
    ("repro.sim.batch", "SoAQueues.drain", "sim.batch.drain"),
    ("repro.cloud.vecfleet", "VectorFleet.advance", "cloud.vecfleet.advance"),
    ("repro.cloud.vecfleet", "VectorFleet.finish", "cloud.vecfleet.finish"),
    ("repro.cloud.vecfleet", "VectorFleet.load", "cloud.vecfleet.load"),
    ("repro.cloud.vecfleet", "VectorFleet.scale_to", "cloud.vecfleet.scale_to"),
    ("repro.cloud.fleet", "ApplicationFleet.scale_to", "cloud.fleet.scale_to"),
    ("repro.cloud.monitor", "Monitor.record_responses", "cloud.monitor.record_responses"),
    ("repro.workloads.base", "ScaledWorkload.sample_window", "workloads.sample_window"),
    ("repro.workloads.web", "WebWorkload.sample_window", "workloads.sample_window"),
    ("repro.workloads.scientific", "ScientificWorkload.sample_window", "workloads.sample_window"),
    ("repro.core.controlplane", "ControlPlane.on_estimate", "core.controlplane.on_estimate"),
    ("repro.core.controlplane", "ControlPlane.step", "core.controlplane.step"),
    ("repro.core.modeler", "PerformanceModeler.decide", "core.modeler.decide"),
    ("repro.economy.policies", "ProfitModeler.decide", "economy.modeler.decide"),
    ("repro.queueing.network", "ProvisioningNetwork.evaluate", "queueing.network.evaluate"),
    ("repro.prediction.timebased", "ModelInformedPredictor.predict", "prediction.predict"),
    ("repro.prediction.timebased", "ScientificModePredictor.predict", "prediction.predict"),
    ("repro.prediction.reactive", "LastValuePredictor.predict", "prediction.predict"),
    ("repro.prediction.reactive", "MovingAveragePredictor.predict", "prediction.predict"),
    ("repro.prediction.reactive", "EWMAPredictor.predict", "prediction.predict"),
    ("repro.prediction.arma", "ARPredictor.predict", "prediction.predict"),
    ("repro.prediction.qrsm", "QRSMPredictor.predict", "prediction.predict"),
    ("repro.prediction.oracle", "OraclePredictor.predict", "prediction.predict"),
    ("repro.sim.fluid", "FluidSimulator.run_adaptive", "sim.fluid.run_adaptive"),
    ("repro.metrics.collector", "MetricsCollector.finalize", "metrics.collector.finalize"),
    ("repro.campaigns.store", "ResultStore.put", "campaigns.store.put"),
    ("repro.campaigns.store", "ResultStore.claim", "campaigns.store.claim"),
    ("repro.campaigns.store", "ResultStore.release", "campaigns.store.release"),
    ("repro.campaigns.store", "result_to_dict", "experiments.persist.result_to_dict"),
    ("repro.backends.des", "DESBackend.run", "backends.des.run"),
    ("repro.backends.des_vec", "DESVecBackend.run", "backends.des-vec.run"),
    ("repro.backends.fluid", "FluidBackend.run", "backends.fluid.run"),
)

_MISSING = object()

#: Column order of one span record; times are ``perf_counter_ns`` readings.
COLUMNS = ("id", "parent", "name", "start_ns", "end_ns", "self_ns", "op")


def _owner(module: str, path: str) -> Tuple[object, str]:
    """The object holding the attribute, and the attribute's name."""
    owner: object = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def snapshot() -> Dict[Tuple[str, str], object]:
    """What each :data:`LAYERS` entry's owner holds in its own ``__dict__`` now."""
    state = {}
    for module, path, _ in LAYERS:
        owner, attr = _owner(module, path)
        state[(module, path)] = vars(owner).get(attr, _MISSING)
    return state


def unrestored(before: Dict[Tuple[str, str], object]) -> List[str]:
    """Entries whose attribute differs from ``before`` (empty when restored)."""
    now = snapshot()
    return [f"{module}:{path}" for (module, path), held in before.items() if now[module, path] is not held]


class SpanRecorder:
    """In-memory spans of the wrapped calls made on the recording thread."""

    def __init__(self) -> None:
        #: One tuple per finished call, laid out as :data:`COLUMNS`.
        self.records: List[tuple] = []
        #: Op id stamped on the spans recorded from now on.
        self.op = 0
        self._stack: List[list] = []  # [span id, layer, child nanoseconds]
        self._next_id = 0
        self._thread = threading.get_ident()

    def _wrap(self, original: Callable, layer: str) -> Callable:
        rec = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            stack = rec._stack
            if threading.get_ident() != rec._thread or (stack and stack[-1][1] == layer):
                return original(*args, **kwargs)
            span_id = rec._next_id
            rec._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, layer, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][2] += end - start
                rec.records.append(
                    (span_id, parent, layer, start, end, end - start - frame[2], rec.op)
                )

        return timed

    @contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Wrap every :data:`LAYERS` entry for the ``with`` body, then restore it.

        All originals are resolved before any is replaced, so an entry
        on a subclass that inherits the method (``ProfitModeler.decide``)
        wraps the base function, not the base's wrapper.
        """
        targets = []
        for module, path, layer in LAYERS:
            owner, attr = _owner(module, path)
            targets.append((owner, attr, vars(owner).get(attr, _MISSING), getattr(owner, attr), layer))
        patched = []
        try:
            for owner, attr, held, original, layer in targets:
                setattr(owner, attr, self._wrap(original, layer))
                patched.append((owner, attr, held))
            yield self
        finally:
            for owner, attr, held in reversed(patched):
                if held is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, held)

    def layer_stats(self) -> Dict[str, dict]:
        """Per layer: ``calls``, summed ``self_s`` and call ``durations``."""
        stats: Dict[str, dict] = {}
        for _, _, layer, start, end, self_ns, _ in self.records:
            entry = stats.setdefault(layer, {"calls": 0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["self_s"] += self_ns * 1e-9
            entry["durations"].append((end - start) * 1e-9)
        return stats

    def dump(self, path, **header) -> None:
        """Write the spans as one compact JSON document.

        Names are indices into ``names`` and times are nanoseconds since
        the first span started, which keeps a 10^5-span trace small.
        """
        names = sorted({r[2] for r in self.records})
        index = {name: i for i, name in enumerate(names)}
        origin = min((r[3] for r in self.records), default=0)
        rows = [
            (i, parent, index[name], start - origin, end - origin, self_ns, op)
            for i, parent, name, start, end, self_ns, op in self.records
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(header, names=names, columns=COLUMNS, spans=rows), fh, separators=(",", ":"))
