"""Workload source — the broker generating end-user requests.

The paper's simulation "contains one broker generating requests
representing several users" (§V-A).  :class:`WorkloadSource` is that
broker: it walks the simulation horizon one workload window at a time,
asks the workload model for the window's arrival timestamps, and feeds
them to admission control.  Windowed generation keeps the future-event
list small even for the multi-million-request web scenario.

Arrival dispatch is *batched*: a window's timestamps are sampled as one
numpy block, horizon-clipped vectorized, and walked by a single rolling
cursor event instead of one ``schedule()`` per request.  At the web
peak a 60-s window holds tens of thousands of arrivals; the cursor
keeps all but the next one out of the heap, so heap pushes operate on a
list of in-flight completions (hundreds) rather than a full window —
an O(log n) win per event on exactly the hottest path.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ..errors import ConfigurationError
from ..sim.engine import Engine
from ..sim.events import PRIORITY_HIGH
from ..workloads.base import Workload
from .admission import AdmissionControl

__all__ = ["WorkloadSource"]


class _ArrivalCursor:
    """Rolling dispatcher over one window's sorted arrival batch.

    One reusable callable walks the batch: each firing submits the
    arrival at the current index and schedules itself at the next
    timestamp.  Only a single heap entry exists per window at any time,
    and no per-arrival closure is allocated.
    """

    __slots__ = ("_engine", "_admission", "_times", "_idx", "_pending")

    def __init__(self, engine: Engine, admission: AdmissionControl) -> None:
        self._engine = engine
        self._admission = admission
        self._times: List[float] = []
        self._idx = 0
        self._pending = None

    @property
    def remaining(self) -> int:
        """Arrivals of the current batch not yet dispatched."""
        return len(self._times) - self._idx

    def load(self, times) -> None:
        """Start dispatching a new batch of sorted timestamps.

        Accepts a numpy array (the broker's sampled window) or a list.
        A window's batch always drains before the next window is
        generated (arrivals live in ``[t0, t0 + window)`` and the next
        generation fires at ``t0 + window``); any leftovers — a
        misbehaving workload model — are merged rather than dropped.
        """
        if isinstance(times, np.ndarray):
            times = times.tolist()
        if self._idx < len(self._times):
            times = sorted(self._times[self._idx :] + times)
            if self._pending is not None:
                self._engine.discard(self._pending)
        self._times = times
        self._idx = 0
        self._pending = None
        if times:
            self._pending = self._engine.schedule_at(times[0], self)

    def __call__(self) -> None:
        engine = self._engine
        self._admission.submit(engine.now)
        idx = self._idx = self._idx + 1
        times = self._times
        if idx < len(times):
            self._pending = engine.schedule_at(times[idx], self)
        else:
            self._pending = None


class WorkloadSource:
    """Feeds a workload's arrivals into an arrival sink.

    Parameters
    ----------
    engine:
        Simulation engine.
    workload:
        Arrival-process model.
    rng:
        Dedicated random stream for arrival sampling.
    admission:
        The deployment's front door.  The default sink is a rolling
        cursor that submits each arrival to it at its timestamp.
    horizon:
        Generation stops at this simulation time (arrivals beyond it
        are discarded).
    sink:
        Alternative consumer of each window's arrival batch — any
        object with ``load(times: np.ndarray)``.  The vectorized
        backend passes its :class:`~repro.cloud.vecfleet.VectorFleet`
        here, which buffers whole windows for the batched data plane
        instead of dispatching one engine event per arrival.  Exactly
        one of ``admission`` / ``sink`` must be provided.

    Notes
    -----
    Window generation runs at :data:`~repro.sim.events.PRIORITY_HIGH`
    so that a window's first arrival is in the event list before any
    same-instant completion fires.

    The sink is fixed at construction: to route arrivals through a
    different front door, build a new source with ``admission=`` (the
    slots make a later write to a private attribute fail loudly
    instead of being silently ignored).
    """

    __slots__ = ("_engine", "_workload", "_rng", "_sink", "horizon", "generated", "_tracer")

    def __init__(
        self,
        engine: Engine,
        workload: Workload,
        rng: np.random.Generator,
        admission: Optional[AdmissionControl] = None,
        horizon: float = 0.0,
        tracer: Optional[object] = None,
        sink: Optional[object] = None,
    ) -> None:
        if horizon <= 0.0 or not math.isfinite(horizon):
            raise ConfigurationError(f"horizon must be finite and > 0, got {horizon!r}")
        if (admission is None) == (sink is None):
            raise ConfigurationError(
                "provide exactly one of admission= (scalar cursor dispatch) "
                "or sink= (batched window hand-off)"
            )
        self._engine = engine
        self._workload = workload
        self._rng = rng
        if sink is None:
            sink = _ArrivalCursor(engine, admission)
        self._sink = sink
        self.horizon = float(horizon)
        self.generated = 0
        #: Optional :class:`repro.obs.bus.TraceBus`; one event per
        #: generated window (cold path — never per arrival).
        self._tracer = tracer

    def start(self) -> None:
        """Schedule generation of the first window (call before run)."""
        self._engine.schedule_at(
            self._engine.now, lambda: self._generate_window(self._engine.now), PRIORITY_HIGH
        )

    def _generate_window(self, t0: float) -> None:
        arrivals = self._workload.sample_window(self._rng, t0)
        horizon = self.horizon
        if arrivals.size and arrivals[-1] >= horizon:
            arrivals = arrivals[arrivals < horizon]
        if self._tracer is not None:
            self._tracer.emit(
                "window.generated", self._engine.now, t0=t0, arrivals=int(arrivals.size)
            )
        if arrivals.size:
            self.generated += int(arrivals.size)
            self._sink.load(arrivals)
        t_next = t0 + self._workload.window
        if t_next < horizon:
            self._engine.schedule_at(t_next, lambda: self._generate_window(t_next), PRIORITY_HIGH)
