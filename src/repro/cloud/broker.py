"""Workload source — the broker generating end-user requests.

The paper's simulation "contains one broker generating requests
representing several users" (§V-A).  :class:`WorkloadSource` is that
broker: it walks the simulation horizon one workload window at a time,
asks the workload model for the window's arrival timestamps, and feeds
them to admission control.  Windowed generation keeps the future-event
list small even for the multi-million-request web scenario.

Arrival dispatch is *batched*: a window's timestamps are sampled as one
numpy block, horizon-clipped vectorized, and handed to the engine's
arrival stream (:meth:`~repro.sim.engine.Engine.load_arrivals`) instead
of one ``schedule()`` per request.  The engine merges that sorted list
with its future-event list and calls admission control at each arrival
time, so no arrival ever takes a heap entry: at the web peak a 60-s
window holds tens of thousands of arrivals, while the heap holds only
the in-flight completions (hundreds) and a few control events.  An
engine takes one stream, so one source feeds each engine.

The vectorized data plane takes no events at all: given a ``sink``,
the source schedules nothing, and the sink pulls each window
(:meth:`WorkloadSource.pull`) when :meth:`WorkloadSource.due` says the
engine-event-per-window plane would have generated it.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..sim.engine import Engine
from ..sim.events import PRIORITY_HIGH
from ..workloads.base import Workload
from .admission import AdmissionControl

__all__ = ["WorkloadSource"]


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
        The deployment's front door.  :meth:`start` makes its
        ``submit`` the engine's arrival callback, so each arrival is
        submitted to it at its timestamp.
    horizon:
        Generation stops at this simulation time (arrivals beyond it
        are discarded).
    sink:
        Alternative consumer of the arrival windows — any object with
        ``pull_from(source)``.  The vectorized backend passes its
        :class:`~repro.cloud.vecfleet.VectorFleet` here: it takes whole
        windows with :meth:`pull` when its epoch loop needs them, so no
        generation event ever enters the engine.  Exactly one of
        ``admission`` / ``sink`` must be provided.
    tracer:
        Optional :class:`repro.obs.bus.TraceBus`; one ``window.generated``
        event per window generated through ``admission`` (cold path —
        never per arrival).  A pulling sink emits that event itself, in
        trace order, so a source with a sink ignores its tracer.

    Notes
    -----
    Window generation runs at :data:`~repro.sim.events.PRIORITY_HIGH`
    so that a window's first arrival is in the event list before any
    same-instant completion fires.  A sink pulls windows in that same
    order (:meth:`due`).

    The sink is fixed at construction: to route arrivals through a
    different front door, build a new source with ``admission=`` (the
    slots make a later write to a private attribute fail loudly
    instead of being silently ignored).
    """

    __slots__ = (
        "_engine",
        "_workload",
        "_rng",
        "_sink",
        "_pulled",
        "_next",
        "_mark",
        "horizon",
        "generated",
        "windows",
        "_tracer",
    )

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
                "provide exactly one of admission= (the engine's arrival stream) "
                "or sink= (windows pulled by the sink)"
            )
        self._engine = engine
        self._workload = workload
        self._rng = rng
        self._pulled = sink is not None
        self._sink = admission if sink is None else sink
        self._next = math.inf
        self._mark = 0
        self.horizon = float(horizon)
        self.generated = 0
        #: Windows generated so far (each one an engine event when the
        #: source dispatches through ``admission``).
        self.windows = 0
        self._tracer = tracer

    def start(self) -> None:
        """Feed the engine and schedule the first window (call before run).

        With a sink, nothing is scheduled: the first window starts now
        and the sink is told to pull it.  Otherwise the admission gate
        becomes the engine's arrival callback, which raises
        :class:`~repro.errors.EngineStateError` if another source
        already feeds the engine.
        """
        self._next = self._engine.now
        if self._pulled:
            self._mark = self._engine.scheduled
            self._sink.pull_from(self)
        else:
            self._engine.feed(self._sink.submit)
            self._engine.schedule_at(self._next, self._generate_window, PRIORITY_HIGH)

    # ------------------------------------------------------------------
    # pulled windows (sink mode)
    # ------------------------------------------------------------------
    @property
    def next_start(self) -> float:
        """Start of the next window to pull (``inf`` past the horizon)."""
        return self._next

    def due(self, t: float) -> bool:
        """Whether the next window is generated before the engine reaches ``t``.

        A window starting before ``t`` is.  One starting at ``t`` is when
        the engine's next event is at ``t`` and its generation event
        would have fired first: that event has a lower priority than
        :data:`~repro.sim.events.PRIORITY_HIGH`, or it was scheduled
        after the previous window was generated — which is when the
        generation event would have been scheduled.
        """
        t0 = self._next
        if t0 != t:
            return t0 < t
        head = self._engine.peek_key()
        return (
            head is not None
            and head[0] == t
            and (head[1] > PRIORITY_HIGH or head[2] > self._mark)
        )

    def pull(self) -> Tuple[float, np.ndarray]:
        """Generate the next window: its start and its sorted arrivals."""
        t0 = self._next
        horizon = self.horizon
        arrivals = self._workload.sample_window(self._rng, t0)
        if arrivals.size and arrivals[-1] >= horizon:
            arrivals = arrivals[arrivals < horizon]
        self.generated += int(arrivals.size)
        self.windows += 1
        t_next = t0 + self._workload.window
        self._next = t_next if t_next < horizon else math.inf
        self._mark = self._engine.scheduled
        return t0, arrivals

    # ------------------------------------------------------------------
    def _generate_window(self) -> None:
        t0, arrivals = self.pull()
        if self._tracer is not None:
            self._tracer.emit(
                "window.generated", self._engine.now, t0=t0, arrivals=int(arrivals.size)
            )
        if arrivals.size:
            self._engine.load_arrivals(arrivals)
        if self._next != math.inf:
            self._engine.schedule_at(self._next, self._generate_window, PRIORITY_HIGH)
