"""Discrete-event simulation kernel.

The :mod:`repro.sim` package is the CloudSim substitute used by every
experiment in this repository: a small, strictly-causal, heap-based
discrete-event engine (:class:`Engine`), reproducible named random
streams (:class:`RandomStreams`), calendar helpers mapping simulation
seconds to the paper's day-of-week/time-of-day coordinates, and a fast
*fluid* (interval-analytical) evaluator in :mod:`repro.sim.fluid` that
cross-validates the event-driven results at full paper scale.
"""

from .batch import (
    SoAQueues,
    event_span,
    fifo_departures_grouped,
    round_robin_departures,
)
from .calendar import (
    DAY_NAMES,
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    SECONDS_PER_MINUTE,
    SECONDS_PER_WEEK,
    day_name,
    day_of_week,
    hms,
    hour_of_day,
    seconds_of_day,
)
from .engine import Engine
from .events import PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL, EventHandle
from .rng import RandomStreams, fnv1a64

__all__ = [
    "Engine",
    "EventHandle",
    "SoAQueues",
    "event_span",
    "fifo_departures_grouped",
    "round_robin_departures",
    "PRIORITY_HIGH",
    "PRIORITY_NORMAL",
    "PRIORITY_LOW",
    "RandomStreams",
    "fnv1a64",
    "DAY_NAMES",
    "SECONDS_PER_MINUTE",
    "SECONDS_PER_HOUR",
    "SECONDS_PER_DAY",
    "SECONDS_PER_WEEK",
    "seconds_of_day",
    "day_of_week",
    "day_name",
    "hour_of_day",
    "hms",
]
