"""CPU time at a nominal host speed, from a probe sampled during the measurement.

On a shared host, how fast a core runs depends on what the neighbours
do: the same op's CPU time swings by up to 2x within minutes, while
nothing here waits or is descheduled.  A fixed pure-Python kernel (the
probe) is timed every ``PERIOD_S`` of wall time while an op runs, on
the op's own core, so it slows down with the op.  Scaling the op's CPU
time by ``NOMINAL_S / median probe time`` gives its CPU time at the
probe's nominal speed.  Over twelve rounds of single ops on a busy
2-vCPU Xeon guest, the quartile distance of raw CPU time was 25-38% of
its median, and that of the scaled time 5-9%.

The probe runs from a ``SIGALRM`` handler between bytecodes of the op;
its own CPU time is taken out of the op's.  Nothing in ``repro`` uses
signals.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Wall seconds between probe samples (about 2.5% of the op's time).
PERIOD_S = 0.02
#: Loop iterations of one probe sample.
PROBE_LOOPS = 6_000
#: The probe's time the results are scaled to: a fixed value, chosen so
#: that ops read about their CPU time on an idle core of the host named
#: in the README.
NOMINAL_S = 3.5e-4


def _kernel() -> int:
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return total


class Probe:
    """Context manager sampling the probe kernel while it is entered."""

    def __init__(self) -> None:
        #: CPU seconds of each probe sample.
        self.samples: list = []
        self._previous = None

    def sample(self, *_signal) -> None:
        start = time.process_time()
        _kernel()
        self.samples.append(time.process_time() - start)

    def __enter__(self) -> "Probe":
        self.sample()  # so that even an op shorter than PERIOD_S has one
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def normalise(cpu_s: float, samples) -> float:
    """``cpu_s`` (which includes the samples) less the probe's own time,
    scaled to the probe's nominal speed."""
    return (cpu_s - sum(samples)) * NOMINAL_S / statistics.median(samples)
