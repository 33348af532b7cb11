"""Monitoring service — the simulator's Amazon-CloudWatch stand-in.

The load predictor & performance modeler "obtains current service times
for each application instance ... via regular monitoring tools or by
Cloud monitoring services such as Amazon CloudWatch" (paper §IV-B).
:class:`Monitor` is that service:

* it is the single sink for request completions: each one is folded
  into the run's :class:`~repro.metrics.collector.MetricsCollector`
  (admission control counts acceptances and rejections on that
  collector directly),
* it keeps an exponentially-weighted estimate of the mean request
  service time ``T_m`` — the monitored quantity Algorithm 1 consumes,
* it optionally samples the observed arrival rate on a fixed cadence,
  which is the input history for the *reactive* predictors
  (:mod:`repro.prediction`).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..metrics.collector import MetricsCollector
from ..obs.bus import narrowed
from ..sim.engine import Engine
from ..sim.events import PRIORITY_LOW

__all__ = ["Monitor"]

#: Longest slice of the T_m fold handed to one ``np.dot`` call; shorter
#: dots run on one thread whatever the BLAS thread count.
_DOT_CHUNK = 8192


class Monitor:
    """Runtime observability for one application deployment.

    Parameters
    ----------
    engine:
        Simulation engine (used only when rate sampling is enabled).
    metrics:
        The run's metric accumulator.
    default_service_time:
        ``T_m`` reported before any completion has been observed — the
        provisioner must make its first decision with no history, so it
        starts from the negotiated/estimated request execution time.
    ewma_alpha:
        Smoothing weight of the service-time estimate.  The default 0.05
        averages over roughly the last 40 completions.
    rate_sample_interval:
        When set, the monitor counts arrivals per interval and stores a
        bounded history of ``(time, rate)`` pairs for reactive
        predictors.
    history_length:
        Maximum retained rate samples.
    tracer:
        Optional :class:`repro.obs.bus.TraceBus`.  When set, each
        completion emits ``request.completed`` and each rate sample
        emits ``monitor.sample`` (carrying the current ``T_m``
        estimate); ``None`` keeps the hot path unchanged.

    Attributes
    ----------
    observer:
        Optional response observer, ``None`` by default.  A
        metrics-enabled run's :class:`~repro.obs.metrics.RunTelemetry`
        sets its response-time histogram here (see its ``install``):
        every response recorded here is then passed to its ``observe``
        (one completion) or ``observe_many`` (a non-empty batch), in
        recording order.
    """

    def __init__(
        self,
        engine: Engine,
        metrics: MetricsCollector,
        default_service_time: float,
        ewma_alpha: float = 0.05,
        rate_sample_interval: Optional[float] = None,
        history_length: int = 4096,
        tracer: Optional[object] = None,
    ) -> None:
        if default_service_time <= 0.0:
            raise ConfigurationError(
                f"default service time must be > 0, got {default_service_time}"
            )
        if not 0.0 < ewma_alpha <= 1.0:
            raise ConfigurationError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        self._engine = engine
        self._metrics = metrics
        self._tm = float(default_service_time)
        self._alpha = float(ewma_alpha)
        self._seen_completion = False
        # (1-α)**(size-1), ..., (1-α)**0: the T_m fold's weights, grown
        # by record_responses.
        self._weights = np.empty(0, dtype=np.float64)
        self.observer = None
        self._tracer = narrowed(tracer, "monitor.sample")
        self._completion_tracer = narrowed(tracer, "request.completed")
        # -- arrival-rate sampling ------------------------------------
        self._rate_interval = rate_sample_interval
        self._arrivals_in_window = 0
        self.rate_history: Deque[Tuple[float, float]] = deque(maxlen=history_length)
        if rate_sample_interval is not None:
            if not 0.0 < rate_sample_interval < math.inf:
                raise ConfigurationError(
                    f"rate sample interval must be finite and > 0, got {rate_sample_interval}"
                )
            engine.schedule(rate_sample_interval, self._sample_rate, PRIORITY_LOW)

    # ------------------------------------------------------------------
    # hot-path sinks
    # ------------------------------------------------------------------
    def record_response(self, response_time: float, service_time: float) -> None:
        """Observe one completed request (called by instances).

        The scalar data plane's whole completion hop in one frame: the
        collector's counters and Welford response-time accumulators,
        the ``T_m`` EWMA, the trace event and the observer.
        """
        m = self._metrics
        m.completed = completed = m.completed + 1
        if response_time > m.qos_response_time:
            m.violations += 1
        m.busy_seconds += service_time
        delta = response_time - m._resp_mean
        m._resp_mean += delta / completed
        m._resp_m2 += delta * (response_time - m._resp_mean)
        if self._seen_completion:
            self._tm += self._alpha * (service_time - self._tm)
        else:
            self._tm = service_time
            self._seen_completion = True
        if self._completion_tracer is not None:
            self._completion_tracer.emit(
                "request.completed",
                self._engine.now,
                response_time=response_time,
                service_time=service_time,
            )
        if self.observer is not None:
            self.observer.observe(response_time)

    def record_arrival(self) -> None:
        """Observe one arrival (only counted when sampling is enabled)."""
        self._arrivals_in_window += 1

    # ------------------------------------------------------------------
    # bulk sinks (vectorized data plane)
    # ------------------------------------------------------------------
    def record_responses(
        self, response_times: np.ndarray, service_times: np.ndarray
    ) -> None:
        """Observe a batch of completions in departure order.

        Semantically ``record_response`` in a loop; the ``T_m`` EWMA is
        folded in closed form:
        ``tm' = (1-α)^n·tm + α·Σᵢ (1-α)^(n-1-i)·sᵢ``.  When every sample
        equals the current estimate (the jitterless scenarios), each
        sequential step would add exactly ``α·0``, so the update is
        skipped outright — keeping ``T_m`` bit-identical to the scalar
        path where the cross-backend tests require it.

        The weights ``(1-α)^(n-1), …, (1-α)^0`` are the last ``n``
        entries of a table kept by the monitor, so the dot sees the
        same contiguous values that ``(1-α) ** arange(n-1, -1, -1)``
        would build.  Building them per batch would cost time that grows
        faster than the batch: past the length where the powers go
        subnormal and then to zero (about 14.5k at α = 0.05), each power
        is slow.  The table doubles when a longer batch arrives, so a
        run computes each power once.

        A batch longer than ``_DOT_CHUNK`` is dotted in chunks of that
        length, summed in order: BLAS may split one long dot across
        threads, and its rounding would then depend on the thread count.

        The batch is not traced here: the caller traces it, in trace
        order, with :meth:`trace_completions`.
        """
        services = np.asarray(service_times, dtype=np.float64)
        if services.size == 0:
            return
        self._metrics.record_responses(response_times, services)
        start = 0
        if not self._seen_completion:
            self._tm = float(services[0])
            self._seen_completion = True
            start = 1
        tail = services[start:]
        n = tail.size
        if n and not (float(tail.min()) == self._tm and float(tail.max()) == self._tm):
            weights = self._weights
            if weights.size < n:
                weights = self._weights = self._grow_weights(n)
            weights = weights[weights.size - n :]
            dot = 0.0
            for i in range(0, n, _DOT_CHUNK):
                dot += float(np.dot(weights[i : i + _DOT_CHUNK], tail[i : i + _DOT_CHUNK]))
            self._tm = float((1.0 - self._alpha) ** n * self._tm + self._alpha * dot)
        if self.observer is not None:
            self.observer.observe_many(response_times)

    def _grow_weights(self, n: int) -> np.ndarray:
        """The weight table doubled until it holds ``n`` entries."""
        old = self._weights
        size = max(old.size, 1)
        while size < n:
            size *= 2
        head = (1.0 - self._alpha) ** np.arange(
            size - 1, old.size - 1, -1, dtype=np.float64
        )
        return np.concatenate((head, old))

    def trace_completions(
        self,
        response_times: np.ndarray,
        service_times: np.ndarray,
        completion_times: np.ndarray,
    ) -> None:
        """Trace one ``request.completed`` per completion of a recorded
        batch, stamped with its departure time (no-op untraced)."""
        tracer = self._completion_tracer
        if tracer is None:
            return
        for t, resp, svc in zip(
            np.asarray(completion_times, dtype=np.float64).tolist(),
            np.asarray(response_times, dtype=np.float64).tolist(),
            np.asarray(service_times, dtype=np.float64).tolist(),
        ):
            tracer.emit("request.completed", t, response_time=resp, service_time=svc)

    def record_arrivals(self, count: int) -> None:
        """Observe ``count`` arrivals at once (rate-sampling counter)."""
        self._arrivals_in_window += int(count)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def mean_service_time(self) -> float:
        """Current monitored estimate of ``T_m`` (seconds)."""
        return self._tm

    @property
    def rate_sample_interval(self) -> Optional[float]:
        """Arrival-rate sampling cadence, or ``None`` when disabled."""
        return self._rate_interval

    def observed_rate(self) -> Optional[float]:
        """Most recent sampled arrival rate, or ``None``."""
        if not self.rate_history:
            return None
        return self.rate_history[-1][1]

    # ------------------------------------------------------------------
    def _sample_rate(self) -> None:
        assert self._rate_interval is not None
        rate = self._arrivals_in_window / self._rate_interval
        self.rate_history.append((self._engine.now, rate))
        self._arrivals_in_window = 0
        if self._tracer is not None:
            self._tracer.emit(
                "monitor.sample",
                self._engine.now,
                rate=rate,
                service_time_estimate=self._tm,
            )
        self._engine.schedule(self._rate_interval, self._sample_rate, PRIORITY_LOW)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Monitor Tm={self._tm:.6g}s samples={len(self.rate_history)}>"
