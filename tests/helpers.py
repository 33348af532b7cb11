"""Shared construction helpers for cloud-layer tests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.cloud import (
    AdmissionControl,
    ApplicationFleet,
    Datacenter,
    Monitor,
    VectorFleet,
)
from repro.metrics import MetricsCollector
from repro.sim import Engine, RandomStreams
from repro.workloads import PoissonWorkload


@dataclass
class Env:
    """A wired data plane for unit tests."""

    engine: Engine
    datacenter: Datacenter
    monitor: Monitor
    metrics: MetricsCollector
    fleet: Union[ApplicationFleet, VectorFleet]
    #: ``None`` on the vectorized plane, whose span kernel is the gate.
    admission: Optional[AdmissionControl]


def make_env(
    capacity: int = 2,
    service_time: float = 1.0,
    jitter: float = 0.0,
    num_hosts: int = 10,
    boot_delay: float = 0.0,
    balancer=None,
    qos_response_time: float = float("inf"),
    exponential_service: bool = False,
    seed: int = 0,
    track_fleet_series: bool = False,
    vectorized: bool = False,
) -> Env:
    """Build an engine + data center + fleet with a simple service law.

    ``vectorized=True`` builds a :class:`VectorFleet` (the ``des-vec``
    data plane) instead of an :class:`ApplicationFleet`.
    """
    streams = RandomStreams(seed)
    engine = Engine()
    metrics = MetricsCollector(
        qos_response_time=qos_response_time, track_fleet_series=track_fleet_series
    )
    datacenter = Datacenter(num_hosts=num_hosts)
    monitor = Monitor(engine, metrics, default_service_time=service_time)
    workload = PoissonWorkload(
        rate=1.0,
        base_service_time=service_time,
        exponential_service=exponential_service,
    )
    if not exponential_service:
        workload.service_jitter = jitter
    sampler = workload.service_sampler(streams.get("service"))
    fleet = (VectorFleet if vectorized else ApplicationFleet)(
        engine=engine,
        datacenter=datacenter,
        sampler=sampler,
        monitor=monitor,
        metrics=metrics,
        capacity=capacity,
        balancer=balancer,
        boot_delay=boot_delay,
    )
    admission = None if vectorized else AdmissionControl(fleet, monitor)
    return Env(engine, datacenter, monitor, metrics, fleet, admission)
