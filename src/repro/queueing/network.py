"""Queueing-network composition — the paper's Figure 2.

The data-center model is a two-stage open network:

1. an **M/M/∞ dispatch station** (the application provisioner), then
2. **m parallel M/M/1/k stations** (the virtualized application
   instances), each receiving λ/m of the accepted flow because the
   provisioner balances round-robin.

An M/M/∞ station never queues, so its mean sojourn is just its mean
routing time.  The simulator routes instantly, and so does this model:
the first stage adds nothing, and only the instance stations are
evaluated.

:class:`ProvisioningNetwork` evaluates the end-to-end steady state of
that network for a candidate fleet size ``m`` — exactly the computation
the load predictor & performance modeler performs on every iteration of
Algorithm 1.  Keeping it here, independent of the control logic, lets the tests
pin the numbers against hand calculations and lets ablations swap the
per-instance model (M/M/1/k or the M/D/1/K approximation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ..errors import QueueingModelError
from .base import QueueModel
from .mm1k import MM1KQueue

__all__ = ["NetworkPerformance", "ProvisioningNetwork"]


@dataclass(frozen=True)
class NetworkPerformance:
    """Steady-state summary of the provisioning network for one ``m``.

    Attributes
    ----------
    instances:
        Fleet size ``m`` the numbers were computed for.
    per_instance_lambda:
        λ/m — arrival rate offered to each application instance.
    rho:
        Offered load per instance, (λ/m)/μ.
    blocking_probability:
        Probability an arrival is rejected by admission control.
    response_time:
        Mean end-to-end time of an *accepted* request (its instance
        sojourn; dispatch takes no time), seconds.
    utilization:
        Carried load per instance (fraction of busy time).
    throughput:
        Accepted requests per second across the whole fleet.
    """

    instances: int
    per_instance_lambda: float
    rho: float
    blocking_probability: float
    response_time: float
    utilization: float
    throughput: float


class ProvisioningNetwork:
    """The Figure-2 network evaluated analytically.

    Parameters
    ----------
    service_time:
        Mean request service time at one instance, Tm (seconds).
    capacity:
        Per-instance system capacity k (Eq. 1).
    instance_model:
        Factory ``(lam, mu, capacity) -> QueueModel`` used for each
        instance station; defaults to :class:`MM1KQueue`.

    Examples
    --------
    >>> net = ProvisioningNetwork(service_time=0.1, capacity=2)
    >>> perf = net.evaluate(arrival_rate=1200.0, instances=150)
    >>> 0.7 < perf.rho < 0.9
    True
    """

    def __init__(
        self,
        service_time: float,
        capacity: int,
        instance_model: Callable[[float, float, int], QueueModel] = MM1KQueue,
    ) -> None:
        if not (service_time > 0.0 and math.isfinite(service_time)):
            raise QueueingModelError(
                f"service time must be finite and > 0, got {service_time!r}"
            )
        self.service_time = float(service_time)
        self.capacity = int(capacity)
        self.instance_model = instance_model

    def evaluate(self, arrival_rate: float, instances: int) -> NetworkPerformance:
        """Steady state of the network with ``instances`` stations.

        Raises
        ------
        QueueingModelError
            If ``instances < 1`` or ``arrival_rate < 0``.
        """
        if isinstance(instances, bool) or int(instances) != instances or int(instances) < 1:
            raise QueueingModelError(f"fleet size must be an integer >= 1, got {instances!r}")
        instances = int(instances)
        if arrival_rate < 0.0 or not math.isfinite(arrival_rate):
            raise QueueingModelError(
                f"arrival rate must be finite and >= 0, got {arrival_rate!r}"
            )

        mu = 1.0 / self.service_time
        lam_i = arrival_rate / instances
        station = self.instance_model(lam_i, mu, self.capacity)
        blocking = station.blocking_probability
        return NetworkPerformance(
            instances=instances,
            per_instance_lambda=lam_i,
            rho=lam_i / mu,
            blocking_probability=blocking,
            response_time=station.mean_response_time,
            utilization=station.utilization,
            throughput=arrival_rate * (1.0 - blocking),
        )
