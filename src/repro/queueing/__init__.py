"""Analytical queueing-theory library.

Closed-form steady-state models used by the load predictor &
performance modeler (paper §IV-B) and by the fluid simulation engine:

* :class:`MM1KQueue` — M/M/1/K, the paper's per-instance model
* :class:`MD1KQueue` — deterministic-service approximation of M/D/1/K,
  for the low-variability simulated workloads (queue-model ablation)
* :class:`MMCKQueue` — M/M/c/K, the pooled fleet (lower bound of the
  DES blocking bracket)
* :class:`ProvisioningNetwork` — the composed Figure-2 network

All models share the :class:`QueueModel` interface, so Algorithm 1 can
be run against any of them (see the queue-model ablation benchmark).
"""

from .base import QueueModel
from .md1 import MD1KQueue
from .mm1k import MM1KQueue, mm1k_blocking, mm1k_mean_number
from .mmck import MMCKQueue
from .network import NetworkPerformance, ProvisioningNetwork

__all__ = [
    "QueueModel",
    "MM1KQueue",
    "mm1k_blocking",
    "mm1k_mean_number",
    "MMCKQueue",
    "MD1KQueue",
    "NetworkPerformance",
    "ProvisioningNetwork",
]
