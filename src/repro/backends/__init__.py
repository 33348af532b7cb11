"""Pluggable execution backends for the shared control plane.

``repro.backends`` is the seam between "what to run" (a scenario and a
policy) and "how to run it":

* :class:`~repro.backends.des.DESBackend` — event-per-request
  discrete-event simulation (exact, slow at paper scale);
* :class:`~repro.backends.des_vec.DESVecBackend` — batched
  structure-of-arrays DES (exact queueing dynamics, arrivals and
  completions move through numpy kernels between control epochs);
* :class:`~repro.backends.fluid.FluidBackend` — interval-analytical
  flow evaluation (approximate data plane, exact control plane, fast
  at any scale).

All three subclass :class:`~repro.backends.base.ExecutionBackend`, so
they share one run lifecycle and produce the unified
:class:`~repro.backends.base.RunMetrics`, and all three execute the
same :mod:`repro.core.controlplane` code, which is what makes them
cross-checkable.  This package is the only module
allowed to import both engines (``repro.sim`` event kernel *and*
``repro.sim.fluid``) — see ``docs/architecture.md``.
"""

from .base import BACKENDS, ExecutionBackend, RunMetrics, resolve_backend
from .des import DESBackend, build_context
from .des_vec import DESVecBackend
from .fluid import FluidBackend

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "RunMetrics",
    "resolve_backend",
    "DESBackend",
    "DESVecBackend",
    "FluidBackend",
    "build_context",
]
