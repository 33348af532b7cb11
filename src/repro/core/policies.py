"""Provisioning policies — the paper's Adaptive vs Static-N comparison.

A policy contributes the *control plane* of a deployment:

* :class:`AdaptivePolicy` — the paper's mechanism: workload analyzer →
  load predictor & performance modeler (Algorithm 1) → application
  provisioner, run as one :class:`~repro.core.controlplane.ControlPlane`.
  Subclasses change the modeler (profit), the fleet (spot) or the
  actuator (vertical) and keep the loop.
* :class:`StaticPolicy` — the baseline: a fixed fleet deployed at time
  zero and never changed ("a fixed number of instances is made
  available to execute the same workloads"), with the *same* admission
  control in front.

Policies are deliberately tiny objects; all heavy machinery lives in
:mod:`repro.core` and :mod:`repro.cloud`, so a policy can be described
in a benchmark table by its name alone (``Adaptive``, ``Static-50``…).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, FrozenSet, Optional, Tuple

from types import SimpleNamespace

from ..cloud.vm import DEFAULT_VM_SPEC
from ..errors import ConfigurationError
from ..prediction.base import ArrivalRatePredictor
from ..prediction.timebased import ModelInformedPredictor, ScientificModePredictor
from ..workloads.scientific import ScientificWorkload
from .analyzer import WorkloadAnalyzer
from .context import SimulationContext
from .controlplane import ControlPlane, FleetActuator, RecordingActuator, check_cadence
from .modeler import PerformanceModeler

__all__ = ["ProvisioningPolicy", "StaticPolicy", "AdaptivePolicy", "default_predictor"]


def default_predictor(ctx: SimulationContext) -> ArrivalRatePredictor:
    """The paper's analyzer for the scenario's workload type.

    * :class:`ScientificWorkload` → the §V-B2 mode-based estimator;
    * anything else → the model-informed curve predictor (web's
      time-based scheme).

    Scaled workloads are transparent: both predictors consult the
    scaled model's own rate curve / parameters.
    """
    inner = getattr(ctx.workload, "inner", ctx.workload)
    if isinstance(inner, ScientificWorkload):
        pred = ScientificModePredictor(inner)
        if inner is not ctx.workload:
            # Rescale the mode-based constants to the scaled stream.
            factor = ctx.workload.factor  # type: ignore[attr-defined]
            return _ScaledPredictor(pred, factor)
        return pred
    return ModelInformedPredictor(ctx.workload, mode="max")


class _ScaledPredictor(ArrivalRatePredictor):
    """Divides an inner predictor's rate by the workload scale factor."""

    def __init__(self, inner: ArrivalRatePredictor, factor: float) -> None:
        self.inner = inner
        self.factor = float(factor)
        self.name = f"{inner.name}@1/{factor:g}"

    def predict(self, t0: float, t1: float) -> float:
        return self.inner.predict(t0, t1) / self.factor

    def observe(self, t: float, rate: float) -> None:
        self.inner.observe(t, rate * self.factor)

    def boundaries(self, t0: float, t1: float):
        return self.inner.boundaries(t0, t1)


class ProvisioningPolicy(ABC):
    """Attachable control plane for one deployment."""

    #: Label used in figure tables (``Adaptive``, ``Static-75`` …).
    name: str = "policy"
    #: Names of the execution backends that can run this policy;
    #: :meth:`repro.backends.base.ExecutionBackend.run` rejects every
    #: other backend before the run starts.
    backends: FrozenSet[str] = frozenset({"des"})

    def validate(self, scenario) -> None:
        """Reject a scenario this policy cannot run.

        :meth:`repro.backends.base.ExecutionBackend.run` calls it before
        the run emits its first trace event; it raises
        :class:`~repro.errors.ConfigurationError`.  The base policy
        runs on every scenario.
        """

    @abstractmethod
    def attach(self, ctx: SimulationContext) -> None:
        """Wire the policy into a built simulation context.

        Called after the data plane exists but before the engine runs.
        """


class StaticPolicy(ProvisioningPolicy):
    """Fixed fleet of ``instances`` VMs for the whole run.

    Parameters
    ----------
    instances:
        The constant fleet size (the paper sweeps 50–150 for web and
        15–75 for scientific).
    """

    backends = frozenset({"des", "des-vec", "fluid"})

    def __init__(self, instances: int) -> None:
        if instances < 1:
            raise ConfigurationError(f"static fleet size must be >= 1, got {instances}")
        self.instances = int(instances)
        self.name = f"Static-{self.instances}"

    def attach(self, ctx: SimulationContext) -> None:
        reached = ctx.fleet.scale_to(self.instances)
        if reached < self.instances:
            raise ConfigurationError(
                f"{self.name}: data center placed only {reached} of "
                f"{self.instances} instances"
            )


class AdaptivePolicy(ProvisioningPolicy):
    """The paper's adaptive provisioning mechanism.

    Parameters
    ----------
    update_interval:
        Analyzer cadence (seconds).  The default of 900 s together with
        boundary-aligned alerts reproduces the paper's tracking
        behaviour on both scenarios.
    lead_time:
        How early alerts fire (provisioning head start).
    rho_max:
        Modeler's maximum acceptable per-instance offered load
        (DESIGN.md §3 calibration; default 0.85).
    initial_instances:
        Fleet deployed before the time-zero alert (0 = let the first
        alert size it).
    min_instances / max_instances:
        Fleet bounds; ``max_instances=None`` uses the data center's
        placement capacity (``MaxVMs``).
    predictor_factory:
        ``(ctx) -> ArrivalRatePredictor``; defaults to the paper's
        analyzer for the workload type.
    deviation_threshold, deviation_safety:
        Enable corrective alerts when the monitored arrival rate
        deviates from the issued estimate (see
        :class:`~repro.core.analyzer.WorkloadAnalyzer`); the scenario
        must enable monitor rate sampling (:meth:`validate`), and the
        policy then runs on the DES backends only.

    Every parameter is checked here, and the scenario in
    :meth:`validate`, so a bad value fails before a run emits its first
    trace event.
    """

    name = "Adaptive"
    backends = frozenset({"des", "des-vec", "fluid"})

    def __init__(
        self,
        update_interval: float = 900.0,
        lead_time: float = 60.0,
        rho_max: float = 0.85,
        initial_instances: int = 0,
        min_instances: int = 1,
        max_instances: Optional[int] = None,
        predictor_factory: Callable[[SimulationContext], ArrivalRatePredictor] = default_predictor,
        deviation_threshold: Optional[float] = None,
        deviation_safety: float = 1.1,
    ) -> None:
        check_cadence(update_interval, lead_time)
        if not 0.0 < rho_max < 1.0:
            raise ConfigurationError(f"rho_max must be in (0, 1), got {rho_max!r}")
        if initial_instances < 0 or min_instances < 1:
            raise ConfigurationError(
                "need initial_instances >= 0 and min_instances >= 1, got "
                f"{initial_instances} and {min_instances}"
            )
        if max_instances is not None and max_instances < min_instances:
            raise ConfigurationError(
                f"max_instances must be >= min_instances, got {max_instances}"
            )
        if deviation_threshold is not None:
            if not deviation_threshold > 0.0:
                raise ConfigurationError(
                    f"deviation threshold must be > 0, got {deviation_threshold!r}"
                )
            # The deviation watch reads the DES monitor.
            self.backends = self.backends - {"fluid"}
        if not deviation_safety > 0.0:
            raise ConfigurationError(
                f"deviation safety must be > 0, got {deviation_safety!r}"
            )
        self.update_interval = float(update_interval)
        self.lead_time = float(lead_time)
        self.rho_max = float(rho_max)
        self.initial_instances = int(initial_instances)
        self.min_instances = int(min_instances)
        self.max_instances = max_instances
        self.predictor_factory = predictor_factory
        self.deviation_threshold = deviation_threshold
        self.deviation_safety = float(deviation_safety)

    def validate(self, scenario) -> None:
        """A deviation watch reads the monitor's sampled arrival rate."""
        if self.deviation_threshold is not None and scenario.rate_sample_interval is None:
            raise ConfigurationError(
                "deviation watching needs a monitor with rate sampling "
                "(set the scenario's rate_sample_interval)"
            )

    def _build_modeler(self, qos, capacity: int, max_vms: int) -> PerformanceModeler:
        """One Algorithm-1 modeler, identically parameterized on every
        backend — the piece that must not drift between DES and fluid."""
        return PerformanceModeler(
            qos=qos,
            capacity=capacity,
            max_vms=max_vms,
            min_vms=self.min_instances,
            rho_max=self.rho_max,
        )

    def control_plane(
        self,
        workload,
        qos,
        capacity: int,
        max_vms: int,
        tracer=None,
    ) -> ControlPlane:
        """The :class:`~repro.core.controlplane.ControlPlane` an
        analytical backend steps (no engine, monitor, or fleet).

        The actuator is a :class:`RecordingActuator`, the service time
        is the workload's analytic mean (what the DES monitor's EWMA
        converges to), and the predictor comes from the policy's own
        ``predictor_factory`` — so the fluid backend executes the same
        cadence/decision code as the DES, not a re-implementation.
        """
        if self.max_instances is not None:
            max_vms = self.max_instances
        return ControlPlane(
            modeler=self._build_modeler(qos, capacity, max_vms),
            actuator=RecordingActuator(0, max_instances=max_vms),
            service_time_fn=lambda st=workload.mean_service_time: st,
            predictor=self.predictor_factory(SimpleNamespace(workload=workload)),
            update_interval=self.update_interval,
            lead_time=self.lead_time,
            initial_instances=self.initial_instances,
            tracer=tracer,
        )

    def actuation(
        self, ctx: SimulationContext
    ) -> Tuple[FleetActuator, Callable[[], float]]:
        """The ``(actuator, service_time_fn)`` pair the DES control plane
        drives: the fleet, sized in instances, against the monitored
        ``T_m``.  The vertical policy sizes in cores instead."""
        return ctx.fleet, ctx.monitor.mean_service_time

    def attach(self, ctx: SimulationContext) -> None:
        max_vms = self.max_instances
        if max_vms is None:
            max_vms = ctx.datacenter.max_vms(DEFAULT_VM_SPEC)
        modeler = self._build_modeler(ctx.qos, ctx.capacity, max_vms)
        actuator, service_time_fn = self.actuation(ctx)
        plane = ControlPlane(
            modeler=modeler,
            actuator=actuator,
            service_time_fn=service_time_fn,
            predictor=self.predictor_factory(ctx),
            update_interval=self.update_interval,
            lead_time=self.lead_time,
            initial_instances=self.initial_instances,
            tracer=ctx.tracer,
        )
        analyzer = WorkloadAnalyzer(
            engine=ctx.engine,
            plane=plane,
            horizon=ctx.horizon,
            monitor=ctx.monitor,
            deviation_threshold=self.deviation_threshold,
            deviation_safety=self.deviation_safety,
        )
        plane.start()
        analyzer.start()
        ctx.provisioner = plane
        ctx.analyzer = analyzer
