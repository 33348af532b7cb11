"""Scenario configurations — the paper's two evaluation setups.

A :class:`ScenarioConfig` bundles everything that defines an experiment
except the provisioning policy: the workload model, the QoS contract,
the data-center geometry, the horizon, and the behaviour-preserving
scale factor (DESIGN.md §4).

Factory functions build the paper's scenarios:

* :func:`web_scenario` — §V-B1: Wikipedia-model traffic, one week,
  ``T_r = 100 ms``, ``T_s = 250 ms``, 80 % minimum utilization.
* :func:`scientific_scenario` — §V-B2: BoT grid jobs, one day,
  ``T_r = 300 s``, ``T_s = 700 s``, 80 % minimum utilization.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Optional

from ..core.qos import QoSTarget
from ..economy.pricing import PricingModel
from ..errors import ConfigurationError
from ..sim.calendar import SECONDS_PER_DAY, SECONDS_PER_WEEK
from ..workloads.base import Workload
from ..workloads.scientific import ScientificWorkload
from ..workloads.web import WebWorkload

__all__ = ["ScenarioConfig", "web_scenario", "scientific_scenario"]


@dataclass(frozen=True)
class ScenarioConfig:
    """One complete experiment definition (minus the policy).

    Attributes
    ----------
    name:
        Scenario label used in reports.
    workload:
        Demand model (already rescaled when ``scale != 1``).
    qos:
        QoS contract (already rescaled when ``scale != 1``).
    horizon:
        Simulation length in seconds.
    scale:
        The rate/service rescaling factor applied (1 = paper scale).
        Response-time metrics are divided by it when reporting.
    num_hosts, cores_per_host, ram_per_host_mb:
        Data-center geometry (paper: 1000 × 8 cores × 16 GB).
    boot_delay:
        VM boot latency in seconds.
    update_interval, lead_time:
        Analyzer cadence and head start for adaptive policies.
    rate_sample_interval:
        Monitor rate-sampling cadence (``None`` disables; reactive
        predictors and deviation watching need it).  Sampling also
        counts every arrival on the monitor, one call per request.
    track_fleet_series:
        Record the full fleet-size trajectory (costs memory).
    pricing:
        Optional :class:`~repro.economy.pricing.PricingModel` enabling
        profit accounting for the run (``None`` = economics off).
        Accepts a model, a mapping, or the frozen pair-tuple form
        campaign cells carry; coerced on construction.
    """

    name: str
    workload: Workload
    qos: QoSTarget
    horizon: float
    scale: float = 1.0
    num_hosts: int = 1000
    cores_per_host: int = 8
    ram_per_host_mb: int = 16_384
    boot_delay: float = 0.0
    update_interval: float = 900.0
    lead_time: float = 60.0
    rate_sample_interval: Optional[float] = None
    track_fleet_series: bool = False
    pricing: Optional[PricingModel] = None

    def __post_init__(self) -> None:
        if self.horizon <= 0.0 or not math.isfinite(self.horizon):
            raise ConfigurationError(f"horizon must be finite and > 0, got {self.horizon!r}")
        if not 0.0 < self.scale < math.inf:
            raise ConfigurationError(f"scale must be finite and > 0, got {self.scale!r}")
        interval = self.rate_sample_interval
        if interval is not None and not 0.0 < interval < math.inf:
            raise ConfigurationError(
                f"rate_sample_interval must be None or finite and > 0, got {interval!r}"
            )
        for name in ("num_hosts", "cores_per_host", "ram_per_host_mb"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ConfigurationError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("boot_delay", "lead_time"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigurationError(
                    f"{name} must be finite and >= 0, got {getattr(self, name)!r}"
                )
        if self.pricing is not None and not isinstance(self.pricing, PricingModel):
            object.__setattr__(self, "pricing", PricingModel.coerce(self.pricing))

    @property
    def capacity(self) -> int:
        """Per-instance queue size ``k`` from Eq. 1."""
        return self.qos.queue_capacity(self.workload.base_service_time)

    def with_updates(self, **changes) -> "ScenarioConfig":
        """Functional update helper (dataclasses.replace wrapper)."""
        return replace(self, **changes)


def web_scenario(
    scale: float = 1.0,
    horizon: float = SECONDS_PER_WEEK,
    spread: str = "uniform",
    **overrides,
) -> ScenarioConfig:
    """The paper's web scenario (§V-B1), optionally rescaled.

    Parameters
    ----------
    scale:
        Rate/service rescaling factor; 1.0 is the paper's full scale
        (≈ 500 M requests/week — use the fluid engine there), 200 is
        the DES benchmark default (≈ 2.7 M requests/week).
    horizon:
        Simulation length (paper: one week starting Monday 12 a.m.).
    spread:
        Within-interval arrival spreading of the web generator.
    overrides:
        Extra :class:`ScenarioConfig` field overrides.
    """
    workload: Workload = WebWorkload(spread=spread)
    qos = QoSTarget(max_response_time=0.250, max_rejection_rate=0.0, min_utilization=0.80)
    if scale != 1.0:
        workload = workload.scaled(scale)
        qos = qos.scaled(scale)
    defaults = dict(
        name=f"web" + (f"@1/{scale:g}" if scale != 1.0 else ""),
        workload=workload,
        qos=qos,
        horizon=float(horizon),
        scale=float(scale),
        update_interval=900.0,
        lead_time=60.0,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def scientific_scenario(
    scale: float = 1.0,
    horizon: float = SECONDS_PER_DAY,
    **overrides,
) -> ScenarioConfig:
    """The paper's scientific scenario (§V-B2), optionally rescaled.

    The BoT workload is light (≈ 8–10 k requests/day), so the DES runs
    it at full paper scale by default.
    """
    workload: Workload = ScientificWorkload()
    qos = QoSTarget(max_response_time=700.0, max_rejection_rate=0.0, min_utilization=0.80)
    if scale != 1.0:
        workload = workload.scaled(scale)
        qos = qos.scaled(scale)
    defaults = dict(
        name="scientific" + (f"@1/{scale:g}" if scale != 1.0 else ""),
        workload=workload,
        qos=qos,
        horizon=float(horizon),
        scale=float(scale),
        update_interval=1800.0,
        lead_time=60.0,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)
