"""Census: run the library and hold its three registries to what it does.

The simulation is only as trustworthy as three tables:

* :data:`repro.sim.rng.STREAM_REGISTRY` — every named random stream a
  run may draw (the provenance of every random number);
* :data:`repro.obs.schema.EVENT_TYPES` — every trace event type and its
  required payload;
* :data:`repro.obs.metrics.METRIC_NAMES` — every metric a metered run
  may record.

One module-scoped fixture runs a small, deliberate set of library
scenarios that together reach every stream-draw and ``emit`` site of
the library: traced and metered web runs on all three backends
(adaptive with corrective alerts, a saturated static fleet, priced
Profit and Spot runs with revocations), a boot
cancelled and a busy instance drained by hand, a campaign that
executes, caches, screens, fails, steals a stale lease and loses a
race to a peer, and the stream users outside the
backends (the MMPP workload, the §V workload analysis and the
Figure 3/4 arrival realizations).  While it runs,
``RandomStreams.get`` is wrapped to record the names drawn and a
trace sink validates every event.  The tests then check each table
in both directions: nothing undeclared happens, and nothing declared
is dead.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Dict, Set

import pytest

from repro.backends import build_context
from repro.campaigns import CampaignSpec, ResultStore, run_campaign
from repro.core import AdaptivePolicy, StaticPolicy, default_predictor
from repro.core.qos import QoSTarget
from repro.economy import PricingModel, ProfitPolicy, SpotPolicy
from repro.experiments import figures, run_policy, web_scenario
from repro.experiments.scenario import ScenarioConfig
from repro.obs.bus import TraceBus, TraceSink
from repro.obs.metrics import METRIC_NAMES, MetricsConfig
from repro.obs.schema import EVENT_TYPES, validate_event
from repro.prediction import ArrivalRatePredictor
from repro.sim import RandomStreams
from repro.sim.rng import STREAM_REGISTRY, stream_registered
from repro.workloads.synthetic import MMPPWorkload

_PRICING = PricingModel(
    revenue_per_request=0.002,
    cost_per_core_hour=0.1,
    sla_penalty=0.05,
    spot_mtbf=1800.0,
)


class _CensusSink(TraceSink):
    """Validates every event on arrival and counts it by type."""

    def __init__(self) -> None:
        self.types: Counter = Counter()

    def write(self, event: dict) -> None:
        validate_event(event)
        self.types[event["type"]] += 1


class _Doubled(ArrivalRatePredictor):
    """Twice an inner predictor's rate, with its boundaries."""

    name = "doubled"

    def __init__(self, inner: ArrivalRatePredictor) -> None:
        self.inner = inner

    def predict(self, t0: float, t1: float) -> float:
        return 2.0 * self.inner.predict(t0, t1)

    def boundaries(self, t0: float, t1: float):
        return self.inner.boundaries(t0, t1)


def _traced_runs(bus: TraceBus, metered: Set[str]) -> None:
    """Web runs on every backend, traced (requests included) and metered."""
    web = web_scenario(
        scale=2000.0, horizon=6 * 3600.0, rate_sample_interval=60.0, boot_delay=30.0
    )
    priced = web.with_updates(pricing=_PRICING)
    saturated = web_scenario(scale=400.0, horizon=3600.0)
    metrics = MetricsConfig()

    def run(scenario, policy, backend):
        result = run_policy(scenario, policy, backend=backend, trace=bus, metrics=metrics)
        metered.update(result.telemetry["registry"])

    for backend in ("des", "des-vec"):
        # Predictions twice the real rate: the deviation watch corrects them.
        overestimating = AdaptivePolicy(
            deviation_threshold=0.2, predictor_factory=lambda ctx: _Doubled(default_predictor(ctx))
        )
        run(web, overestimating, backend)
        run(saturated, StaticPolicy(20), backend)
        run(priced, SpotPolicy(0.5, pricing=_PRICING), backend)
    run(web, AdaptivePolicy(), "fluid")
    run(priced, ProfitPolicy(pricing=_PRICING), "fluid")
    run(priced, SpotPolicy(0.5, pricing=_PRICING), "fluid")


def _drained_instance(bus: TraceBus) -> None:
    """Retire an instance that holds a request: it drains."""
    ctx = build_context(web_scenario(scale=2000.0, horizon=60.0), tracer=bus)
    ctx.fleet.scale_to(1)
    ctx.fleet.active_instances[0].accept(0.0)
    ctx.fleet.scale_to(0)
    assert ctx.fleet.live_count == 1 and ctx.fleet.serving_count == 0


def _cancelled_boot(bus: TraceBus) -> None:
    """Retire an instance that is still booting: scaling to zero
    cancels its boot."""
    ctx = build_context(
        web_scenario(scale=2000.0, horizon=60.0, boot_delay=30.0), tracer=bus
    )
    ctx.fleet.scale_to(1)
    assert (ctx.fleet.live_count, ctx.fleet.active_count) == (1, 0)
    ctx.fleet.scale_to(0)
    assert ctx.fleet.live_count == 0


class _RacedStore(ResultStore):
    """Hides one stored cell from the first lookup only, as if a peer
    landed it between this worker's cache scan and its claim."""

    def __init__(self, root, raced) -> None:
        super().__init__(root)
        self._raced = raced.key()

    def has(self, cell) -> bool:
        if cell.key() == self._raced:
            self._raced = None
            return False
        return super().has(cell)


def _campaign(bus: TraceBus, root) -> None:
    """Execute, screen, fail, steal, then serve from cache — once after
    a peer's result lands under the claim."""
    spec = CampaignSpec.from_dict(
        {
            "campaign": {"name": "census"},
            "execution": {
                "retries": 0,
                "prescreen": True,
                "prescreen_max_rejection": 0.2,
            },
            "scenarios": [
                {
                    "scenario": "web",
                    "scale": 5000.0,
                    "horizon": 3600.0,
                    # adaptive executes, static-20 is screened by its
                    # fluid twin, static-9000 cannot be placed on the
                    # 8000 cores and fails.
                    "policies": ["adaptive", "static-20", "static-9000"],
                    "backends": ["des"],
                    "seeds": "0-1",
                }
            ],
        }
    )
    store = ResultStore(root)
    # A dead worker's lease, aged past the TTL: the run steals it.
    victim = spec.expanded()[0]
    assert store.claim(victim, "census:dead", ttl=3600.0).acquired
    lease = store.lease_of(victim).path
    stat = lease.stat()
    os.utime(lease, (stat.st_atime - 60.0, stat.st_mtime - 60.0))
    cold = run_campaign(spec, store=store, workers=1, trace=bus, lease_ttl=5.0)
    assert cold.counts()["executed"] == 2
    assert cold.counts()["screened"] == 2
    assert cold.counts()["failed"] == 2
    warm = run_campaign(
        spec, store=_RacedStore(root, victim), workers=1, trace=bus, lease_ttl=5.0
    )
    assert warm.counts()["cached"] == 2
    assert store.active_leases() == []


def _other_stream_users() -> None:
    """Library stream draws outside the backends' replications."""
    # The MMPP phase trajectory, through a short DES run.
    mmpp = ScenarioConfig(
        name="mmpp",
        workload=MMPPWorkload(
            low_rate=0.5,
            high_rate=2.0,
            mean_low_sojourn=600.0,
            mean_high_sojourn=300.0,
        ),
        qos=QoSTarget(max_response_time=5.0),
        horizon=3600.0,
    )
    run_policy(mmpp, StaticPolicy(4))
    # The §V workload analysis table and the Figure 3/4 realizations.
    figures.workload_analysis_data(seed=0)
    figures.fig4_data(seed=0)
    figures.fig3_data(bin_width=3600.0, sampled=True, seed=0)


@pytest.fixture(scope="module")
def census(tmp_path_factory) -> Dict[str, object]:
    drawn: Set[str] = set()
    real_get = RandomStreams.get

    def recording_get(self, name):
        drawn.add(name)
        return real_get(self, name)

    sink = _CensusSink()
    bus = TraceBus(sink)
    metered: Set[str] = set()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RandomStreams, "get", recording_get)
        # Figure 3 realizes a whole week of 60-s windows; two hours
        # reach the same draw site.
        mp.setattr(figures, "SECONDS_PER_WEEK", 7200.0)
        _traced_runs(bus, metered)
        _cancelled_boot(bus)
        _drained_instance(bus)
        _campaign(bus, tmp_path_factory.mktemp("census-store"))
        _other_stream_users()
    return {"drawn": drawn, "events": sink.types, "metrics": metered}


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------


def test_every_drawn_stream_is_registered(census):
    unregistered = sorted(n for n in census["drawn"] if not stream_registered(n))
    assert unregistered == []


def test_every_registered_stream_is_drawn(census):
    assert sorted(e for e in STREAM_REGISTRY if e not in census["drawn"]) == []


# ---------------------------------------------------------------------------
# trace events (each one was validated by the sink as it was emitted)
# ---------------------------------------------------------------------------


def test_emitted_event_types_are_exactly_the_schema(census):
    emitted = set(census["events"])
    assert sorted(emitted - set(EVENT_TYPES)) == []
    assert sorted(set(EVENT_TYPES) - emitted) == []


# ---------------------------------------------------------------------------
# metrics (creating an undeclared name already raises at run time)
# ---------------------------------------------------------------------------


def test_created_metrics_are_exactly_the_declared_names(census):
    created = census["metrics"]
    assert sorted(created - set(METRIC_NAMES)) == []
    assert sorted(set(METRIC_NAMES) - created) == []
