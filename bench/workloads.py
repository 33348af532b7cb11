"""The benchmark's workloads: inputs from a seed, one operation, output checks.

Each workload builds its input (a scenario or a campaign spec) from the
seed, runs one operation through the public API, and checks what the
operation returned.  An operation fails if it raises or a check finds
a problem.
"""

from __future__ import annotations

import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro import AdaptivePolicy, StaticPolicy, run_policy, web_scenario
from repro.obs.bus import TraceConfig
from repro.obs.metrics import MetricsConfig
from repro.obs.schema import CONTROL_EVENTS

DAY = 86_400.0
#: Web scale of the untimed warm-up op and of ``--quick`` runs.
QUICK_SCALE = 2000.0

#: Result fields a run with metrics and trace on must share with the
#: same run with both off: observing a run may not change it.
RESULT_FIELDS = (
    "total_requests",
    "accepted",
    "rejected",
    "completed",
    "qos_violations",
    "lost_requests",
    "vm_hours",
    "control_series",
    "fleet_series",
)

#: The "margin" pricing regime of campaigns/economy.toml.
MARGIN_PRICING = {
    "revenue_per_request": 0.02,
    "cost_per_core_hour": 0.15,
    "spot_cost_factor": 0.3,
    "sla_penalty": 0.05,
    "spot_mtbf": 7200.0,
}
WEB_POLICIES = ("adaptive", "profit", "spot-30", "static-50", "static-100", "static-150")
SCIENTIFIC_POLICIES = ("adaptive", "static-15", "static-45", "static-75")


def check_run_metrics(r) -> List[str]:
    """Accounting laws every ``RunMetrics`` must satisfy (empty = fine)."""
    problems = []
    label = f"{r.scenario}/{r.policy}/{r.backend}/s{r.seed}"
    # The fluid backend reports expected counts as floats.
    exact = r.backend != "fluid"
    total = r.accepted + r.rejected
    if not (r.total_requests == total if exact else math.isclose(r.total_requests, total)):
        problems.append(f"{label}: total_requests {r.total_requests} != accepted + rejected {total}")
    if r.completed + r.lost_requests > r.accepted * (1 if exact else 1 + 1e-9):
        problems.append(
            f"{label}: completed {r.completed} + lost {r.lost_requests} > accepted {r.accepted}"
        )
    if not math.isclose(r.profit, r.revenue - r.cost - r.penalty, abs_tol=1e-9):
        problems.append(f"{label}: profit {r.profit} != revenue - cost - penalty")
    return problems


def compare_runs(a, b, fields=RESULT_FIELDS) -> List[str]:
    """Fields on which two runs of the same seed disagree."""
    return [
        f"{a.backend} vs {b.backend} s{a.seed}: {name} differs"
        for name in fields
        if getattr(a, name) != getattr(b, name)
    ]


@dataclass
class Op:
    """What one operation returned."""

    results: list
    #: Size of the campaign store's manifest after the op (0 without one).
    manifest_bytes: int = 0
    #: Scratch directory removed by :meth:`close`.
    scratch: Optional[Path] = None
    #: Anything the workload's check needs besides ``results``.
    state: dict = field(default_factory=dict)

    @property
    def requests(self) -> float:
        return sum(r.total_requests for r in self.results)

    def close(self) -> None:
        if self.scratch is not None:
            shutil.rmtree(self.scratch, ignore_errors=True)


class DesWorkload:
    """One web day, one ``run_policy`` call per op."""

    def __init__(self, name, scale, backend, static=None, observed=False) -> None:
        self.name = name
        self.scale = scale
        self.backend = backend
        self.static = static
        self.observed = observed

    def setup(self, seed: int, quick: bool):
        return web_scenario(scale=QUICK_SCALE if quick else self.scale, horizon=DAY)

    def _policy(self, scenario):
        if self.static is not None:
            return StaticPolicy(self.static)
        return AdaptivePolicy(update_interval=scenario.update_interval, lead_time=scenario.lead_time)

    def _run(self, scenario, seed: int, observed: bool):
        obs = {}
        if observed:
            # The `repro run --trace --metrics` configuration.
            obs = dict(
                metrics=MetricsConfig(),
                trace=TraceConfig(sink="memory", events=tuple(sorted(CONTROL_EVENTS))),
            )
        return run_policy(scenario, self._policy(scenario), seed=seed, backend=self.backend, **obs)

    def run(self, scenario, seed: int, workdir: Path) -> Op:
        return Op([self._run(scenario, seed, self.observed)])

    def check(self, scenario, seed: int, op: Op, reference: bool = True) -> List[str]:
        """Accounting laws; with ``reference``, an observed op is also
        compared with the same run unobserved (a second full run, whose
        wall time is kept in ``op.state["reference_wall"]``)."""
        problems = [p for r in op.results for p in check_run_metrics(r)]
        if self.observed and reference:
            start = time.perf_counter()
            plain = self._run(scenario, seed, observed=False)
            op.state["reference_wall"] = time.perf_counter() - start
            problems += compare_runs(op.results[0], plain)
        return problems


class CampaignWorkload:
    """A cold fluid campaign grid into a fresh store, one ``run_campaign`` per op."""

    name = "campaign-fluid"

    def setup(self, seed: int, quick: bool):
        from repro.campaigns import CampaignSpec

        return CampaignSpec.from_dict(campaign_grid(seed, quick))

    def run(self, spec, seed: int, workdir: Path) -> Op:
        from repro.campaigns import ResultStore, run_campaign

        scratch = Path(tempfile.mkdtemp(prefix="store-", dir=workdir))
        store = ResultStore(scratch)
        recorded = []
        put = store.put

        def recording_put(cell, metrics, status="cached"):
            recorded.append((cell, metrics))
            return put(cell, metrics, status)

        store.put = recording_put
        outcome = run_campaign(spec, store=store, workers=1)
        return Op(
            results=[m for _, m in recorded],
            manifest_bytes=store.manifest_path.stat().st_size,
            scratch=scratch,
            state={"outcome": outcome, "recorded": recorded},
        )

    def check(self, spec, seed: int, op: Op, reference: bool = True) -> List[str]:
        from repro.campaigns import ResultStore, run_campaign

        cells = len(spec.expanded())
        problems = [p for r in op.results for p in check_run_metrics(r)]
        executed = op.state["outcome"].counts()["executed"]
        if executed != cells or len(op.results) != cells:
            problems.append(f"cold run executed {executed}/{cells} cells, stored {len(op.results)}")
        cached = run_campaign(spec, store=ResultStore(op.scratch), workers=1).counts()["cached"]
        if cached != cells:
            problems.append(f"warm re-run served {cached}/{cells} cells from the store")
        reader = ResultStore(op.scratch)
        problems += [
            f"{cell.label()}: stored artifact reloads unequal"
            for cell, metrics in op.state["recorded"]
            if reader.get(cell) != metrics
        ]
        return problems


def campaign_grid(seed: int, quick: bool) -> dict:
    """The 320-cell fluid grid (16 cells under ``quick``) for seeds from ``seed``."""
    last = seed + (1 if quick else 31)
    horizon = "day" if quick else "week"
    web = WEB_POLICIES[:3] + ("static-100",) if quick else WEB_POLICIES
    return {
        "campaign": {"name": "bench-campaign-fluid"},
        "execution": {"workers": 1, "retries": 0, "backends": ["fluid"], "seeds": f"{seed}-{last}"},
        "scenarios": [
            {
                "scenario": "web",
                "name": "web-margin",
                "scale": 1.0,
                "horizon": horizon,
                "pricing": dict(MARGIN_PRICING),
                "policies": list(web),
            },
            {"scenario": "scientific", "horizon": horizon, "policies": list(SCIENTIFIC_POLICIES)},
        ],
    }


#: Name → workload; BENCHMARK.json says why each was chosen.
WORKLOADS: Dict[str, object] = {
    w.name: w
    for w in (
        DesWorkload("web-day", scale=100.0, backend="des-vec"),
        DesWorkload("web-saturated", scale=400.0, backend="des-vec", static=75),
        DesWorkload("web-day-observed", scale=100.0, backend="des", observed=True),
        CampaignWorkload(),
    )
}
