"""Campaign specifications — declarative grids over scenarios × policies.

A :class:`CampaignSpec` describes an evaluation campaign the way the
paper's §VI does: a set of scenario configurations, each crossed with
a list of policies, execution backends, and replication seeds.  Specs
load from TOML (Python 3.11+, via :mod:`tomllib`), JSON, or a plain
dict, and expand deterministically into hashable :class:`Cell` work
items — one per ``(scenario, policy, backend, seed)`` combination.

Determinism is the load-bearing property: expansion preserves the
spec's written order, canonicalizes seeds (sorted, deduplicated), and
produces cells whose :meth:`Cell.key` is a stable content hash of the
full cell configuration plus the result-schema versions.  Two loads of
the same spec therefore expand to the same cells with the same keys,
which is what makes the result store's skip-if-cached and crash-safe
resume semantics possible at all.

Validation happens at load time, not run time: unknown scenario names,
unparsable policies, unknown backends, bad seeds, and ``figure``
cross-references that do not name a known experiment id (see
:func:`repro.experiments.cli.available_experiments`) all raise
:class:`~repro.errors.ConfigurationError` before any cell executes;
scenario parameters are checked by actually constructing the
:class:`~repro.experiments.scenario.ScenarioConfig` they denote.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..backends.base import BACKENDS
from ..backends.pool import PolicySpec
from ..core.policies import AdaptivePolicy, StaticPolicy
from ..economy.policies import ProfitPolicy, SpotPolicy
from ..economy.pricing import PricingModel
from ..errors import ConfigurationError
from ..experiments.scenario import ScenarioConfig, scientific_scenario, web_scenario
from ..experiments.seeds import parse_seeds
from ..sim.calendar import SECONDS_PER_DAY, SECONDS_PER_WEEK

__all__ = [
    "CAMPAIGN_SCHEMA_VERSION",
    "SCENARIO_BUILDERS",
    "Cell",
    "ScenarioGrid",
    "CampaignSpec",
]

#: Bumped whenever the cell-configuration hash material changes shape;
#: folded into every :meth:`Cell.key`, so a schema bump invalidates
#: stored results instead of silently misreading them.
CAMPAIGN_SCHEMA_VERSION = 1

#: Scenario name → factory accepting keyword parameters.  The names
#: are the vocabulary campaign specs draw from.
SCENARIO_BUILDERS: Dict[str, Callable[..., ScenarioConfig]] = {
    "web": web_scenario,
    "scientific": scientific_scenario,
}

#: Readability aliases accepted wherever a spec gives a horizon.
_HORIZON_ALIASES = {"day": SECONDS_PER_DAY, "week": SECONDS_PER_WEEK}


def _canonical_json(obj: Any) -> str:
    """Deterministic JSON used as hash material (sorted keys, no spaces)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _normalize_horizon(value: Any) -> float:
    if isinstance(value, str):
        try:
            return float(_HORIZON_ALIASES[value])
        except KeyError:
            raise ConfigurationError(
                f"unknown horizon alias {value!r}; expected a number of "
                f"seconds or one of {sorted(_HORIZON_ALIASES)}"
            )
    return float(value)


def _parse_suffixed(norm: str, stem: str) -> Optional[int]:
    """``"<stem>-N"`` / ``"<stem>:N"`` → N, else ``None``."""
    for sep in ("-", ":"):
        prefix = f"{stem}{sep}"
        if norm.startswith(prefix):
            try:
                return int(norm[len(prefix):])
            except ValueError:
                return None
    return None


def _policy_factory(policy: str) -> Tuple[str, Callable[[], Any]]:
    """``(label, picklable factory)`` for one policy string.

    ``"adaptive"`` builds the paper's mechanism and ``"profit"`` the
    profit-maximizing ``m*`` variant, both with the *scenario's*
    analyzer cadence filled in by the caller; ``"spot-N"`` (or
    ``"spot:N"``) runs N % of capacity as revocable spot;
    ``"static-N"`` a fixed fleet of N.
    """
    norm = policy.strip().lower()
    if norm == "adaptive":
        return "Adaptive", PolicySpec(AdaptivePolicy)
    if norm == "profit":
        return "Profit", PolicySpec(ProfitPolicy)
    n = _parse_suffixed(norm, "static")
    if n is not None:
        return f"Static-{n}", PolicySpec(StaticPolicy, n)
    n = _parse_suffixed(norm, "spot")
    if n is not None:
        if not 0 < n < 100:
            raise ConfigurationError(
                f"spot percentage must be in (0, 100), got {policy!r}"
            )
        return f"Spot-{n}", PolicySpec(SpotPolicy, n / 100.0)
    raise ConfigurationError(
        f"unknown policy {policy!r}; expected 'adaptive', 'profit', "
        "'spot-N', or 'static-N'"
    )


@dataclass(frozen=True)
class Cell:
    """One schedulable unit of a campaign grid.

    A cell is the full configuration of one replication —
    ``(scenario name + parameters, policy, backend, seed)`` — in a
    hashable, picklable form.  Its :meth:`key` is a stable SHA-256 of
    the canonical cell configuration plus the campaign and persist
    schema versions, which the result store uses as the content
    address.

    Attributes
    ----------
    scenario:
        Registry name (``"web"`` / ``"scientific"``).
    params:
        Scenario-factory keyword parameters as a sorted
        ``(name, value)`` tuple (kept hashable; values are JSON
        scalars).
    policy:
        Policy string (``"adaptive"``, ``"static-75"``).
    backend:
        Execution backend spec (``"des"`` / ``"des-vec"`` / ``"fluid"``).
    seed:
        Replication seed.
    """

    scenario: str
    params: Tuple[Tuple[str, Any], ...]
    policy: str
    backend: str
    seed: int

    def config(self) -> Dict[str, Any]:
        """The cell's full configuration as a JSON-safe dict."""
        return {
            "scenario": self.scenario,
            "params": dict(self.params),
            "policy": self.policy,
            "backend": self.backend,
            "seed": self.seed,
        }

    def key(self) -> str:
        """Stable content hash of this cell (store address).

        Computed on the first call and kept on the instance; the kept
        key is not a field, so equality, hashing and pickles are the
        fields' alone.
        """
        key = getattr(self, "_key", None)
        if key is not None:
            return key
        from ..experiments import persist

        material = {
            "campaign_schema": CAMPAIGN_SCHEMA_VERSION,
            "results_schema": persist._VERSION,
            "cell": self.config(),
        }
        key = hashlib.sha256(_canonical_json(material).encode("utf-8")).hexdigest()
        object.__setattr__(self, "_key", key)
        return key

    def __getstate__(self) -> Dict[str, Any]:
        """The fields alone: a pickle never carries the kept key."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def policy_label(self) -> str:
        return _policy_factory(self.policy)[0]

    def label(self) -> str:
        """Human-readable one-line identification for logs and tables."""
        return f"{self.scenario_label()}/{self.policy_label}/{self.backend}/s{self.seed}"

    def scenario_label(self) -> str:
        params = dict(self.params)
        custom = params.get("name")
        if custom:
            # A block-level ``name`` override (e.g. two pricing regimes
            # of the same scenario) labels the rows unambiguously.
            return str(custom)
        scale = params.get("scale", 1.0)
        suffix = f"@1/{scale:g}" if scale not in (None, 1.0) else ""
        return f"{self.scenario}{suffix}"

    def build_scenario(self) -> ScenarioConfig:
        """Construct the (validated) scenario this cell runs."""
        return SCENARIO_BUILDERS[self.scenario](**dict(self.params))

    def policy_factory(self) -> Callable[[], Any]:
        """Picklable policy factory, with the scenario's cadence wired in.

        The paper runs its adaptive mechanism at the scenario's
        analyzer cadence (900 s web, 1800 s scientific), so the
        adaptive factory inherits ``update_interval`` / ``lead_time``
        from the built scenario rather than the policy-class defaults.
        """
        label, factory = _policy_factory(self.policy)
        if label == "Adaptive":
            scenario = self.build_scenario()
            return PolicySpec(
                AdaptivePolicy,
                update_interval=scenario.update_interval,
                lead_time=scenario.lead_time,
            )
        if label == "Profit" or label.startswith("Spot-"):
            # Economy policies additionally inherit the scenario's
            # pricing model, so the policy's cost terms and the run's
            # ledger bill against the same contract.
            scenario = self.build_scenario()
            kwargs = dict(
                update_interval=scenario.update_interval,
                lead_time=scenario.lead_time,
                pricing=scenario.pricing,
            )
            if label == "Profit":
                return PolicySpec(ProfitPolicy, **kwargs)
            fraction = int(label.split("-", 1)[1]) / 100.0
            return PolicySpec(SpotPolicy, fraction, **kwargs)
        return factory


@dataclass(frozen=True)
class ScenarioGrid:
    """One scenario block of a campaign: a scenario × its own sweep axes.

    Attributes
    ----------
    scenario:
        Scenario registry name.
    params:
        Scenario-factory parameters (sorted tuple form, see
        :class:`Cell`).
    policies, backends, seeds:
        The sweep axes crossed with this scenario.  Order of policies
        and backends is preserved from the spec; seeds are canonical
        (sorted, deduplicated).
    figure:
        Optional cross-reference to the experiment id this block
        reproduces (validated against
        :func:`~repro.experiments.cli.available_experiments`).
    quick:
        Parameter overrides applied by :meth:`CampaignSpec.expanded`
        under ``quick=True`` — typically a shorter horizon, a higher
        rate-scale, or a trimmed seed list.
    """

    scenario: str
    params: Tuple[Tuple[str, Any], ...]
    policies: Tuple[str, ...]
    backends: Tuple[str, ...]
    seeds: Tuple[int, ...]
    figure: Optional[str] = None
    quick: Tuple[Tuple[str, Any], ...] = ()

    def cells(self, quick: bool = False) -> List[Cell]:
        """Expand this block into its cells (deterministic order)."""
        params = dict(self.params)
        seeds = self.seeds
        if quick:
            overrides = dict(self.quick)
            if "seeds" in overrides:
                seeds = tuple(sorted(set(parse_seeds(overrides.pop("seeds")))))
            params.update(overrides)
        frozen = tuple(sorted(params.items()))
        return [
            Cell(scenario=self.scenario, params=frozen, policy=p, backend=b, seed=s)
            for b in self.backends
            for p in self.policies
            for s in seeds
        ]


def _freeze_params(raw: Mapping[str, Any], *, where: str) -> Tuple[Tuple[str, Any], ...]:
    params: Dict[str, Any] = {}
    for name, value in raw.items():
        if name == "pricing":
            # The one structured parameter: a pricing table, frozen to
            # the model's canonical sorted pair-tuple so it stays
            # hashable and feeds the cell hash deterministically.
            # ScenarioConfig coerces the tuple back into a model.
            if not isinstance(value, Mapping):
                raise ConfigurationError(
                    f"{where}: 'pricing' must be a table, got {value!r}"
                )
            params[name] = PricingModel.coerce(value).as_tuple()
            continue
        if name == "horizon":
            value = _normalize_horizon(value)
        elif isinstance(value, bool):
            pass
        elif isinstance(value, (int, float)) and name in ("scale",):
            value = float(value)
        if not isinstance(value, (str, int, float, bool, type(None))):
            raise ConfigurationError(
                f"{where}: parameter {name!r} must be a JSON scalar, got {value!r}"
            )
        params[name] = value
    return tuple(sorted(params.items()))


def _build_grid(raw: Mapping[str, Any], defaults: Mapping[str, Any], index: int) -> ScenarioGrid:
    raw = dict(raw)
    where = f"scenarios[{index}]"
    name = raw.pop("scenario", None) or raw.pop("name", None)
    if name not in SCENARIO_BUILDERS:
        raise ConfigurationError(
            f"{where}: unknown scenario {name!r}; expected one of "
            f"{sorted(SCENARIO_BUILDERS)}"
        )
    figure = raw.pop("figure", None)
    if figure is not None:
        from ..experiments.cli import available_experiments

        known = available_experiments()
        if figure not in known:
            raise ConfigurationError(
                f"{where}: figure {figure!r} is not a known experiment id; "
                f"expected one of {sorted(known)}"
            )
    policies = tuple(raw.pop("policies", defaults.get("policies", ("adaptive",))))
    if not policies:
        raise ConfigurationError(f"{where}: policy list is empty")
    for p in policies:
        _policy_factory(p)  # validate eagerly
    backends = tuple(raw.pop("backends", defaults.get("backends", ("des",))))
    if not backends:
        raise ConfigurationError(f"{where}: backend list is empty")
    for b in backends:
        if b not in BACKENDS:
            raise ConfigurationError(
                f"{where}: unknown backend {b!r}; expected one of {sorted(BACKENDS)}"
            )
    seeds = tuple(
        sorted(set(parse_seeds(raw.pop("seeds", defaults.get("seeds", "0")))))
    )
    if not seeds:
        raise ConfigurationError(f"{where}: seed list is empty")
    quick_raw = raw.pop("quick", {})
    if not isinstance(quick_raw, Mapping):
        raise ConfigurationError(f"{where}: 'quick' must be a table of overrides")
    quick = dict(quick_raw)
    quick_frozen: Dict[str, Any] = {}
    if "seeds" in quick:
        # Canonical string form keeps the frozen tuple hashable and the
        # quick seed list re-parsable at expansion time.
        quick_frozen["seeds"] = ",".join(str(s) for s in parse_seeds(quick.pop("seeds")))
    quick_frozen.update(dict(_freeze_params(quick, where=where + ".quick")))
    grid = ScenarioGrid(
        scenario=name,
        params=_freeze_params(raw, where=where),
        policies=policies,
        backends=backends,
        seeds=seeds,
        figure=figure,
        quick=tuple(sorted(quick_frozen.items())),
    )
    # Constructing the scenarios validates the parameters themselves
    # (ScenarioConfig raises ConfigurationError on bad values).
    for q in (False, True) if grid.quick else (False,):
        grid.cells(quick=q)[0].build_scenario()
    return grid


@dataclass(frozen=True)
class CampaignSpec:
    """A fully validated campaign: identity + store + execution + grid.

    Attributes
    ----------
    name:
        Campaign identifier (also the default store directory name).
    description:
        Free-form one-liner shown by ``repro campaign status``.
    store:
        Result-store directory; ``None`` defaults to
        ``.campaigns/<name>``.
    workers:
        Process-pool size per cell group (0 = one per CPU).
    retries:
        Re-attempts (sequential, in-process) after a worker-pool
        failure before a cell group is marked failed.
    prescreen:
        When true, DES cells are prescreened by their fluid twin: the
        same ``(scenario, policy, seed)`` evaluated analytically first
        (cheap, cached like any cell); DES cells whose fluid rejection
        rate exceeds ``prescreen_max_rejection`` are skipped as
        ``screened`` instead of burning hours simulating a
        configuration the analytical model already rules out.
    prescreen_max_rejection:
        The screening threshold (fraction of arrivals rejected).
    lease_ttl:
        Seconds a claimed cell's lease stays protected without a
        heartbeat before other workers may steal it.  Must comfortably
        exceed the heartbeat cadence (TTL/4); the default tolerates a
        worker stalling for 15 minutes before its work is reassigned.
    grids:
        The scenario blocks, in spec order.
    """

    name: str
    description: str = ""
    store: Optional[str] = None
    workers: int = 0
    retries: int = 1
    prescreen: bool = False
    prescreen_max_rejection: float = 0.5
    lease_ttl: float = 900.0
    grids: Tuple[ScenarioGrid, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError(f"campaign name must be a non-empty string, got {self.name!r}")
        if self.workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {self.workers}")
        if self.retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {self.retries}")
        if not self.grids:
            raise ConfigurationError("campaign has no scenario blocks")
        if not 0.0 <= self.prescreen_max_rejection <= 1.0:
            raise ConfigurationError(
                "prescreen_max_rejection must be in [0, 1], got "
                f"{self.prescreen_max_rejection!r}"
            )
        if not self.lease_ttl > 0:
            raise ConfigurationError(
                f"lease_ttl must be > 0 seconds, got {self.lease_ttl!r}"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "CampaignSpec":
        """Build and validate a spec from its dict form (TOML layout)."""
        if not isinstance(raw, Mapping):
            raise ConfigurationError(f"campaign spec must be a mapping, got {type(raw).__name__}")
        raw = dict(raw)
        campaign = dict(raw.pop("campaign", {}))
        store = dict(raw.pop("store", {}))
        execution = dict(raw.pop("execution", {}))
        scenarios = raw.pop("scenarios", [])
        if raw:
            raise ConfigurationError(
                f"unknown top-level campaign keys {sorted(raw)}; expected "
                "'campaign', 'store', 'execution', 'scenarios'"
            )
        if not isinstance(scenarios, Sequence) or isinstance(scenarios, (str, bytes)):
            raise ConfigurationError("'scenarios' must be an array of tables")
        defaults = {
            k: execution.pop(k)
            for k in ("policies", "backends", "seeds")
            if k in execution
        }
        grids = tuple(
            _build_grid(block, defaults, i) for i, block in enumerate(scenarios)
        )
        prescreen = execution.pop("prescreen", False)
        spec = cls(
            name=campaign.get("name", "campaign"),
            description=campaign.get("description", ""),
            store=store.get("path"),
            workers=int(execution.pop("workers", 0)),
            retries=int(execution.pop("retries", 1)),
            prescreen=bool(prescreen),
            prescreen_max_rejection=float(execution.pop("prescreen_max_rejection", 0.5)),
            lease_ttl=float(execution.pop("lease_ttl", 900.0)),
            grids=grids,
        )
        if execution:
            raise ConfigurationError(
                f"unknown [execution] keys {sorted(execution)}"
            )
        return spec

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CampaignSpec":
        """Load a spec file — ``.toml`` or ``.json`` by extension."""
        path = Path(path)
        if not path.exists():
            raise ConfigurationError(f"campaign spec not found: {path}")
        if path.suffix.lower() == ".json":
            return cls.from_dict(json.loads(path.read_text()))
        try:
            import tomllib
        except ImportError:  # pragma: no cover - py<3.11
            try:
                import tomli as tomllib  # type: ignore[no-redef]
            except ImportError:
                raise ConfigurationError(
                    f"{path}: reading TOML specs needs Python 3.11+ "
                    "(tomllib) or the 'tomli' package; the JSON spec "
                    "form works everywhere"
                )
        with path.open("rb") as fh:
            return cls.from_dict(tomllib.load(fh))

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def expanded(self, quick: bool = False) -> List[Cell]:
        """The campaign's cells: deterministic, duplicate-free, ordered.

        Order follows the spec (scenario blocks, then backends, then
        policies, then sorted seeds); duplicate cells across blocks
        collapse to their first occurrence.
        """
        seen = set()
        cells: List[Cell] = []
        for grid in self.grids:
            for cell in grid.cells(quick=quick):
                key = cell.key()
                if key in seen:
                    continue
                seen.add(key)
                cells.append(cell)
        return cells

    def store_path(self, override: Optional[Union[str, Path]] = None) -> Path:
        """The result-store directory for this campaign."""
        if override is not None:
            return Path(override)
        if self.store:
            return Path(self.store)
        return Path(".campaigns") / self.name
