"""Per-rule fire / no-fire fixtures for the repro.lint built-in rules.

Each rule gets at least one fixture that *must* fire (proving the rule
detects its target pattern) and counter-fixtures for the sanctioned
idioms it must leave alone.
"""

from __future__ import annotations

import importlib
import importlib.util
import re

from lint_support import by_rule, lint_tree

from repro.lint.rules.determinism import WHITELIST

# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_determinism_fires_on_clock_and_rng(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/cloud/junk.py": """
                import time
                import numpy as np

                def stamp():
                    return time.time()

                def draw():
                    return np.random.rand()

                def gen():
                    return np.random.default_rng()
            """
        },
        rules=["determinism"],
    )
    messages = [f.message for f in by_rule(result, "determinism")]
    assert len(messages) == 3
    assert any("time.time" in m for m in messages)
    assert any("np.random.rand" in m for m in messages)
    assert any("unseeded" in m for m in messages)


def test_determinism_fires_on_stdlib_random_and_from_imports(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/core/junk.py": """
                import random
                from time import perf_counter

                def roll():
                    return random.random(), perf_counter()
            """
        },
        rules=["determinism"],
    )
    messages = [f.message for f in by_rule(result, "determinism")]
    assert any("stdlib random" in m for m in messages)
    assert any("time.perf_counter" in m for m in messages)


def test_determinism_whitelist_and_seeded_construction_clean(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            # Whitelisted entropy root may touch everything.
            "repro/sim/rng.py": """
                import time
                import numpy as np

                def entropy():
                    return np.random.default_rng(), time.perf_counter()
            """,
            # Generator annotations are legal anywhere in the library;
            # a seeded default_rng is not (it bypasses the named
            # stream registry).
            "repro/prediction/ok.py": """
                import numpy as np

                def make(seed: int) -> np.random.Generator:
                    return np.random.default_rng(seed)
            """,
        },
        rules=["determinism"],
    )
    (finding,) = result.findings
    assert finding.path == "repro/prediction/ok.py"
    assert "bypasses the named stream registry" in finding.message


def test_determinism_fires_on_seeded_default_rng(tmp_path):
    """A seeded ad-hoc generator is reproducible but invisible to the
    stream census; only repro.sim.rng may construct generators."""
    result = lint_tree(
        tmp_path,
        {
            "repro/workloads/w.py": """
                import numpy as np

                def adhoc():
                    return np.random.default_rng(0)

                def keyword(seed):
                    return numpy.random.default_rng(seed=seed)
            """
        },
        rules=["determinism"],
    )
    messages = [f.message for f in by_rule(result, "determinism")]
    assert len(messages) == 2
    assert all("bypasses the named stream registry" in m for m in messages)


def test_determinism_whitelist_names_existing_modules():
    """A whitelist entry for a deleted module is a stale exemption."""
    stale = [name for name in WHITELIST if importlib.util.find_spec(name) is None]
    assert stale == []


def test_determinism_vectorized_kernel_idioms(tmp_path):
    """Vectorized-numpy hot paths: legacy global draws fire, Generator
    arguments and pure array kernels stay clean.

    Guards the ``repro.sim.batch`` style — batched kernels must take
    their randomness as pre-drawn arrays or an explicit
    ``np.random.Generator``, never reach for the global numpy RNG.
    """
    fired = lint_tree(
        tmp_path,
        {
            "repro/sim/batchy.py": """
                import numpy as np

                def jittered_services(n, mean):
                    # banned: ambient global-state draw inside a kernel
                    return np.random.exponential(mean, size=n)

                def shuffled(order):
                    np.random.shuffle(order)
                    return order
            """
        },
        rules=["determinism"],
    )
    messages = [f.message for f in by_rule(fired, "determinism")]
    assert len(messages) == 2
    assert any("np.random.exponential" in m for m in messages)
    assert any("np.random.shuffle" in m for m in messages)

    clean = lint_tree(
        tmp_path / "ok",
        {
            "repro/sim/batchy.py": """
                import numpy as np

                def jittered_services(rng: np.random.Generator, n, mean):
                    # sanctioned: caller-provided seeded Generator
                    return rng.exponential(mean, size=n)

                def departures(arrivals, services):
                    # pure array kernel: no randomness at all
                    totals = np.cumsum(services)
                    floors = arrivals - np.concatenate(([0.0], totals[:-1]))
                    return totals + np.maximum.accumulate(floors)
            """
        },
        rules=["determinism"],
    )
    assert by_rule(clean, "determinism") == []


def test_determinism_ignores_non_repro_modules(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            # No package chain: resolves to the bare stem 'script'.
            "script.py": """
                import time

                def stamp():
                    return time.time()
            """
        },
        rules=["determinism"],
    )
    assert result.findings == []


# ---------------------------------------------------------------------------
# layering
# ---------------------------------------------------------------------------


def test_layering_fires_on_engine_import_from_analytics(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/queueing/bad.py": "from repro.cloud import vm\n",
            "repro/core/bad.py": "import repro.backends\n",
        },
        rules=["layering"],
    )
    messages = [f.message for f in by_rule(result, "layering")]
    assert len(messages) == 2
    assert any("repro.queueing.bad imports repro.cloud" in m for m in messages)
    assert any("engine-free" in m for m in messages)
    assert any("repro.core.bad imports repro.backends" in m for m in messages)


def test_layering_fires_on_restricted_imports(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/cloud/bad.py": "from repro.sim.fluid import FluidSimulator\n",
            "repro/metrics/bad.py": "import repro.campaigns\n",
            # The scheduler split must not open a hole: the campaign
            # engine's submodules are just as restricted as the package.
            "repro/experiments/bad.py": (
                "from repro.campaigns.scheduler import run_campaign\n"
            ),
            "repro/workloads/bad.py": "import repro.lint\n",
        },
        rules=["layering"],
    )
    messages = [f.message for f in by_rule(result, "layering")]
    assert len(messages) == 4
    assert any("may import repro.sim.fluid" in m for m in messages)
    assert any("may import repro.campaigns" in m for m in messages)
    assert any("repro.experiments.bad imports repro.campaigns.scheduler" in m for m in messages)
    assert any("may import repro.lint" in m for m in messages)


def test_layering_exemptions_stay_clean(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            # Engine-free shared vocabulary is explicitly allowed.
            "repro/prediction/ok.py": (
                "from repro.sim.calendar import seconds_per_day\n"
            ),
            # The owner package may import the restricted engine.
            "repro/backends/ok.py": (
                "from repro.sim.fluid import FluidSimulator\n"
            ),
            # The campaign package may import its own submodules — the
            # scheduler/executor/store split is internal layering.
            "repro/campaigns/scheduler.py": (
                "from repro.campaigns.store import ResultStore\n"
                "from repro.campaigns import executor\n"
            ),
            # Function-local imports are deliberate late bindings.
            "repro/queueing/ok.py": """
                def late():
                    from repro.cloud import vm
                    return vm
            """,
        },
        rules=["layering"],
    )
    assert result.findings == []


# ---------------------------------------------------------------------------
# pool-safety
# ---------------------------------------------------------------------------


def test_pool_safety_fires_on_lambda_and_nested_function(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/experiments/junk.py": """
                from concurrent.futures import ProcessPoolExecutor

                def run(items):
                    def work(x):
                        return x

                    with ProcessPoolExecutor() as pool:
                        pool.submit(lambda: 1)
                        return list(pool.map(work, items))
            """
        },
        rules=["pool-safety"],
    )
    messages = [f.message for f in by_rule(result, "pool-safety")]
    assert len(messages) == 2
    assert any("a lambda passed to submit()" in m for m in messages)
    assert any("nested function 'work' passed to map()" in m for m in messages)


def test_pool_safety_fires_on_lambda_policy_factory(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/campaigns/junk.py": """
                def go(scenario, run_replications):
                    return run_replications(scenario, lambda: 3, seeds=[1])
            """
        },
        rules=["pool-safety"],
    )
    messages = [f.message for f in by_rule(result, "pool-safety")]
    assert len(messages) == 1
    assert "a lambda passed to run_replications()" in messages[0]


def test_pool_safety_fires_on_lambda_factory_to_run_seeds(tmp_path):
    # run_seeds is the one seed fan-out every caller reaches; its
    # factory crosses the pool whenever workers > 1.
    result = lint_tree(
        tmp_path,
        {
            "repro/campaigns/junk.py": """
                def go(backend, scenario):
                    return backend.run_seeds(scenario, lambda: 3, [0, 1], workers=2)
            """
        },
        rules=["pool-safety"],
    )
    messages = [f.message for f in by_rule(result, "pool-safety")]
    assert len(messages) == 1
    assert "a lambda passed to run_seeds()" in messages[0]


def test_pool_safety_fires_on_lambda_dataclass_default(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/experiments/junk.py": """
                from dataclasses import dataclass, field

                @dataclass
                class Spec:
                    factory: object = field(default=lambda: 1)
                    callback: object = lambda: 2
            """
        },
        rules=["pool-safety"],
    )
    messages = [f.message for f in by_rule(result, "pool-safety")]
    assert len(messages) == 2
    assert all("dataclass Spec" in m for m in messages)


def test_pool_safety_hint_names_a_live_factory():
    from repro.backends.pool import PolicySpec
    from repro.lint.rules.poolsafety import _HINT

    (dotted,) = re.findall(r"repro(?:\.\w+)+", _HINT)
    module, _, name = dotted.rpartition(".")
    assert getattr(importlib.import_module(module), name) is PolicySpec


def test_pool_safety_sanctioned_shapes_stay_clean(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/experiments/ok.py": """
                from concurrent.futures import ProcessPoolExecutor
                from dataclasses import dataclass, field

                def work(x):
                    return x

                @dataclass
                class Spec:
                    seeds: list = field(default_factory=list)

                def run(items):
                    with ProcessPoolExecutor() as pool:
                        pool.submit(work, 1)
                        return list(pool.map(work, items))

                def transform(items):
                    # builtin map() is not a pool call
                    return list(map(lambda x: x + 1, items))
            """
        },
        rules=["pool-safety"],
    )
    assert result.findings == []


# ---------------------------------------------------------------------------
# float-compare
# ---------------------------------------------------------------------------


def test_float_compare_fires_on_inexact_equality(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/queueing/bad.py": """
                import math

                def check(x, a, b, y):
                    u = x == 0.3
                    v = a / b != y
                    w = math.sqrt(x) == y
                    return u, v, w
            """
        },
        rules=["float-compare"],
    )
    findings = by_rule(result, "float-compare")
    assert len(findings) == 3
    assert any("==" in f.message for f in findings)
    assert any("!=" in f.message for f in findings)


def test_float_compare_fires_in_fluid_engine_scope(tmp_path):
    result = lint_tree(
        tmp_path,
        {"repro/sim/fluid.py": "def f(x):\n    return x == 2.5\n"},
        rules=["float-compare"],
    )
    assert len(by_rule(result, "float-compare")) == 1


def test_float_compare_exempts_sound_idioms(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/queueing/ok.py": """
                def check(rho, n):
                    a = rho == 0.0          # zero sentinel
                    b = int(n) != n         # integrality check
                    c = n == 0              # no visibly-float side
                    return a, b, c
            """
        },
        rules=["float-compare"],
    )
    assert result.findings == []


def test_float_compare_scoped_to_analytical_modules(tmp_path):
    result = lint_tree(
        tmp_path,
        {"repro/cloud/other.py": "def f(x):\n    return x == 0.3\n"},
        rules=["float-compare"],
    )
    assert result.findings == []
