"""Rule ``determinism`` — no ambient entropy or wall clocks in the library.

The reproduction's headline guarantees (bit-identical DES-vs-fluid
trajectories, seed-stable replications, content-addressed campaign
caching) only hold if *every* source of nondeterminism flows through
the seeded stream factory :mod:`repro.sim.rng` and every wall-clock
read is a *duration* measurement confined to the profiling layer.

Banned in any ``repro.*`` module outside the whitelist:

* the stdlib :mod:`random` module (import or call) — randomness must
  come from named, spawned :class:`numpy.random.Generator` streams;
* legacy global numpy RNG calls (``np.random.rand`` / ``seed`` / …);
* ``np.random.default_rng(...)`` in any form — unseeded it draws OS
  entropy, and even seeded it makes a generator outside the named
  stream registry (:data:`repro.sim.rng.STREAM_REGISTRY`), invisible to
  the stream census; take an ``np.random.Generator`` argument or draw
  ``RandomStreams.get(<registered name>)`` instead
  (``np.random.Generator`` type annotations stay legal);
* epoch and duration clocks (``time.time``, ``time.perf_counter``,
  ``datetime.now`` …) — simulation timestamps come from the engine
  clock, and wall-clock *durations* are measured via
  :class:`repro.obs.profile.Stopwatch` / ``RunProfile.phase`` so the
  no-clock invariant stays greppable in one module;
* ambient entropy: ``os.urandom``, ``uuid.uuid1``/``uuid4``.

Whitelisted modules: ``repro.sim.rng`` (the entropy root) and
``repro.obs.profile`` (the sanctioned clock).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import dotted_name
from ..findings import Finding
from .base import Rule

__all__ = ["DeterminismRule", "WHITELIST"]

#: Modules allowed to touch clocks / raw entropy directly.
WHITELIST = frozenset(
    {
        "repro.sim.rng",
        "repro.obs.profile",
    }
)

_RNG_HINT = (
    "draw from a named seeded stream (repro.sim.rng.RandomStreams.get) "
    "or accept an np.random.Generator argument"
)
_CLOCK_HINT = (
    "use repro.obs.profile (Stopwatch / RunProfile.phase) for wall-clock "
    "durations; simulation timestamps come from the engine clock"
)

#: dotted call name → (message, hint)
_BANNED_CALLS = {}
for _name in (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.ctime",
    "time.localtime",
    "time.gmtime",
):
    _BANNED_CALLS[_name] = (f"wall-clock read {_name}()", _CLOCK_HINT)
for _name in (
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "date.today",
    "datetime.date.today",
):
    _BANNED_CALLS[_name] = (f"wall-clock read {_name}()", _CLOCK_HINT)
for _name in ("os.urandom", "uuid.uuid1", "uuid.uuid4"):
    _BANNED_CALLS[_name] = (f"ambient entropy source {_name}()", _RNG_HINT)

#: Legacy global-state numpy RNG entry points (suffix after np.random.).
_NUMPY_LEGACY = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "standard_normal",
        "uniform",
        "normal",
        "poisson",
        "exponential",
        "gamma",
        "beta",
        "binomial",
    }
)

#: ``from time import X`` names that evade dotted-call detection.
_BANNED_FROM_IMPORTS = {
    "time": {"time", "time_ns", "monotonic", "perf_counter", "process_time"},
    "os": {"urandom"},
    "uuid": {"uuid1", "uuid4"},
    "datetime": set(),  # handled via attribute calls; importing is fine
}


def _numpy_random_suffix(name: str) -> str:
    """``np.random.rand`` / ``numpy.random.rand`` → ``rand`` (else '')."""
    for prefix in ("np.random.", "numpy.random."):
        if name.startswith(prefix):
            return name[len(prefix):]
    return ""


class DeterminismRule(Rule):
    name = "determinism"
    description = (
        "library code must not read wall clocks or ambient entropy; "
        "all randomness flows through seeded repro.sim.rng streams"
    )

    def check_module(self, ctx) -> Iterator[Finding]:
        module = ctx.module
        if not (module == "repro" or module.startswith("repro.")):
            return
        if module in WHITELIST:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield Finding(
                            path=ctx.rel,
                            line=node.lineno,
                            col=node.col_offset,
                            rule=self.name,
                            message=f"{module} imports the stdlib random module",
                            hint=_RNG_HINT,
                        )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "random":
                    yield Finding(
                        path=ctx.rel,
                        line=node.lineno,
                        col=node.col_offset,
                        rule=self.name,
                        message=f"{module} imports from the stdlib random module",
                        hint=_RNG_HINT,
                    )
                elif node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name in _NUMPY_LEGACY:
                            yield Finding(
                                path=ctx.rel,
                                line=node.lineno,
                                col=node.col_offset,
                                rule=self.name,
                                message=(
                                    f"{module} imports legacy global numpy RNG "
                                    f"entry point numpy.random.{alias.name}"
                                ),
                                hint=_RNG_HINT,
                            )
                elif node.module in _BANNED_FROM_IMPORTS:
                    banned = _BANNED_FROM_IMPORTS[node.module]
                    for alias in node.names:
                        if alias.name in banned:
                            yield Finding(
                                path=ctx.rel,
                                line=node.lineno,
                                col=node.col_offset,
                                rule=self.name,
                                message=(
                                    f"{module} imports {node.module}.{alias.name} "
                                    "(wall-clock / entropy source)"
                                ),
                                hint=_CLOCK_HINT
                                if node.module == "time"
                                else _RNG_HINT,
                            )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is None:
                    continue
                if name in _BANNED_CALLS:
                    message, hint = _BANNED_CALLS[name]
                    yield Finding(
                        path=ctx.rel,
                        line=node.lineno,
                        col=node.col_offset,
                        rule=self.name,
                        message=f"{message} in {module}",
                        hint=hint,
                    )
                    continue
                suffix = _numpy_random_suffix(name)
                if suffix in _NUMPY_LEGACY:
                    yield Finding(
                        path=ctx.rel,
                        line=node.lineno,
                        col=node.col_offset,
                        rule=self.name,
                        message=(
                            f"legacy global numpy RNG call {name}() in {module}"
                        ),
                        hint=_RNG_HINT,
                    )
                elif suffix == "default_rng":
                    if node.args or node.keywords:
                        message = (
                            f"ad-hoc generator {name}(...) in {module} "
                            "bypasses the named stream registry"
                        )
                    else:
                        message = f"unseeded {name}() in {module} draws OS entropy"
                    yield Finding(
                        path=ctx.rel,
                        line=node.lineno,
                        col=node.col_offset,
                        rule=self.name,
                        message=message,
                        hint=_RNG_HINT,
                    )
