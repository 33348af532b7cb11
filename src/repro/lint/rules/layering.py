"""Rule ``layering`` — import-direction discipline between packages.

The architecture (docs/architecture.md) layers the package so the math
stays engine-free and exactly one package knows both execution engines.
The rules:

1. ``repro.queueing`` and ``repro.prediction`` are pure analytics —
   they must never import the execution substrates ``repro.cloud`` or
   ``repro.sim`` (sole exception: the engine-free day/time vocabulary
   ``repro.sim.calendar``);
2. ``repro.backends`` is the only package allowed to import both
   engines; no module outside it (or ``repro.sim`` itself) may import
   the fluid engine ``repro.sim.fluid``;
3. ``repro.core`` (the control plane) never imports ``repro.backends``
   or ``repro.experiments`` — it cannot know how it is executed; the
   same holds for ``repro.economy``, which layers between the
   substrates and the backends (backends/experiments/campaigns import
   it, never the reverse);
4. ``repro.campaigns`` (the orchestration layer) sits on top: nothing
   in the library imports it back — the CLI reaches it through a
   function-local import only;
5. ``repro.lint`` (this tooling layer) likewise: the library never
   imports it at module body; the CLI's ``lint`` subcommand uses a
   lazy import.

Only *module-body* imports count: an import nested inside a function,
method, or ``if TYPE_CHECKING:`` block is a deliberate cycle-breaker
or typing aid, not a layering dependency.
"""

from __future__ import annotations

from typing import Iterator

from ..astutil import body_imports, prefix_hit
from ..findings import Finding
from .base import Rule

__all__ = ["LayeringRule", "FORBIDDEN", "ALLOWED", "RESTRICTED"]

#: importing-module prefix → forbidden imported-module prefixes
FORBIDDEN = {
    "repro.queueing": ("repro.cloud", "repro.sim"),
    "repro.prediction": ("repro.cloud", "repro.sim"),
    # The control plane cannot know how it is being executed.
    "repro.core": ("repro.backends", "repro.experiments"),
    # The economics layer sits on the control plane and the substrates;
    # execution and orchestration import it, never the reverse.
    "repro.economy": ("repro.backends", "repro.experiments"),
}

#: Engine-free shared-vocabulary modules exempt from FORBIDDEN:
#: ``repro.sim.calendar`` is pure day-of-week/time-of-day arithmetic
#: (constants and pure functions, no engine state) that the pattern
#: predictors legitimately share with the simulator.
ALLOWED = ("repro.sim.calendar",)

#: module prefixes only importable from inside these owner packages
RESTRICTED = {
    "repro.sim.fluid": ("repro.backends", "repro.sim"),
    # The campaign engine is the top of the stack: it orchestrates the
    # layers below, so no library module may import it at module body
    # (the CLI's lazy function-local import is exempt by design).
    "repro.campaigns": ("repro.campaigns",),
    # Same for the lint tooling itself: the library never depends on
    # its own static analyzer.
    "repro.lint": ("repro.lint",),
}

_HINT = (
    "restructure per docs/architecture.md, or make the import "
    "function-local if it is a deliberate late binding"
)


class LayeringRule(Rule):
    name = "layering"
    description = (
        "import-direction rules between packages (analytics stay "
        "engine-free; campaigns/lint are top layers nothing imports back)"
    )

    def check_module(self, ctx) -> Iterator[Finding]:
        module = ctx.module
        if not (module == "repro" or module.startswith("repro.")):
            return
        # ``from repro.sim.fluid import X`` resolves to both the base
        # package and the attribute path; one import line reports each
        # violated constraint once, against the shortest target.
        seen = set()
        for lineno, target in body_imports(ctx.tree, module):
            for layer, banned in FORBIDDEN.items():
                if (
                    prefix_hit(module, (layer,))
                    and prefix_hit(target, banned)
                    and not prefix_hit(target, ALLOWED)
                ):
                    if (lineno, "forbidden", layer) in seen:
                        continue
                    seen.add((lineno, "forbidden", layer))
                    yield Finding(
                        path=ctx.rel,
                        line=lineno,
                        col=0,
                        rule=self.name,
                        message=(
                            f"{module} imports {target} "
                            f"({layer} must stay engine-free)"
                        ),
                        hint=_HINT,
                    )
            for restricted, owners in RESTRICTED.items():
                if prefix_hit(target, (restricted,)) and not prefix_hit(
                    module, owners
                ):
                    if (lineno, "restricted", restricted) in seen:
                        continue
                    seen.add((lineno, "restricted", restricted))
                    yield Finding(
                        path=ctx.rel,
                        line=lineno,
                        col=0,
                        rule=self.name,
                        message=(
                            f"{module} imports {target} "
                            f"(only {' / '.join(owners)} may import {restricted})"
                        ),
                        hint=_HINT,
                    )
