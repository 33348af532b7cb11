"""Built-in rules and the one list of them, :data:`RULES`.

One module per rule family; each module's docstring is the rule's
authoritative rationale (docs/static-analysis.md summarizes them).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ...errors import LintError
from .base import Rule
from .determinism import DeterminismRule
from .floatcmp import FloatCompareRule
from .layering import LayeringRule
from .poolsafety import PoolSafetyRule

__all__ = ["RULES", "Rule", "build_rules"]

#: Every rule, in report order (sorted by name).
RULES = (
    DeterminismRule,
    FloatCompareRule,
    LayeringRule,
    PoolSafetyRule,
)


def build_rules(names: Optional[Iterable[str]] = None) -> List[Rule]:
    """Fresh instances of the named rules (all of :data:`RULES` when None)."""
    if names is None:
        return [cls() for cls in RULES]
    by_name = {cls.name: cls for cls in RULES}
    selected = list(names)
    if not selected:
        raise LintError(f"no rules selected; available: {', '.join(by_name)}")
    unknown = [n for n in selected if n not in by_name]
    if unknown:
        raise LintError(
            f"unknown rule(s) {', '.join(sorted(unknown))}; "
            f"available: {', '.join(by_name)}"
        )
    return [by_name[name]() for name in selected]
