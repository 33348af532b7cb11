"""Inline suppression comments.

A finding is silenced by a trailing directive on the *flagged line*::

    t0 = time.time()  # reprolint: disable=determinism
    x = a / b == c    # reprolint: disable=float-compare,determinism
    y = hack()        # reprolint: disable=all

``disable`` with no ``=`` (or ``=all``) silences every rule on that
line.  These comments are the only escape hatch, and they are
deliberately line-scoped — there is no block or file scope, so each
exempted violation stays visible in the diff that introduced it.  A
module that is exempt wholesale belongs in the rule itself (its scope
or whitelist, e.g. the determinism rule's ``WHITELIST``), not in
comments.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, List

__all__ = ["ALL_RULES", "line_suppressions", "is_suppressed"]

#: Sentinel meaning "every rule suppressed on this line".
ALL_RULES = frozenset({"all"})

_DIRECTIVE = re.compile(r"#\s*reprolint:\s*disable(?:\s*=\s*([A-Za-z0-9_\-, ]+))?")


def line_suppressions(lines: List[str]) -> Dict[int, FrozenSet[str]]:
    """Map 1-based line number → the set of rule ids disabled there.

    The special set :data:`ALL_RULES` marks a bare ``disable`` /
    ``disable=all`` directive.
    """
    out: Dict[int, FrozenSet[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        if "reprolint" not in line:
            continue
        match = _DIRECTIVE.search(line)
        if match is None:
            continue
        spec = match.group(1)
        if spec is None:
            out[lineno] = ALL_RULES
            continue
        names = frozenset(n.strip() for n in spec.split(",") if n.strip())
        out[lineno] = ALL_RULES if "all" in names else names
    return out


def is_suppressed(
    rule: str, line: int, suppressions: Dict[int, FrozenSet[str]]
) -> bool:
    """True when ``rule`` is disabled on ``line``."""
    disabled = suppressions.get(line)
    if disabled is None:
        return False
    return disabled is ALL_RULES or "all" in disabled or rule in disabled
