"""Reporters — render a lint run for humans (text) or machines (JSON).

The JSON document is a stable contract (``REPORT_VERSION`` bumps on
incompatible change) that CI consumes::

    {
      "version": 2,
      "tool": "reprolint",
      "files": 93,
      "rules": ["determinism", ...],
      "findings": [ {rule, path, line, col, message, hint} ],
      "counts": {"determinism": 2, ...},
      "suppressed": 0                           # inline-comment silenced
    }

Exit code 1 iff ``findings`` is non-empty.  The round-trip guarantee —
``Finding.from_dict`` over every ``findings[]`` element reconstructs
the original object — is pinned by a test.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List, Sequence

from .findings import Finding

__all__ = ["REPORT_VERSION", "render_text", "render_json", "json_report"]

REPORT_VERSION = 2


def render_text(
    findings: Sequence[Finding],
    files: int,
    suppressed: int = 0,
    fix_hints: bool = False,
) -> str:
    """Human-readable report (one line per finding, GCC-style prefix)."""
    lines: List[str] = []
    for f in findings:
        lines.append(f"{f.location()}: [{f.rule}] {f.message}")
        if fix_hints and f.hint:
            lines.append(f"    fix: {f.hint}")
    if suppressed:
        lines.append(f"{suppressed} finding(s) suppressed by inline comments")
    if findings:
        lines.append(f"{len(findings)} finding(s) in {files} file(s)")
    else:
        lines.append(f"reprolint: OK ({files} file(s) clean)")
    return "\n".join(lines)


def json_report(
    findings: Sequence[Finding],
    files: int,
    rules: Sequence[str],
    suppressed: int = 0,
) -> Dict[str, object]:
    """The JSON document as a dict (see module docstring for shape)."""
    counts = Counter(f.rule for f in findings)
    return {
        "version": REPORT_VERSION,
        "tool": "reprolint",
        "files": files,
        "rules": list(rules),
        "findings": [f.to_dict() for f in findings],
        "counts": dict(sorted(counts.items())),
        "suppressed": suppressed,
    }


def render_json(*args, **kwargs) -> str:
    """:func:`json_report` serialized (indented, stable key order)."""
    return json.dumps(json_report(*args, **kwargs), indent=2, sort_keys=True)
