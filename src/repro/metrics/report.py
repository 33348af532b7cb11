"""Plain-text table rendering and result-row summarization.

The benchmark harness prints the same rows the paper's figures plot —
one row per policy, one column per output metric.  This module renders
those tables with aligned monospace columns so ``pytest benchmarks/``
output is directly comparable to the paper, and owns the one
replication-summarization helper (:func:`summary_cells`) shared by the
figure builders and ad-hoc reporting — mean/CI semantics live in
:mod:`repro.metrics.stats`, the table-cell convention lives here, and
neither is re-implemented per caller.
"""

from __future__ import annotations

from typing import List, Sequence

from .stats import summarize

__all__ = [
    "format_table",
    "format_markdown_table",
    "summary_cells",
]


def summary_cells(
    results: Sequence[object], fields: Sequence[str], ci: bool = False
) -> List[object]:
    """Across-replication summary of each named result attribute.

    One cell per field: the mean over ``results`` (any objects exposing
    the attributes, e.g. :class:`~repro.backends.base.RunMetrics`), or
    a ``"mean ± ci95"`` string when ``ci`` is requested and more than
    one replication is present.
    """
    cells: List[object] = []
    for name in fields:
        s = summarize([getattr(r, name) for r in results])
        if ci and len(results) > 1:
            cells.append(f"{s.mean:.4g} ± {s.ci95:.2g}")
        else:
            cells.append(s.mean)
    return cells


def _stringify(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = "") -> str:
    """Render an aligned monospace table.

    >>> print(format_table(["a", "b"], [[1, 2.5], ["x", 3]]))
    a  b
    -  ---
    1  2.5
    x  3
    """
    str_rows: List[List[str]] = [[_stringify(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def format_markdown_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Render a GitHub-flavored markdown table (for EXPERIMENTS.md)."""
    str_rows = [[_stringify(c) for c in row] for row in rows]
    lines = ["| " + " | ".join(headers) + " |", "|" + "|".join("---" for _ in headers) + "|"]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)
