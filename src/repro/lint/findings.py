"""The unit of lint output — one :class:`Finding` per violation.

A finding pins a rule to a source location and carries two pieces of
prose: the *message* (what invariant is broken, shown always) and the
*hint* (how to repair it, shown under ``--fix-hints`` and always
present in JSON output).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    hint: str = field(default="", compare=False)

    def location(self) -> str:
        """``path:line:col`` prefix used by the text reporter."""
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form (the JSON reporter's ``findings[]`` element)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Finding":
        """Inverse of :meth:`to_dict`."""
        return cls(
            path=str(data["path"]),
            line=int(data["line"]),  # type: ignore[arg-type]
            col=int(data.get("col", 0)),  # type: ignore[arg-type]
            rule=str(data["rule"]),
            message=str(data["message"]),
            hint=str(data.get("hint", "")),
        )
