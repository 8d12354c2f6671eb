"""Findings: what a lint rule reports, and how it serializes.

A :class:`Finding` pins one violation to a file/line/column and carries
the rule code (``D001``, ``P001``, ...) plus a human message.  Findings
sort by location so output is stable regardless of rule execution order
— the suite's own discipline applies to itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["Finding", "JSON_SCHEMA_VERSION"]

#: Bump when the ``--json`` report layout changes shape.
#: v3: dropped ``baselined`` and ``stale_baseline`` (the baseline layer is gone).
JSON_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def format(self) -> str:
        """The human-readable one-liner: ``path:line:col: CODE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> dict[str, Any]:
        """The ``--json`` record for this finding."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
