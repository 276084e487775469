"""Finding and severity types shared by every lint rule.

A :class:`Finding` is one concrete defect at one source location.  Rules
produce findings; the engine (:mod:`repro.analysis.lint`) filters them
through suppressions and renders them as ``path:line:col`` diagnostics
that editors and CI logs can jump to.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings are the bug classes this repo has actually shipped
    and fixed by hand (see docs/STATIC_ANALYSIS.md for the history);
    ``WARNING`` findings are hazards that have not bitten yet.  Strict
    mode fails on both — the split only orders the report.
    """

    ERROR = "error"
    WARNING = "warning"

    def __lt__(self, other: "Severity") -> bool:
        order = {"error": 0, "warning": 1}
        return order[self.value] < order[other.value]


@dataclass(frozen=True)
class Finding:
    """One defect at one source location."""

    path: str
    line: int
    col: int
    rule: str
    severity: Severity
    message: str
    hint: str = ""
    #: call-graph witness: one ``qualname (path:line)`` entry per call
    #: frame, outermost first, ending at the offending statement
    chain: Tuple[str, ...] = ()

    def render(self) -> str:
        """The one-line ``path:line:col: severity[rule] message`` form."""
        text = f"{self.path}:{self.line}:{self.col}: {self.severity.value}[{self.rule}] {self.message}"
        if self.hint:
            text += f"  (hint: {self.hint})"
        if self.chain:
            text += "\n    call chain: " + " -> ".join(self.chain)
        return text

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "hint": self.hint,
            "chain": list(self.chain),
        }


@dataclass(frozen=True)
class Suppression:
    """One ``# lint: ignore[rule-id] reason`` comment.

    ``rules`` is the frozenset of rule ids the comment names (the empty
    set means the comment was malformed); ``reason`` must be non-empty —
    a suppression that does not say *why* is itself reported by the
    ``bad-suppression`` meta-rule.
    """

    line: int
    rules: frozenset
    reason: str
    raw: str

    def covers(self, finding: Finding) -> bool:
        return finding.line == self.line and finding.rule in self.rules


def make_finding(
    path: str,
    node,
    rule: str,
    severity: Severity,
    message: str,
    hint: str = "",
    line: Optional[int] = None,
) -> Finding:
    """Build a finding anchored at an AST node (or an explicit line)."""
    return Finding(
        path=path,
        line=int(line if line is not None else getattr(node, "lineno", 1)),
        col=int(getattr(node, "col_offset", 0)) + 1,
        rule=rule,
        severity=severity,
        message=message,
        hint=hint,
    )
