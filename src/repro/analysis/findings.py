"""Finding and report records produced by the static-analysis engine.

Both records serialize losslessly through :class:`~repro.records.Record`
(``to_dict``/``from_dict``), so a CI run can archive ``repro check
--json`` output and a later tool can reload it without re-parsing the
tree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Tuple

from ..records import Record

__all__ = ["Finding", "CheckReport"]


@dataclass(frozen=True)
class Finding(Record):
    """One rule violation at one source location.

    Attributes
    ----------
    rule:
        Canonical registry name of the violated rule (e.g.
        ``"unseeded-random"``).
    code:
        Short stable code of the rule (e.g. ``"DET101"``), convenient for
        grepping CI logs.
    path:
        Source path relative to the scanned root, in POSIX form.
    line / col:
        1-based line and 0-based column of the offending node.
    message:
        Human-readable description of the violation.
    """

    rule: str
    code: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        """One-line ``path:line:col CODE [rule] message`` rendering."""
        return (f"{self.path}:{self.line}:{self.col} "
                f"{self.code} [{self.rule}] {self.message}")


@dataclass(frozen=True)
class CheckReport(Record):
    """Outcome of one ``repro check`` run.

    Attributes
    ----------
    root:
        The scanned root directory (as given, POSIX form).
    rules:
        Canonical names of the rules that ran, sorted.
    files_scanned:
        Number of Python files parsed.
    findings:
        Violations in ``(path, line, col, rule)`` order.
    """

    root: str
    rules: Tuple[str, ...]
    files_scanned: int
    findings: Tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        """True when the scan produced no findings."""
        return not self.findings

    def format(self) -> str:
        """Human-readable report: one line per finding plus a summary."""
        lines: List[str] = [finding.format() for finding in self.findings]
        noun = "finding" if len(self.findings) == 1 else "findings"
        lines.append(f"{len(self.findings)} {noun} "
                     f"({self.files_scanned} files, "
                     f"{len(self.rules)} rules) in {self.root}")
        return "\n".join(lines)

    def to_json(self, indent: int = 2) -> str:
        """JSON export of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
