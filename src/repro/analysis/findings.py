"""The findings model every analysis face shares.

A :class:`Finding` is one machine-checkable fact about a program, a
switch configuration, or the codebase itself: a severity, a stable
``code`` (the rule that fired), the pass that produced it, and enough
location to act on (subject, stage, file, line). Passes yield findings;
an :class:`AnalysisReport` collects them, renders them for humans,
serializes them for tools, and — on the enforcement paths — converts
them back into a typed exception (:class:`~repro.errors.AnalysisError`)
carrying the full structured list.

The same model serves the tenant program verifier (``repro-verify``,
and the compile report of :func:`repro.api.compile`) and the codebase
determinism lint (``repro-lint``), so downstream tooling parses one
JSON schema.
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Type

from ..errors import AnalysisError


class Severity(enum.IntEnum):
    """Ordered severity: comparisons follow enforcement strictness."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {text!r}; expected one of "
                f"{[s.name.lower() for s in cls]}") from None


@dataclass(frozen=True)
class Finding:
    """One analysis result.

    ``code`` is the stable rule identifier (e.g. ``overlap-match``,
    ``set-iteration``) tools and suppressions key on; ``pass_name``
    names the pass that produced it. ``subject`` is what the finding is
    about — a module name, ``"vid 3"``, or a source path for lint
    findings. ``stage``/``line`` locate it when meaningful.
    """

    code: str
    severity: Severity
    message: str
    pass_name: str = ""
    subject: str = ""
    stage: Optional[int] = None
    line: int = 0

    def __str__(self) -> str:
        where = []
        if self.subject:
            where.append(self.subject)
        if self.stage is not None:
            where.append(f"stage {self.stage}")
        if self.line:
            where.append(f"line {self.line}")
        loc = f" [{', '.join(where)}]" if where else ""
        return f"{self.severity}:{self.code}{loc}: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (severity as its lowercase name)."""
        data = asdict(self)
        data["severity"] = str(self.severity)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Finding":
        kwargs = dict(data)
        kwargs["severity"] = Severity.parse(kwargs["severity"])
        return cls(**kwargs)


@dataclass
class AnalysisReport:
    """An ordered collection of findings with enforcement helpers."""

    findings: List[Finding] = field(default_factory=list)

    # -- collection -----------------------------------------------------------

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def merge(self, other: "AnalysisReport") -> "AnalysisReport":
        self.findings.extend(other.findings)
        return self

    # -- views ----------------------------------------------------------------

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity >= Severity.ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings
                if f.severity == Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when nothing at ERROR severity was found."""
        return not self.errors

    def by_code(self, code: str) -> List[Finding]:
        return [f for f in self.findings if f.code == code]

    def __len__(self) -> int:
        return len(self.findings)

    def __bool__(self) -> bool:
        # A report is always truthy; emptiness is asked via len() and
        # acceptability via .ok, and conflating them invites bugs.
        return True

    # -- output ---------------------------------------------------------------

    def render(self, title: str = "") -> str:
        """Human-readable multi-line summary."""
        lines = []
        if title:
            lines.append(f"{title}: "
                         f"{'ok' if self.ok else 'REJECTED'} "
                         f"({len(self.errors)} errors, "
                         f"{len(self.warnings)} warnings)")
        lines.extend(f"  {f}" for f in self.findings)
        return "\n".join(lines) if lines else "no findings"

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps([f.to_dict() for f in self.findings],
                          indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        return cls([Finding.from_dict(d) for d in json.loads(text)])

    # -- enforcement ----------------------------------------------------------

    def raise_if_errors(self, summary: str = "static analysis failed",
                        error_cls: Type[AnalysisError] = AnalysisError
                        ) -> None:
        """Raise ``error_cls`` carrying the findings when any ERROR-level
        finding is present; no-op otherwise."""
        errors = self.errors
        if errors:
            detail = "; ".join(str(f) for f in errors)
            raise error_cls(f"{summary}: {detail}", self.findings)
