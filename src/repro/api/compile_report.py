"""Compile reports: ``compile() -> CompileResult``.

:func:`compile` is :func:`repro.analysis.verify.compile_and_analyze`
plus per-stage resource usage. It reports through data instead of bare
exceptions: every compiler rejection is an ERROR
:class:`~repro.analysis.Finding` on a :class:`CompileResult`, next to
the verifier's module findings (quota proofs, ``capacity`` warnings for
a table or stateful partition close to the hardware depth, dead code) —
one record type, the one ``repro-verify`` prints.

Callers that want the exception style back call
:meth:`CompileResult.unwrap`, which raises
:class:`~repro.errors.CompilationFailed` carrying the full findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..analysis.findings import Finding, Severity
from ..analysis.verify import compile_and_analyze
from ..compiler.backend import CompiledModule
from ..compiler.target import TargetDescription
from ..errors import CompilationFailed


@dataclass(frozen=True)
class StageUsage:
    """Resources one compiled module consumes in one stage."""

    stage: int
    match_entries: int
    match_capacity: int
    stateful_words: int
    stateful_capacity: int
    tables: List[str] = field(default_factory=list)


@dataclass
class CompileResult:
    """Outcome of one compilation run, successful or not."""

    name: str
    ok: bool
    module: Optional[CompiledModule]
    #: Compiler rejections and verifier findings, in report order.
    findings: List[Finding] = field(default_factory=list)
    #: Per-stage demand vs. hardware capacity (empty on failure).
    stage_usage: Dict[int, StageUsage] = field(default_factory=dict)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity >= Severity.ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == Severity.WARNING]

    def unwrap(self) -> CompiledModule:
        """The compiled module, or :class:`CompilationFailed` with the
        structured findings attached."""
        if self.ok and self.module is not None:
            return self.module
        summary = "; ".join(str(f) for f in self.errors) or "unknown error"
        raise CompilationFailed(
            f"module {self.name!r} failed to compile: {summary}",
            self.findings)

    def report(self) -> str:
        """Human-readable summary (findings, stage usage)."""
        lines = [f"compile {self.name!r}: {'ok' if self.ok else 'FAILED'}"]
        lines.extend(f"  {f}" for f in self.findings)
        for stage in sorted(self.stage_usage):
            u = self.stage_usage[stage]
            lines.append(
                f"  stage {stage}: {u.match_entries}/{u.match_capacity} "
                f"CAM rows, {u.stateful_words}/{u.stateful_capacity} "
                f"stateful words ({', '.join(u.tables) or 'no tables'})")
        return "\n".join(lines)


def _stage_usage(module: CompiledModule) -> Dict[int, StageUsage]:
    params = module.target.params
    tables_by_stage: Dict[int, List[str]] = {}
    for tname in module.table_order:
        tables_by_stage.setdefault(module.tables[tname].stage, []).append(
            tname)
    match_by_stage = module.match_entries_by_stage()
    words_by_stage = module.stateful_words_by_stage()
    return {
        stage: StageUsage(
            stage=stage,
            match_entries=match_by_stage.get(stage, 0),
            match_capacity=params.match_entries_per_stage,
            stateful_words=words_by_stage.get(stage, 0),
            stateful_capacity=params.stateful_words_per_stage,
            tables=tables_by_stage.get(stage, []))
        for stage in sorted(set(match_by_stage) | set(words_by_stage))}


def compile(source: str, name: str = "<module>",  # noqa: A001 - facade verb
            target: Optional[TargetDescription] = None) -> CompileResult:
    """Compile one module, reporting findings as data.

    Never raises for problems *in the source* — those come back as
    error findings; programming errors (bad arguments) still raise
    normally.
    """
    module, report = compile_and_analyze(source, name, target)
    if module is None:
        return CompileResult(name=name, ok=False, module=None,
                             findings=report.findings)
    return CompileResult(name=name, ok=True, module=module,
                         findings=report.findings,
                         stage_usage=_stage_usage(module))
