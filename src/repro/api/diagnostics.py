"""Structured compile diagnostics: ``compile() -> CompileResult``.

:func:`compile` runs the same pipeline as
:func:`repro.compiler.compile_module` but reports through data instead
of bare exceptions: every failure becomes a :class:`Diagnostic` on a
:class:`CompileResult`, and successful runs carry per-stage resource
usage plus capacity warnings (a table or stateful partition close to the
hardware depth is legal today and a production incident next week).

Callers that want the exception style back call
:meth:`CompileResult.unwrap`, which raises
:class:`~repro.errors.CompilationFailed` carrying the full findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..analysis.findings import Finding
from ..analysis.passes import ModuleContext, run_module_passes
from ..compiler.backend import CompiledModule
from ..compiler.compile import CompilerOptions, analyse, compile_module
from ..compiler.target import TargetDescription
from ..errors import (
    AllocationError,
    CompilationFailed,
    CompilerError,
    LexerError,
    ParseError,
    ResourceError,
    StaticCheckError,
    TypeCheckError,
)

#: Occupancy fraction above which a capacity warning is emitted.
CAPACITY_WARNING_THRESHOLD = 0.75

_CODE_BY_ERROR = [
    (StaticCheckError, "static-check"),
    (ResourceError, "resources"),
    (AllocationError, "allocation"),
    (TypeCheckError, "typecheck"),
    (ParseError, "parse"),
    (LexerError, "lex"),
]


@dataclass(frozen=True)
class Diagnostic:
    """One structured compiler finding."""

    severity: str          #: ``"error"`` | ``"warning"``
    code: str              #: phase slug, e.g. ``"static-check"``
    message: str
    line: int = 0
    column: int = 0

    def __str__(self) -> str:
        # CompilerError messages already carry "(at line N, ...)".
        loc = (f" (line {self.line})"
               if self.line and f"line {self.line}" not in self.message
               else "")
        return f"[{self.severity}:{self.code}] {self.message}{loc}"


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
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Per-stage demand vs. hardware capacity (empty on failure).
    stage_usage: Dict[int, StageUsage] = field(default_factory=dict)
    #: Static-verifier findings (:mod:`repro.analysis` module passes):
    #: quota proofs and dead-code warnings. Compile *failures* stay in
    #: ``diagnostics``; findings are the analysis layered on top.
    findings: List[Finding] = field(default_factory=list)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    def unwrap(self) -> CompiledModule:
        """The compiled module, or :class:`CompilationFailed` with the
        structured findings attached."""
        if self.ok and self.module is not None:
            return self.module
        summary = "; ".join(str(d) for d in self.errors) or "unknown error"
        raise CompilationFailed(
            f"module {self.name!r} failed to compile: {summary}",
            self.diagnostics)

    def report(self) -> str:
        """Human-readable summary (diagnostics, findings, stage usage)."""
        lines = [f"compile {self.name!r}: {'ok' if self.ok else 'FAILED'}"]
        lines.extend(f"  {d}" for d in self.diagnostics)
        lines.extend(f"  {f}" for f in self.findings)
        for stage in sorted(self.stage_usage):
            u = self.stage_usage[stage]
            lines.append(
                f"  stage {stage}: {u.match_entries}/{u.match_capacity} "
                f"CAM rows, {u.stateful_words}/{u.stateful_capacity} "
                f"stateful words ({', '.join(u.tables) or 'no tables'})")
        return "\n".join(lines)


def _diag_from_error(exc: CompilerError) -> Diagnostic:
    for etype, code in _CODE_BY_ERROR:
        if isinstance(exc, etype):
            break
    else:
        code = "compile"
    return Diagnostic(severity="error", code=code, message=str(exc),
                      line=getattr(exc, "line", 0),
                      column=getattr(exc, "column", 0))


def _usage_and_warnings(module: CompiledModule, target: TargetDescription):
    params = target.params
    usage: Dict[int, StageUsage] = {}
    tables_by_stage: Dict[int, List[str]] = {}
    for tname in module.table_order:
        tables_by_stage.setdefault(module.tables[tname].stage, []).append(
            tname)
    match_by_stage = module.match_entries_by_stage()
    words_by_stage = module.stateful_words_by_stage()
    for stage in sorted(set(match_by_stage) | set(words_by_stage)):
        usage[stage] = StageUsage(
            stage=stage,
            match_entries=match_by_stage.get(stage, 0),
            match_capacity=params.match_entries_per_stage,
            stateful_words=words_by_stage.get(stage, 0),
            stateful_capacity=params.stateful_words_per_stage,
            tables=tables_by_stage.get(stage, []))

    warnings: List[Diagnostic] = []
    for stage, u in usage.items():
        if u.match_entries > CAPACITY_WARNING_THRESHOLD * u.match_capacity:
            warnings.append(Diagnostic(
                "warning", "capacity",
                f"stage {stage}: tables claim {u.match_entries} of "
                f"{u.match_capacity} CAM rows; co-resident modules may "
                f"not fit"))
        if u.stateful_words > (CAPACITY_WARNING_THRESHOLD
                               * u.stateful_capacity):
            warnings.append(Diagnostic(
                "warning", "capacity",
                f"stage {stage}: registers claim {u.stateful_words} of "
                f"{u.stateful_capacity} stateful words"))
    parse_actions = len(module.parse_actions)
    limit = params.parse_actions_per_entry
    if parse_actions > CAPACITY_WARNING_THRESHOLD * limit:
        warnings.append(Diagnostic(
            "warning", "capacity",
            f"parse program uses {parse_actions} of {limit} parser "
            f"actions"))
    return usage, warnings


def compile(source: str, name: str = "<module>",  # noqa: A001 - facade verb
            target: Optional[TargetDescription] = None,
            options: Optional[CompilerOptions] = None) -> CompileResult:
    """Compile one module, reporting findings as data.

    ``target`` is a convenience for ``options.target``; pass at most one
    of the two. Never raises for problems *in the source* — those come
    back as error diagnostics; programming errors (bad arguments) still
    raise normally.
    """
    if options is None:
        options = CompilerOptions(target=target)
    elif target is not None:
        raise ValueError("pass either target= or options=, not both")
    resolved = options.resolved_target()
    diagnostics: List[Diagnostic] = []
    try:
        ir = analyse(source, name, options.run_static_checks)
        module = compile_module(ir, name, options)
    except CompilerError as exc:
        diagnostics.append(_diag_from_error(exc))
        return CompileResult(name=name, ok=False, module=None,
                             diagnostics=diagnostics)
    usage, warnings = _usage_and_warnings(module, resolved)
    diagnostics.extend(warnings)
    # The verifier's module passes read the IR and artifact compiled
    # above; the frontend does not run again.
    findings = list(run_module_passes(ModuleContext(
        name=name, params=resolved.params, ir=ir, module=module)))
    return CompileResult(name=name, ok=True, module=module,
                         diagnostics=diagnostics, stage_usage=usage,
                         findings=findings)
