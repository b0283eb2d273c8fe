"""Orchestration: run the verifier passes over real objects.

This module is the seam between the pure pass machinery
(:mod:`repro.analysis.passes`) and the rest of the stack. It compiles
P4 source into a :class:`~repro.analysis.passes.ModuleContext`
(:func:`compile_and_analyze`, the one compile report behind both
``repro-verify`` and :func:`repro.api.compile`) and projects a
controller's loaded state into a
:class:`~repro.analysis.passes.ConfigContext` — by duck-typing, so
that :mod:`repro.analysis` never imports :mod:`repro.runtime` or
:mod:`repro.api` (they import *us*).

The admission gate (:func:`verify_admission`) is what
``MenshenController._install`` and fabric placement call: analyze the
candidate module plus the switch configuration as it *would* look with
the candidate loaded, and refuse the candidate on any ERROR finding.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..compiler.backend import CompiledModule
from ..compiler.compile import CompilerOptions, analyse, compile_module
from ..compiler.target import DEFAULT_TARGET, TargetDescription
from ..errors import CompilerError
from ..rmt.params import DEFAULT_PARAMS, HardwareParams
from .findings import AnalysisReport, Finding, Severity
from .passes import (
    ConfigContext,
    ModuleContext,
    TenantConfig,
    run_config_passes,
    run_module_passes,
)

# ---------------------------------------------------------------------------
# Module-level analysis
# ---------------------------------------------------------------------------

_COMPILER_FINDING_CODES: Dict[str, str] = {
    "LexerError": "syntax-error",
    "ParseError": "syntax-error",
    "TypeCheckError": "type-error",
    "StaticCheckError": "static-check",
    "ResourceError": "quota-hardware",
    "AllocationError": "allocation-failure",
}


def _compiler_finding(exc: CompilerError, name: str) -> Finding:
    code = _COMPILER_FINDING_CODES.get(type(exc).__name__, "compile-error")
    return Finding(code=code, severity=Severity.ERROR, message=str(exc),
                   pass_name="compiler", subject=name,
                   line=getattr(exc, "line", 0))


def compile_and_analyze(source: str, name: str = "<module>",
                        target: Optional[TargetDescription] = None,
                        granted_match_entries: Optional[int] = None,
                        granted_stateful_words: Optional[int] = None
                        ) -> Tuple[Optional[CompiledModule], AnalysisReport]:
    """Compile one program and verify it: the compiled module (``None``
    when the compiler rejects it) and one report.

    Compiler rejections (§3.4 static checks, resource limits, allocation
    failures) become ERROR findings instead of escaping as exceptions,
    so callers always get one report per program. The frontend runs
    once; when only the backend fails, the module passes still read the
    IR, so dead-code findings survive a failed allocation.
    """
    if target is None:
        target = DEFAULT_TARGET
    report = AnalysisReport()
    try:
        ir = analyse(source, name)
    except CompilerError as exc:
        report.add(_compiler_finding(exc, name))
        return None, report
    module: Optional[CompiledModule] = None
    try:
        module = compile_module(ir, name, CompilerOptions(target=target))
    except CompilerError as exc:
        report.add(_compiler_finding(exc, name))
    report.extend(run_module_passes(ModuleContext(
        name=name, params=target.params, ir=ir, module=module,
        granted_match_entries=granted_match_entries,
        granted_stateful_words=granted_stateful_words)))
    return module, report


def analyze_source(source: str, name: str = "<module>",
                   granted_match_entries: Optional[int] = None,
                   granted_stateful_words: Optional[int] = None
                   ) -> AnalysisReport:
    """Full single-program verification from P4 source: the report of
    :func:`compile_and_analyze` for the default target."""
    return compile_and_analyze(
        source, name, granted_match_entries=granted_match_entries,
        granted_stateful_words=granted_stateful_words)[1]


def analyze_compiled(compiled: CompiledModule, name: str = "",
                     params: HardwareParams = DEFAULT_PARAMS,
                     granted_match_entries: Optional[int] = None,
                     granted_stateful_words: Optional[int] = None
                     ) -> AnalysisReport:
    """Module passes over an already-compiled artifact (no IR passes)."""
    ctx = ModuleContext(
        name=name or compiled.name, params=params, module=compiled,
        granted_match_entries=granted_match_entries,
        granted_stateful_words=granted_stateful_words)
    report = AnalysisReport()
    report.extend(run_module_passes(ctx))
    return report


# ---------------------------------------------------------------------------
# Switch-level analysis
# ---------------------------------------------------------------------------

def _tenant_from_loaded(loaded: Any) -> TenantConfig:
    """Project a controller ``LoadedModule`` (duck-typed) to the pass
    vocabulary: (vid, compiled artifact, allocation, live entry rows)."""
    entry_rows: Dict[int, List[int]] = {}
    for state in getattr(loaded, "tables", {}).values():
        rows = entry_rows.setdefault(state.stage, [])
        rows.extend(sorted(state.entries.values()))
    return TenantConfig(
        vid=loaded.module_id, name=loaded.name, module=loaded.compiled,
        allocation=loaded.allocation, entry_rows=entry_rows)


def build_config_context(controller: Any,
                         extra: Optional[List[TenantConfig]] = None
                         ) -> ConfigContext:
    """The allocated configuration of one switch, as the passes see it.

    ``controller`` is duck-typed: anything with ``pipeline.params``,
    a ``modules`` dict of LoadedModule-shaped values, and optionally
    ``system_module`` / ``compile_target()`` works — in particular
    :class:`repro.runtime.controller.MenshenController`.
    """
    tenants: List[TenantConfig] = []
    system = getattr(controller, "system_module", None)
    if system is not None:
        tenants.append(_tenant_from_loaded(system))
    modules = getattr(controller, "modules", {})
    for module_id in sorted(modules):
        tenants.append(_tenant_from_loaded(modules[module_id]))
    if extra:
        tenants.extend(extra)
    target = None
    compile_target = getattr(controller, "compile_target", None)
    if callable(compile_target) and system is not None:
        target = compile_target()
    return ConfigContext(params=controller.pipeline.params,
                         tenants=tenants, target=target)


def analyze_switch(controller: Any,
                   extra: Optional[List[TenantConfig]] = None
                   ) -> AnalysisReport:
    """Config passes over everything a switch has loaded (plus, for
    admission, the ``extra`` candidate tenants not yet installed)."""
    ctx = build_config_context(controller, extra)
    report = AnalysisReport()
    report.extend(run_config_passes(ctx))
    return report


def verify_admission(controller: Any, module_id: int, name: str,
                     compiled: CompiledModule,
                     allocation: Any) -> AnalysisReport:
    """The admission gate: prove the switch stays isolated if this
    candidate is installed.

    Runs the module passes over the candidate artifact and the config
    passes over *current switch state + candidate allocation*; ERROR
    findings raise :class:`~repro.errors.AnalysisError` (§3.4: a module
    whose demands cannot be met is not admitted).
    """
    params = controller.pipeline.params
    report = analyze_compiled(compiled, name=name, params=params)
    candidate = TenantConfig(vid=module_id, name=name, module=compiled,
                             allocation=allocation)
    report.merge(analyze_switch(controller, extra=[candidate]))
    report.raise_if_errors(
        f"admission of module {name!r} (vid {module_id}) rejected "
        f"by the static verifier")
    return report


__all__ = [
    "analyze_compiled",
    "analyze_source",
    "analyze_switch",
    "build_config_context",
    "compile_and_analyze",
    "verify_admission",
]
