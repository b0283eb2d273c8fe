"""Compiler driver: source text -> loadable CompiledModule.

Two halves with one seam between them. :func:`analyse` is the
target-independent frontend and midend (lex, parse, typecheck, §3.4
static checks, lower to IR); the backend (allocate -> emit ->
re-validate against the hardware) is per target. A control plane that
installs one program on many switches analyses it once and runs only
the backend per switch — :func:`compile_module` takes either form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .backend import CompiledModule, emit
from .ir import ModuleIR, lower
from .parser import parse_source
from .resource_checker import check_against_hardware
from .static_checker import check_module
from .target import DEFAULT_TARGET, TargetDescription
from .typecheck import typecheck

#: What every load/update entry point accepts: P4 source text, or the
#: same program already through :func:`analyse`.
SourceOrIR = Union[str, ModuleIR]


@dataclass
class CompilerOptions:
    """Knobs for a compilation run.

    ``target=None`` means "compile for the default whole-pipeline
    target"; the field is left as given (no ``__post_init__`` mutation),
    and consumers resolve it through :meth:`resolved_target`.
    """

    target: Optional[TargetDescription] = None
    run_static_checks: bool = True

    def resolved_target(self) -> TargetDescription:
        """The target to compile against (default when unset)."""
        return self.target if self.target is not None else DEFAULT_TARGET


def analyse(program: SourceOrIR, name: str = "<module>",
            run_static_checks: bool = True) -> ModuleIR:
    """The target-independent half: P4 source -> :class:`ModuleIR`.

    Pipeline: lex/parse -> typecheck -> static checks (§3.4) -> lower
    to IR. Nothing here reads a target, so one analysed program serves
    every switch and stage window; the backend only reads it. An
    already-analysed program is returned as is (it keeps the name it
    was analysed under), which lets every layer above accept "source
    text or analysed program" without its own dispatch.
    """
    if isinstance(program, ModuleIR):
        return program
    env = typecheck(parse_source(program, name))
    if run_static_checks:
        check_module(env)
    return lower(env)


def compile_module(program: SourceOrIR, name: str = "<module>",
                   options: Optional[CompilerOptions] = None
                   ) -> CompiledModule:
    """Compile one P4-16 module for the Menshen pipeline.

    :func:`analyse` (skipped for an already-analysed program), then the
    per-target backend: allocate PHV containers and stages -> emit
    configurations -> re-validate against hardware dimensions.
    """
    if options is None:
        options = CompilerOptions()
    target = options.resolved_target()
    ir = analyse(program, name, options.run_static_checks)
    module = emit(ir, target)
    check_against_hardware(module, target.params)
    return module
