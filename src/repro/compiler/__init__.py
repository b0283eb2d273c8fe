"""P4-16-subset compiler targeting the Menshen pipeline (§3.4, §4.2).

The paper's compiler reuses the open-source p4c frontend/midend and adds
a Menshen backend. This package is a self-contained equivalent:

* :mod:`~repro.compiler.lexer` / :mod:`~repro.compiler.parser` — tokenize
  and parse the supported P4-16 subset into an AST,
* :mod:`~repro.compiler.typecheck` — resolve names, compute header/field
  byte offsets, check widths,
* :mod:`~repro.compiler.ir` — the lowered module IR,
* :mod:`~repro.compiler.static_checker` — the §3.4 safety rules (no VID
  writes, no stats writes, no recirculation),
* :mod:`~repro.compiler.allocator` — PHV container allocation and table →
  stage placement with dependency checking,
* :mod:`~repro.compiler.backend` — emission of parse actions, key
  extractor entries, masks, and VLIW action templates,
* :mod:`~repro.compiler.resource_checker` — usage vs. the raw hardware
  limits (the §3.4 backstop),
* :mod:`~repro.compiler.compile` — the `compile_module` driver, split
  at :func:`analyse` (target-independent, once per program) and the
  per-target backend.

The output, :class:`~repro.compiler.backend.CompiledModule`, is
position-independent: module ID, absolute stages, CAM rows, and stateful
bases are bound at load time by :mod:`repro.runtime.controller`.
"""

from .compile import SourceOrIR, analyse, compile_module, CompilerOptions
from .compose import compile_module_group
from .backend import CompiledModule, CompiledTable, CompiledAction
from .ir import ModuleIR
from .target import TargetDescription, DEFAULT_TARGET

__all__ = [
    "analyse",
    "compile_module",
    "compile_module_group",
    "CompilerOptions",
    "CompiledModule",
    "CompiledTable",
    "CompiledAction",
    "ModuleIR",
    "SourceOrIR",
    "TargetDescription",
    "DEFAULT_TARGET",
]
