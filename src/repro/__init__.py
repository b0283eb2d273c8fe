"""Menshen reproduction: isolation mechanisms for RMT pipelines (NSDI'22).

The canonical entry point is :mod:`repro.api` — the unified
tenant-session facade (``Switch`` / ``Tenant`` / typed table entries /
``compile`` with structured diagnostics) — re-exported here. The layered
subpackages stay available for code that needs the internals:

* :mod:`repro.api` — the tenant-session facade (start here)
* :mod:`repro.core` — the Menshen pipeline and isolation primitives
* :mod:`repro.rmt` — the baseline RMT substrate
* :mod:`repro.compiler` — the P4-16-subset compiler
* :mod:`repro.runtime` — controller and software-to-hardware interface
* :mod:`repro.modules` — the eight evaluated programs
* :mod:`repro.sysmod` — the system-level module
* :mod:`repro.engine` / :mod:`repro.traffic` — batched serving and
  workload subsystems
* :mod:`repro.exec` — the execution core the fabric timeline drives
* :mod:`repro.fabric` — multi-switch leaf–spine fabrics of Menshen
  pipelines
* :mod:`repro.sim` / :mod:`repro.area` — performance and area models
"""

from .core import MenshenPipeline
from .runtime import MenshenController
from .compiler import compile_module
from .rmt.params import HardwareParams, DEFAULT_PARAMS
from .api import (
    ActionCall,
    BatchEngine,
    CompileResult,
    Exact,
    Match,
    Switch,
    TableEntry,
    Tenant,
    Ternary,
    compile,
)

__version__ = "1.1.0"

__all__ = [
    # facade (canonical)
    "Switch",
    "Tenant",
    "compile",
    "CompileResult",
    "Exact",
    "Ternary",
    "Match",
    "ActionCall",
    "TableEntry",
    "BatchEngine",
    # layered entry points
    "MenshenPipeline",
    "MenshenController",
    "compile_module",
    "HardwareParams",
    "DEFAULT_PARAMS",
    "__version__",
]
