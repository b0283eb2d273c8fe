"""Resource usage checking (§3.4).

Menshen checks allocations *statically*: reassigning a resource from one
module to another would disrupt both, so a module whose requirements
cannot be met is simply not admitted (admission control). This module
computes a compiled module's resource demand and validates it against
the raw hardware limits.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ResourceError
from ..rmt.params import HardwareParams
from .backend import CompiledModule


@dataclass(frozen=True)
class ResourceRequest:
    """A module's demand, in the units policies reason about."""

    match_entries: int        #: total CAM rows across stages
    stateful_words: int       #: total stateful words across stages
    num_tables: int
    parse_actions: int
    containers: int           #: PHV containers beyond shared ones

    @classmethod
    def of(cls, module: CompiledModule) -> "ResourceRequest":
        usage = module.resource_usage()
        return cls(
            match_entries=sum(usage["match_entries_by_stage"].values()),
            stateful_words=sum(usage["stateful_words_by_stage"].values()),
            num_tables=usage["num_tables"],
            parse_actions=usage["parse_actions"],
            containers=sum(usage["containers"].values()),
        )


#: Findings enforced as raw hardware limits (per-module dimensions).
_HARDWARE_CODES = frozenset({
    "quota-parse-actions", "quota-containers", "quota-match-entries",
    "quota-stateful-words", "quota-stage", "quota-key-width"})


def check_against_hardware(module: CompiledModule,
                           params: HardwareParams) -> None:
    """Validate the module fits the raw hardware dimensions.

    (The allocator already guarantees most of these; this re-validation
    is the backstop the paper's resource checker provides, and it also
    covers artifacts constructed without the allocator.) Runs
    :class:`repro.analysis.passes.ResourceQuotaPass` and raises its
    first hardware-limit finding as :class:`ResourceError`.
    """
    # Imported lazily: repro.analysis depends on the compiler package,
    # not the other way around.
    from ..analysis.passes import ModuleContext, ResourceQuotaPass

    ctx = ModuleContext(name=module.name, params=params, module=module)
    for finding in ResourceQuotaPass().run(ctx):
        if finding.code in _HARDWARE_CODES:
            where = (f"stage {finding.stage}: "
                     if finding.stage is not None else "")
            raise ResourceError(f"{where}{finding.message}")
