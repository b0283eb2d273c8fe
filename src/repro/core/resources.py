"""Partition ledger: who owns which slice of each space-partitioned
resource (§3, Table 1).

Overlay resources are isolated by construction (one row per module).
Space-partitioned resources — match-action entries, VLIW actions, and
stateful memory — need explicit bookkeeping: this ledger records each
module's allocation and refuses overlapping or out-of-bounds grants, and
the runtime consults it so a control-plane write for module *M* can only
land inside *M*'s slice (resource-isolation requirement 2 of §2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import AdmissionError, IsolationViolationError
from ..rmt.params import DEFAULT_PARAMS, HardwareParams


@dataclass(frozen=True)
class StageAllocation:
    """A module's slice of one stage."""

    match_start: int = 0
    match_count: int = 0       #: CAM/VLIW rows [start, start+count)
    stateful_base: int = 0
    stateful_words: int = 0    #: stateful words [base, base+words)

    @property
    def match_end(self) -> int:
        return self.match_start + self.match_count

    @property
    def stateful_end(self) -> int:
        return self.stateful_base + self.stateful_words


#: The empty slice a module holds in a stage it was not granted
#: (immutable, so one instance serves every lookup).
_NO_STAGE = StageAllocation()


@dataclass
class ModuleAllocation:
    """A module's complete allocation across the pipeline.

    ``stages`` maps stage index -> :class:`StageAllocation`. Stages not
    present get nothing in that stage.
    """

    module_id: int
    stages: Dict[int, StageAllocation] = field(default_factory=dict)

    def stage(self, index: int) -> StageAllocation:
        alloc = self.stages.get(index)
        return _NO_STAGE if alloc is None else alloc

    def total_match_entries(self) -> int:
        return sum(s.match_count for s in self.stages.values())


class PartitionLedger:
    """Validates and records per-module partitions; answers ownership."""

    def __init__(self, params: HardwareParams = DEFAULT_PARAMS):
        self.params = params
        self._allocations: Dict[int, ModuleAllocation] = {}
        #: (stage, row/word) -> owning module, kept in step with
        #: grant/revoke so the per-write ownership queries below are one
        #: dict lookup instead of a scan over every allocation.
        self._match_owner: Dict[Tuple[int, int], int] = {}
        self._stateful_owner: Dict[Tuple[int, int], int] = {}

    # -- admission ----------------------------------------------------------------

    def _check_overlap(self, alloc: ModuleAllocation) -> None:
        for stage_idx, new in alloc.stages.items():
            if not 0 <= stage_idx < self.params.num_stages:
                raise AdmissionError(
                    f"module {alloc.module_id}: stage {stage_idx} does not "
                    f"exist (pipeline has {self.params.num_stages})")
            if new.match_end > self.params.match_entries_per_stage:
                raise AdmissionError(
                    f"module {alloc.module_id}: match rows "
                    f"[{new.match_start}, {new.match_end}) exceed stage "
                    f"depth {self.params.match_entries_per_stage}")
            if new.stateful_end > self.params.stateful_words_per_stage:
                raise AdmissionError(
                    f"module {alloc.module_id}: stateful words "
                    f"[{new.stateful_base}, {new.stateful_end}) exceed "
                    f"stage memory {self.params.stateful_words_per_stage}")
            for other in self._allocations.values():
                if other.module_id == alloc.module_id:
                    continue
                o = other.stage(stage_idx)
                if (new.match_count and o.match_count
                        and new.match_start < o.match_end
                        and o.match_start < new.match_end):
                    raise AdmissionError(
                        f"match rows of module {alloc.module_id} overlap "
                        f"module {other.module_id} in stage {stage_idx}")
                if (new.stateful_words and o.stateful_words
                        and new.stateful_base < o.stateful_end
                        and o.stateful_base < new.stateful_end):
                    raise AdmissionError(
                        f"stateful words of module {alloc.module_id} overlap "
                        f"module {other.module_id} in stage {stage_idx}")

    def grant(self, alloc: ModuleAllocation) -> None:
        """Record an allocation after validating bounds and overlaps."""
        if alloc.module_id in self._allocations:
            raise AdmissionError(
                f"module {alloc.module_id} already has an allocation; "
                f"revoke first")
        if not 0 <= alloc.module_id < self.params.max_modules:
            raise AdmissionError(
                f"module id {alloc.module_id} exceeds the overlay depth "
                f"{self.params.max_modules}")
        self._check_overlap(alloc)
        self._allocations[alloc.module_id] = alloc
        for stage_idx, s in alloc.stages.items():
            for row in range(s.match_start, s.match_end):
                self._match_owner[stage_idx, row] = alloc.module_id
            for addr in range(s.stateful_base, s.stateful_end):
                self._stateful_owner[stage_idx, addr] = alloc.module_id

    def revoke(self, module_id: int) -> ModuleAllocation:
        if module_id not in self._allocations:
            raise AdmissionError(f"module {module_id} has no allocation")
        alloc = self._allocations.pop(module_id)
        for stage_idx, s in alloc.stages.items():
            for row in range(s.match_start, s.match_end):
                del self._match_owner[stage_idx, row]
            for addr in range(s.stateful_base, s.stateful_end):
                del self._stateful_owner[stage_idx, addr]
        return alloc

    def allocation_of(self, module_id: int) -> Optional[ModuleAllocation]:
        return self._allocations.get(module_id)

    def loaded_modules(self) -> List[int]:
        return sorted(self._allocations)

    # -- ownership queries ---------------------------------------------------------

    def match_owner(self, stage: int, index: int) -> Optional[int]:
        """The module granted CAM/VLIW row ``index`` of ``stage``, if any."""
        return self._match_owner.get((stage, index))

    def stateful_owner(self, stage: int, addr: int) -> Optional[int]:
        """The module granted stateful word ``addr`` of ``stage``, if any."""
        return self._stateful_owner.get((stage, addr))

    # -- ownership checks (write-path guards) ------------------------------------

    def check_match_write(self, module_id: int, stage: int,
                          index: int) -> None:
        """Guard: may ``module_id`` write CAM/VLIW row ``index``?"""
        alloc = self._allocations.get(module_id)
        if alloc is None:
            raise IsolationViolationError(
                f"module {module_id} is not loaded")
        s = alloc.stage(stage)
        if not s.match_start <= index < s.match_end:
            raise IsolationViolationError(
                f"module {module_id} may not write match row {index} of "
                f"stage {stage} (owns [{s.match_start}, {s.match_end}))")

    def check_stateful_write(self, module_id: int, stage: int,
                             addr: int) -> None:
        """Guard: may ``module_id`` initialize stateful word ``addr``?"""
        alloc = self._allocations.get(module_id)
        if alloc is None:
            raise IsolationViolationError(
                f"module {module_id} is not loaded")
        s = alloc.stage(stage)
        if not s.stateful_base <= addr < s.stateful_end:
            raise IsolationViolationError(
                f"module {module_id} may not touch stateful word {addr} of "
                f"stage {stage} (owns [{s.stateful_base}, {s.stateful_end}))")

    # -- capacity queries -----------------------------------------------------------

    def free_match_rows(self, stage: int) -> int:
        used = sum(a.stage(stage).match_count
                   for a in self._allocations.values())
        return self.params.match_entries_per_stage - used

    def free_stateful_words(self, stage: int) -> int:
        used = sum(a.stage(stage).stateful_words
                   for a in self._allocations.values())
        return self.params.stateful_words_per_stage - used

    def first_free_match_block(self, stage: int,
                               count: int) -> Optional[int]:
        """Lowest contiguous free CAM block of ``count`` rows, or None."""
        occupied = []
        for a in self._allocations.values():
            s = a.stage(stage)
            if s.match_count:
                occupied.append((s.match_start, s.match_end))
        occupied.sort()
        cursor = 0
        for start, end in occupied:
            if start - cursor >= count:
                return cursor
            cursor = max(cursor, end)
        if self.params.match_entries_per_stage - cursor >= count:
            return cursor
        return None

    def first_free_stateful_block(self, stage: int,
                                  words: int) -> Optional[int]:
        """Lowest contiguous free stateful block of ``words``, or None."""
        occupied = []
        for a in self._allocations.values():
            s = a.stage(stage)
            if s.stateful_words:
                occupied.append((s.stateful_base, s.stateful_end))
        occupied.sort()
        cursor = 0
        for start, end in occupied:
            if start - cursor >= words:
                return cursor
            cursor = max(cursor, end)
        if self.params.stateful_words_per_stage - cursor >= words:
            return cursor
        return None
