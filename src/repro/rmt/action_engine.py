"""Action engine: crossbar + 25 parallel ALUs (§3.1, Fig. 4).

Executes one VLIW instruction against a PHV with true VLIW semantics:
**all operand reads observe the pre-instruction PHV** (the crossbar
samples the incoming PHV), and all container writes land on the outgoing
PHV. This matters: ``{0: ADD(c0,c1), 1: ADD(c0,c1)}`` gives both outputs
the same sum even though slot 0 "wrote" c0 first.

Stateful operations go through a :class:`StatefulAccess` adapter that
performs per-module address translation; the baseline RMT uses an
identity adapter, Menshen swaps in the segment table. Stateful side
effects commit in ALU-slot order within an instruction (a documented
tie-break the paper leaves unspecified).
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConfigError
from .action import AluAction, AluOp, VliwInstruction
from .encodings import NUM_ALUS
from .phv import PHV, ContainerRef
from .stateful import StatefulMemory

#: The container each ALU slot writes, by flat index (slot 24 is the
#: metadata container).
_SLOT_REFS = tuple(ContainerRef.from_flat(slot) for slot in range(NUM_ALUS))
_META_SLOT = 24


class StatefulAccess:
    """Adapter giving ALUs per-module access to stateful memory.

    The baseline (non-isolating) adapter translates addresses as the
    identity. Menshen subclasses this with segment-table translation
    (:class:`repro.core.segment_table.SegmentedAccess`).
    """

    def __init__(self, memory: StatefulMemory):
        self.memory = memory

    def translate(self, module_id: int, addr: int) -> int:
        """Map a per-module address to a physical address."""
        return addr

    def read(self, module_id: int, addr: int) -> int:
        return self.memory.read(self.translate(module_id, addr))

    def write(self, module_id: int, addr: int, value: int) -> None:
        self.memory.write(self.translate(module_id, addr), value)

    def load_add_store(self, module_id: int, addr: int) -> int:
        return self.memory.load_add_store(self.translate(module_id, addr))


class ActionEngine:
    """Executes VLIW instructions over PHVs."""

    def __init__(self, stateful: Optional[StatefulAccess] = None):
        self.stateful = stateful

    def _operand(self, phv: PHV, ref: Optional[ContainerRef]) -> int:
        if ref is None:
            return 0
        return phv.get(ref)

    def _require_stateful(self, op: AluOp) -> StatefulAccess:
        if self.stateful is None:
            raise ConfigError(
                f"{op.name} requires stateful memory, but this stage has none")
        return self.stateful

    def execute(self, instruction: VliwInstruction, phv: PHV,
                module_id: int) -> PHV:
        """Run the instruction; returns the new PHV (input not mutated)."""
        out = phv.copy()
        for slot, action in instruction.non_nop():
            self._execute_one(slot, action, phv, out, module_id)
        return out

    def _execute_one(self, slot: int, action: AluAction, old: PHV,
                     new: PHV, module_id: int) -> None:
        op = action.opcode
        a = self._operand(old, action.c1)
        b = self._operand(old, action.c2)
        imm = action.immediate

        own = _SLOT_REFS[slot]
        if op.writes_container and slot == _META_SLOT:
            raise ConfigError(
                f"{op.name} on the metadata ALU slot is not supported")

        if op == AluOp.ADD:
            new.set_wrapping(own, a + b)
        elif op == AluOp.SUB:
            new.set_wrapping(own, a - b)
        elif op == AluOp.ADDI:
            new.set_wrapping(own, a + imm)
        elif op == AluOp.SUBI:
            new.set_wrapping(own, a - imm)
        elif op == AluOp.SET:
            new.set_wrapping(own, imm)
        elif op == AluOp.LOAD:
            value = self._require_stateful(op).read(module_id, a + imm)
            new.set_wrapping(own, value)
        elif op == AluOp.STORE:
            own_value = old.get(own) if slot != _META_SLOT else 0
            self._require_stateful(op).write(module_id, a + imm, own_value)
        elif op == AluOp.LOADD:
            value = self._require_stateful(op).load_add_store(
                module_id, a + imm)
            if slot != _META_SLOT:
                new.set_wrapping(own, value)
        elif op == AluOp.PORT:
            new.metadata.dst_port = (a + imm) & 0xFFFF
        elif op == AluOp.MCAST:
            new.metadata.mcast_group = (a + imm) & 0xFFFF
        elif op == AluOp.DISCARD:
            new.metadata.discard = True
        else:  # pragma: no cover — every AluOp is handled above
            raise ConfigError(f"unhandled opcode {op!r}")
