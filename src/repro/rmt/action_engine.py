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
from .phv import _CONTAINER_MASKS, PHV, ContainerRef, ContainerType, Metadata
from .stateful import StatefulMemory

#: Width mask of each ALU slot's own container. One ALU per container
#: (§4.1), so a slot's result lands at ``PHV.data[slot]``. Slot 24 is
#: the metadata container, which no container-writing op may target.
_SLOT_MASKS = tuple(_CONTAINER_MASKS[ContainerRef.from_flat(slot).ctype]
                    for slot in range(NUM_ALUS))
_META_SLOT = 24
_META = ContainerType.META

# Opcodes as module names: cheaper to reach than enum class attributes.
_ADD, _SUB, _ADDI, _SUBI, _SET = (AluOp.ADD, AluOp.SUB, AluOp.ADDI,
                                  AluOp.SUBI, AluOp.SET)
_LOAD, _STORE, _LOADD = AluOp.LOAD, AluOp.STORE, AluOp.LOADD
_PORT, _MCAST, _DISCARD = AluOp.PORT, AluOp.MCAST, AluOp.DISCARD


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
        """One ALU. Operands are read from ``old.data``; a metadata
        operand goes through :meth:`PHV.get`, which raises. Results land
        in ``new.data`` masked to the container's width, and
        ``PORT`` / ``MCAST`` / ``DISCARD`` write their metadata bytes
        (destination port at 2-3, multicast group at 8-9, the discard
        flag in byte 0)."""
        op = action.opcode
        data = old.data
        ref = action.c1
        if ref is None:
            a = 0
        elif ref.ctype is _META:
            a = old.get(ref)  # raises
        else:
            a = data[ref.flat_index]
        ref = action.c2
        if ref is None:
            b = 0
        elif ref.ctype is _META:
            b = old.get(ref)  # raises
        else:
            b = data[ref.flat_index]
        imm = action.immediate

        if slot == _META_SLOT and op.writes_container:
            raise ConfigError(
                f"{op.name} on the metadata ALU slot is not supported")
        mask = _SLOT_MASKS[slot]
        out = new.data

        if op is _ADD:
            out[slot] = (a + b) & mask
        elif op is _SUB:
            out[slot] = (a - b) & mask
        elif op is _ADDI:
            out[slot] = (a + imm) & mask
        elif op is _SUBI:
            out[slot] = (a - imm) & mask
        elif op is _SET:
            out[slot] = imm & mask
        elif op is _LOAD:
            value = self._require_stateful(op).read(module_id, a + imm)
            out[slot] = value & mask
        elif op is _STORE:
            own_value = data[slot] if slot != _META_SLOT else 0
            self._require_stateful(op).write(module_id, a + imm, own_value)
        elif op is _LOADD:
            value = self._require_stateful(op).load_add_store(
                module_id, a + imm)
            if slot != _META_SLOT:
                out[slot] = value & mask
        elif op is _PORT:
            port = (a + imm) & 0xFFFF
            meta = new.metadata.buf
            meta[2] = port >> 8
            meta[3] = port & 0xFF
        elif op is _MCAST:
            group = (a + imm) & 0xFFFF
            meta = new.metadata.buf
            meta[8] = group >> 8
            meta[9] = group & 0xFF
        elif op is _DISCARD:
            new.metadata.buf[0] |= Metadata.FLAG_DISCARD
        else:  # pragma: no cover — every AluOp is handled above
            raise ConfigError(f"unhandled opcode {op!r}")
