"""ALU operations, ALU actions, and VLIW instructions (Table 2, Fig. 7).

Each VLIW instruction controls 25 ALUs — one per PHV container — and each
ALU action is 25 bits in one of two forms (Fig. 7):

* two-operand: ``opcode(4) | container_1(5) | container_2(5) | rsvd(11)``
* immediate:   ``opcode(4) | container_1(5) | immediate(16)``

Every opcode uses exactly one form, so encoding is bijective:

==========  ===========  =================================================
opcode      form         semantics (ALU *i* writes container *i*)
==========  ===========  =================================================
NOP         two-operand  no effect
ADD         two-operand  out = phv[c1] + phv[c2]
SUB         two-operand  out = phv[c1] - phv[c2]
ADDI        immediate    out = phv[c1] + imm
SUBI        immediate    out = phv[c1] - imm
SET         immediate    out = imm
LOAD        immediate    out = stateful[phv[c1] + imm]
STORE       immediate    stateful[phv[c1] + imm] = phv[i]
LOADD       immediate    v = stateful[phv[c1] + imm] + 1; store back; out = v
PORT        immediate    metadata.dst_port = phv[c1] + imm
DISCARD     two-operand  metadata.discard = 1
==========  ===========  =================================================

Stateful addresses are *per-module*: the action engine passes them
through the stage's segment table before touching memory. The
``phv[c1] + imm`` form subsumes both pure-immediate addressing (point
``c1`` at a never-written container — the PHV is zeroed per packet) and
pure-container addressing (``imm = 0``). Arithmetic wraps at the output
container's width, like fixed-width hardware adders.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Sequence, Tuple

from ..errors import EncodingError
from .encodings import (
    ALU_IMMEDIATE_LAYOUT,
    ALU_TWO_OPERAND_LAYOUT,
    NUM_ALUS,
    decode_vliw_entry,
    encode_vliw_entry,
)
from .phv import ContainerRef


class AluOp(IntEnum):
    """Supported ALU operations (Table 2 of the paper)."""

    NOP = 0
    ADD = 1
    SUB = 2
    ADDI = 3
    SUBI = 4
    SET = 5
    LOAD = 6
    STORE = 7
    LOADD = 8
    PORT = 9
    DISCARD = 10
    MCAST = 11   #: metadata.mcast_group = phv[c1] + imm (platform op, §4.1)

    @property
    def uses_immediate(self) -> bool:
        """True if this opcode's 25-bit encoding is the immediate form."""
        return self in (AluOp.ADDI, AluOp.SUBI, AluOp.SET, AluOp.LOAD,
                        AluOp.STORE, AluOp.LOADD, AluOp.PORT, AluOp.MCAST)

    @property
    def is_stateful(self) -> bool:
        return self in (AluOp.LOAD, AluOp.STORE, AluOp.LOADD)

    @property
    def writes_container(self) -> bool:
        """True if the op produces a value for the ALU's own container."""
        return self in (AluOp.ADD, AluOp.SUB, AluOp.ADDI, AluOp.SUBI,
                        AluOp.SET, AluOp.LOAD, AluOp.LOADD)

    @property
    def needs_c1(self) -> bool:
        return self in (AluOp.ADD, AluOp.SUB, AluOp.ADDI, AluOp.SUBI,
                        AluOp.LOAD, AluOp.STORE, AluOp.LOADD, AluOp.PORT,
                        AluOp.MCAST)

    @property
    def needs_c2(self) -> bool:
        return self in (AluOp.ADD, AluOp.SUB)


@dataclass(frozen=True)
class AluAction:
    """One decoded 25-bit ALU action (see module docstring for semantics)."""

    opcode: AluOp = AluOp.NOP
    c1: Optional[ContainerRef] = None
    c2: Optional[ContainerRef] = None
    immediate: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.immediate < (1 << 16):
            raise EncodingError(
                f"immediate {self.immediate} does not fit in 16 bits")
        if self.opcode.needs_c1 and self.c1 is None:
            raise EncodingError(f"{self.opcode.name} requires operand c1")
        if self.opcode.needs_c2 and self.c2 is None:
            raise EncodingError(f"{self.opcode.name} requires operand c2")
        if not self.opcode.uses_immediate and self.immediate:
            raise EncodingError(
                f"{self.opcode.name} does not take an immediate")
        if self.opcode.uses_immediate and self.c2 is not None:
            raise EncodingError(
                f"{self.opcode.name} is immediate-form; c2 is not allowed")

    def encode(self) -> int:
        c1_code = self.c1.encode5() if self.c1 is not None else 0
        if self.opcode.uses_immediate:
            return ALU_IMMEDIATE_LAYOUT.pack(
                opcode=int(self.opcode), container_1=c1_code,
                immediate=self.immediate)
        c2_code = self.c2.encode5() if self.c2 is not None else 0
        return ALU_TWO_OPERAND_LAYOUT.pack(
            opcode=int(self.opcode), container_1=c1_code,
            container_2=c2_code)

    @classmethod
    def decode(cls, word: int) -> "AluAction":
        if not word:
            return NOP_ACTION  # most slots of most instructions
        try:
            op = AluOp((word >> 21) & 0xF)
        except ValueError as exc:
            raise EncodingError(f"unknown ALU opcode in word {word:#x}") from exc
        if op.uses_immediate:
            f = ALU_IMMEDIATE_LAYOUT.unpack(word)
            c1 = ContainerRef.decode5(f["container_1"]) if op.needs_c1 else None
            return cls(opcode=op, c1=c1, immediate=f["immediate"])
        f = ALU_TWO_OPERAND_LAYOUT.unpack(word)
        if f["reserved"]:
            raise EncodingError(
                f"{op.name}: reserved bits must be zero, got {f['reserved']:#x}")
        c1 = ContainerRef.decode5(f["container_1"]) if op.needs_c1 else None
        c2 = ContainerRef.decode5(f["container_2"]) if op.needs_c2 else None
        return cls(opcode=op, c1=c1, c2=c2)


NOP_ACTION = AluAction()
#: A module name, not ``AluOp.NOP``: an enum member lookup on the class
#: costs more than the comparison, and every instruction built pays it
#: per slot.
_NOP = AluOp.NOP


class VliwInstruction:
    """25 ALU actions, one per container slot (flat index order)."""

    def __init__(self, actions: Optional[Sequence[AluAction]] = None):
        if actions is None:
            actions = [NOP_ACTION] * NUM_ALUS
        if len(actions) != NUM_ALUS:
            raise EncodingError(
                f"VLIW instruction needs {NUM_ALUS} actions, got {len(actions)}")
        #: Immutable: a decoded instruction is shared by every packet
        #: and compile that reads its row.
        self.actions: Tuple[AluAction, ...] = tuple(actions)
        self._non_nop: Tuple[Tuple[int, AluAction], ...] = tuple([
            (i, a) for i, a in enumerate(self.actions) if a.opcode != _NOP])

    @classmethod
    def from_sparse(cls, sparse: dict) -> "VliwInstruction":
        """Build from ``{flat_container_index: AluAction}``; rest NOP."""
        actions = [NOP_ACTION] * NUM_ALUS
        for flat, action in sparse.items():
            if not 0 <= flat < NUM_ALUS:
                raise EncodingError(f"ALU slot {flat} out of range")
            actions[flat] = action
        return cls(actions)

    def encode(self) -> int:
        return encode_vliw_entry([a.encode() for a in self.actions])

    @classmethod
    def decode(cls, word: int) -> "VliwInstruction":
        return cls([AluAction.decode(w) for w in decode_vliw_entry(word)])

    def non_nop(self) -> Tuple[Tuple[int, AluAction], ...]:
        """(slot, action) pairs of non-NOP actions, in slot order (built
        once, at construction)."""
        return self._non_nop

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VliwInstruction):
            return NotImplemented
        return self.actions == other.actions

    def __repr__(self) -> str:
        ops = [f"{i}:{a.opcode.name}" for i, a in self.non_nop()]
        return f"VliwInstruction({', '.join(ops) or 'all-NOP'})"
