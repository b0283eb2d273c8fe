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

from ..bits import check_fits
from ..errors import EncodingError
from .encodings import ALU_ACTION_BITS, NUM_ALUS, VLIW_ENTRY_BITS
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
        return self in _IMMEDIATE_CODES

    @property
    def is_stateful(self) -> bool:
        return self in _STATEFUL_CODES

    @property
    def writes_container(self) -> bool:
        """True if the op produces a value for the ALU's own container."""
        return self in _WRITES_CONTAINER_CODES

    @property
    def needs_c1(self) -> bool:
        return self in _NEEDS_C1_CODES

    @property
    def needs_c2(self) -> bool:
        return self in _NEEDS_C2_CODES


#: The opcode classes behind :class:`AluOp`'s properties, built once. An
#: ``AluOp`` and its plain ``int`` code hash alike, so the codecs look a
#: raw 4-bit code up in them directly.
_IMMEDIATE_CODES = frozenset({AluOp.ADDI, AluOp.SUBI, AluOp.SET, AluOp.LOAD,
                              AluOp.STORE, AluOp.LOADD, AluOp.PORT,
                              AluOp.MCAST})
_STATEFUL_CODES = frozenset({AluOp.LOAD, AluOp.STORE, AluOp.LOADD})
_WRITES_CONTAINER_CODES = frozenset({AluOp.ADD, AluOp.SUB, AluOp.ADDI,
                                     AluOp.SUBI, AluOp.SET, AluOp.LOAD,
                                     AluOp.LOADD})
_NEEDS_C1_CODES = frozenset({AluOp.ADD, AluOp.SUB, AluOp.ADDI, AluOp.SUBI,
                             AluOp.LOAD, AluOp.STORE, AluOp.LOADD, AluOp.PORT,
                             AluOp.MCAST})
_NEEDS_C2_CODES = frozenset({AluOp.ADD, AluOp.SUB})
#: The opcode of each 4-bit code, ``None`` past the last one (codes are
#: dense from 0).
_OPS_BY_CODE: Tuple[Optional[AluOp], ...] = tuple(
    AluOp(code) if code < len(AluOp) else None for code in range(16))


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
        """The 25-bit word, by shift-or: ``opcode`` at 21, ``c1`` at 16,
        then ``c2`` at 11 or the immediate at 0 (the two layouts in
        :mod:`~repro.rmt.encodings`). Construction validated every
        field, so no range check is repeated here."""
        word = self.opcode << 21
        if self.c1 is not None:
            word |= self.c1.encode5() << 16
        if self.opcode in _IMMEDIATE_CODES:
            return word | self.immediate
        if self.c2 is not None:
            word |= self.c2.encode5() << 11
        return word

    @classmethod
    def decode(cls, word: int) -> "AluAction":
        """Inverse of :meth:`encode`, with the errors of the declared
        layouts: an unknown opcode, a word wider than 25 bits, nonzero
        reserved bits, then a bad ``c1`` / ``c2`` container code."""
        if not word:
            return NOP_ACTION  # most slots of most instructions
        op = _OPS_BY_CODE[(word >> 21) & 0xF]
        if op is None:
            raise EncodingError(f"unknown ALU opcode in word {word:#x}")
        if type(word) is not int or word < 0 or word >> ALU_ACTION_BITS:
            check_fits(word, ALU_ACTION_BITS, "word")
        if op in _IMMEDIATE_CODES:
            c1 = (_container(word >> 16 & 0x1F) if op in _NEEDS_C1_CODES
                  else None)
            return cls(opcode=op, c1=c1, immediate=word & 0xFFFF)
        if word & 0x7FF:
            raise EncodingError(
                f"{op.name}: reserved bits must be zero, got {word & 0x7FF:#x}")
        c1 = _container(word >> 16 & 0x1F) if op in _NEEDS_C1_CODES else None
        c2 = _container(word >> 11 & 0x1F) if op in _NEEDS_C2_CODES else None
        return cls(opcode=op, c1=c1, c2=c2)


NOP_ACTION = AluAction()
#: A module name, not ``AluOp.NOP``: an enum member lookup on the class
#: costs more than the comparison, and every instruction built pays it
#: per slot.
_NOP = AluOp.NOP


#: The ``ContainerRef`` of each valid 5-bit operand code: 0..23 name the
#: 2/4/6-byte containers and 24 the metadata container.
_CONTAINER_REFS: Tuple[ContainerRef, ...] = tuple(
    ContainerRef.decode5(code) for code in range(25))


def _container(code: int) -> ContainerRef:
    if code < len(_CONTAINER_REFS):
        return _CONTAINER_REFS[code]
    return ContainerRef.decode5(code)   # raises its own error


#: A slot's shift in a VLIW word: slot 0 is the most significant.
_SLOT_SHIFTS = tuple(ALU_ACTION_BITS * (NUM_ALUS - 1 - slot)
                     for slot in range(NUM_ALUS))
_ALU_MASK = (1 << ALU_ACTION_BITS) - 1


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
        """The 625-bit word: the 25 action words shifted into their
        slots, slot 0 most significant (``encode_vliw_entry``'s order)."""
        word = 0
        for action in self.actions:
            word <<= ALU_ACTION_BITS
            if action is not NOP_ACTION:    # most slots; it encodes to 0
                word |= action.encode()
        return word

    @classmethod
    def decode(cls, word: int) -> "VliwInstruction":
        if type(word) is not int or word < 0 or word >> VLIW_ENTRY_BITS:
            check_fits(word, VLIW_ENTRY_BITS, "word")
        decode = AluAction.decode
        return cls([decode(slot) if (slot := word >> shift & _ALU_MASK)
                    else NOP_ACTION for shift in _SLOT_SHIFTS])

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
