"""Key extractor and key mask (§3.1, Fig. 4).

Before each stage's match-table lookup, the key extractor assembles a
fixed 24-byte key from six PHV containers (two each of the 6/4/2-byte
types), evaluates one comparison predicate ``A OP B`` whose result
contributes a final flag bit (193 bits total), then ANDs the key with the
module's 193-bit mask so shorter keys match correctly.

Both the 38-bit extractor entries and the 193-bit masks are per-module
overlay state; the extractor only reads them via ``table.read(module_id)``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import Callable, Optional, Tuple, Union

from ..errors import EncodingError
from .config_table import ConfigTable
from .encodings import (
    FULL_KEY_MASK,
    KEY_EXTRACT_LAYOUT,
    decode_cmp_operand,
    encode_cmp_operand,
    encode_key,
)
from .params import DEFAULT_PARAMS, HardwareParams
from .phv import PHV, ContainerRef, ContainerType


class CmpOp(IntEnum):
    """4-bit comparison opcode for the key-extractor predicate."""

    DISABLED = 0  #: predicate bit is always 0 (module uses no conditional)
    EQ = 1
    NE = 2
    GT = 3
    LT = 4
    GE = 5
    LE = 6
    ALWAYS = 7    #: predicate bit is always 1

    def evaluate(self, a: int, b: int) -> bool:
        return _CMP_EVALUATORS[self](a, b)


#: Indexed by opcode value.
_CMP_EVALUATORS: Tuple[Callable[[int, int], bool], ...] = (
    lambda a, b: False,  # DISABLED
    operator.eq, operator.ne, operator.gt,
    operator.lt, operator.ge, operator.le,
    lambda a, b: True,   # ALWAYS
)


#: A comparison operand: a PHV container or a small immediate.
CmpOperand = Union[ContainerRef, int]


def _encode_operand(operand: CmpOperand) -> int:
    if isinstance(operand, ContainerRef):
        return encode_cmp_operand(True, operand.encode5())
    return encode_cmp_operand(False, operand)


def _decode_operand(code: int) -> CmpOperand:
    is_container, value = decode_cmp_operand(code)
    if is_container:
        return ContainerRef.decode5(value)
    return value


@dataclass(frozen=True)
class KeyExtractEntry:
    """Decoded 38-bit key-extractor entry.

    ``idx_*`` select which container of each type fills each key slot;
    the predicate compares ``cmp_a OP cmp_b``.
    """

    idx_6b_1: int = 0
    idx_6b_2: int = 0
    idx_4b_1: int = 0
    idx_4b_2: int = 0
    idx_2b_1: int = 0
    idx_2b_2: int = 0
    cmp_op: CmpOp = CmpOp.DISABLED
    cmp_a: CmpOperand = 0
    cmp_b: CmpOperand = 0

    @cached_property
    def key_refs(self) -> Tuple[ContainerRef, ...]:
        """The containers filling the six key slots, in key order."""
        return (ContainerRef(ContainerType.B6, self.idx_6b_1),
                ContainerRef(ContainerType.B6, self.idx_6b_2),
                ContainerRef(ContainerType.B4, self.idx_4b_1),
                ContainerRef(ContainerType.B4, self.idx_4b_2),
                ContainerRef(ContainerType.B2, self.idx_2b_1),
                ContainerRef(ContainerType.B2, self.idx_2b_2))

    def encode(self) -> int:
        return KEY_EXTRACT_LAYOUT.pack(
            idx_6b_1=self.idx_6b_1, idx_6b_2=self.idx_6b_2,
            idx_4b_1=self.idx_4b_1, idx_4b_2=self.idx_4b_2,
            idx_2b_1=self.idx_2b_1, idx_2b_2=self.idx_2b_2,
            cmp_op=int(self.cmp_op),
            cmp_a=_encode_operand(self.cmp_a),
            cmp_b=_encode_operand(self.cmp_b),
        )

    @classmethod
    def decode(cls, word: int) -> "KeyExtractEntry":
        f = KEY_EXTRACT_LAYOUT.unpack(word)
        return cls(
            idx_6b_1=f["idx_6b_1"], idx_6b_2=f["idx_6b_2"],
            idx_4b_1=f["idx_4b_1"], idx_4b_2=f["idx_4b_2"],
            idx_2b_1=f["idx_2b_1"], idx_2b_2=f["idx_2b_2"],
            cmp_op=CmpOp(f["cmp_op"]),
            cmp_a=_decode_operand(f["cmp_a"]),
            cmp_b=_decode_operand(f["cmp_b"]),
        )


class KeyExtractor:
    """Builds the masked 193-bit lookup key for one pipeline stage."""

    def __init__(self, extract_table: ConfigTable, mask_table: ConfigTable,
                 params: HardwareParams = DEFAULT_PARAMS):
        self.extract_table = extract_table
        self.mask_table = mask_table
        self.params = params

    def install(self, module_id: int, entry: KeyExtractEntry,
                mask: int = FULL_KEY_MASK) -> None:
        """Write a module's extractor entry and key mask."""
        self.extract_table.write(module_id, entry.encode())
        self.mask_table.write(module_id, mask)

    def read_entry(self, module_id: int) -> KeyExtractEntry:
        return self.extract_table.read_decoded(module_id)

    def read_mask(self, module_id: int) -> int:
        return self.mask_table.read(module_id)

    def _operand_value(self, phv: PHV, operand: CmpOperand) -> int:
        if isinstance(operand, ContainerRef):
            return phv.get(operand)
        return operand

    def evaluate_predicate(self, phv: PHV, entry: KeyExtractEntry) -> bool:
        """Evaluate the entry's ``A OP B`` predicate against the PHV."""
        a = self._operand_value(phv, entry.cmp_a)
        b = self._operand_value(phv, entry.cmp_b)
        return entry.cmp_op.evaluate(a, b)

    def extract(self, phv: PHV, module_id: int) -> int:
        """Assemble, flag, and mask the 193-bit key for this packet."""
        entry = self.read_entry(module_id)
        parts = [phv.get(ref) for ref in entry.key_refs]
        flag = 1 if self.evaluate_predicate(phv, entry) else 0
        key = encode_key(parts, flag)
        return key & self.read_mask(module_id)


def build_mask(use_6b: Tuple[bool, bool] = (False, False),
               use_4b: Tuple[bool, bool] = (False, False),
               use_2b: Tuple[bool, bool] = (False, False),
               use_flag: bool = False) -> int:
    """Construct a 193-bit key mask enabling the chosen slots.

    Slot order matches the key layout: 6B1|6B2|4B1|4B2|2B1|2B2|flag.
    """
    parts = []
    for used, width in zip(
            [use_6b[0], use_6b[1], use_4b[0], use_4b[1], use_2b[0], use_2b[1]],
            [48, 48, 32, 32, 16, 16]):
        parts.append(((1 << width) - 1 if used else 0, width))
    parts.append((1 if use_flag else 0, 1))
    from ..bits import concat_fields
    return concat_fields(parts)
