"""Key extractor and key mask (§3.1, Fig. 4).

Before each stage's match-table lookup, the key extractor assembles a
fixed 24-byte key from six PHV containers (two each of the 6/4/2-byte
types), evaluates one comparison predicate ``A OP B`` whose result
contributes a final flag bit (193 bits total), then ANDs the key with the
module's 193-bit mask so shorter keys match correctly.

Both the 38-bit extractor entries and the 193-bit masks are per-module
overlay state, one row per module ID; :meth:`KeyExtractor.extract` reads
each of the two rows once per packet.

Key layout (bit 0 is the LSB), the same word
:func:`~repro.rmt.encodings.encode_key` packs MSB-first::

    [192:145] 6B slot 1   [144:97] 6B slot 2   [96:65] 4B slot 1
    [64:33]   4B slot 2   [32:17]  2B slot 1   [16:1]  2B slot 2
    [0]       predicate flag

:meth:`KeyExtractor.extract` builds it by shift-or of the six container
values at offsets 145 / 97 / 65 / 33 / 17 / 1, with no per-slot width
check. That is exact because a PHV container never holds a value wider
than the container: :meth:`~repro.rmt.phv.PHV.set` rejects one,
:meth:`~repro.rmt.phv.PHV.set_wrapping` truncates, and the parser copies
exactly the container's byte width out of the packet. No slot can spill
into its neighbour, so the shift-or equals ``encode_key``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Tuple, Union

from ..errors import EncodingError
from .config_table import ConfigTable
from .encodings import (
    FULL_KEY_MASK,
    KEY_EXTRACT_LAYOUT,
    decode_cmp_operand,
    encode_cmp_operand,
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


_META = ContainerType.META

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
        if f["cmp_op"] >= len(CmpOp):     # codes 0..7 are defined
            raise EncodingError(
                f"unknown comparison opcode in word {word:#x}")
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

    def extract(self, phv: PHV, module_id: int) -> int:
        """Assemble, flag, and mask the 193-bit key for this packet (by
        shift-or; see the module docstring for why that is exact).

        The entry and the mask row are each read once. Both predicate
        operands are read whatever the opcode, ``DISABLED`` and
        ``ALWAYS`` included, and a metadata operand goes through
        :meth:`~repro.rmt.phv.PHV.get`, so it is a ``ConfigError`` under
        every opcode."""
        entry = self.extract_table.read_decoded(module_id)
        data = phv.data  # flat order: B6 from 16, B4 from 8, B2 from 0
        key = (data[16 + entry.idx_6b_1] << 145
               | data[16 + entry.idx_6b_2] << 97
               | data[8 + entry.idx_4b_1] << 65
               | data[8 + entry.idx_4b_2] << 33
               | data[entry.idx_2b_1] << 17 | data[entry.idx_2b_2] << 1)
        a, b = entry.cmp_a, entry.cmp_b
        if isinstance(a, ContainerRef):
            a = phv.get(a) if a.ctype is _META else data[a.flat_index]
        if isinstance(b, ContainerRef):
            b = phv.get(b) if b.ctype is _META else data[b.flat_index]
        if _CMP_EVALUATORS[entry.cmp_op](a, b):
            key |= 1
        masks = self.mask_table
        if not 0 <= module_id < masks.depth:
            masks._check_index(module_id)  # raises
        return key & masks._entries[module_id]


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
