"""Bit-level packing helpers.

Menshen's configuration entries are odd-width bit strings (16-bit parse
actions, 38-bit key-extractor entries, 193-bit masks, 205-bit CAM words,
625-bit VLIW instructions). This module provides a tiny, explicit toolkit
for assembling and disassembling such words as Python integers, plus a
:class:`BitField` descriptor table used by ``repro.rmt.encodings``.

Layouts are *declared* here, field by field, the way the paper draws
them; the encoders that run on every configuration write *shift*.
:class:`WordLayout` turns each declared field into an ``(offset, mask)``
pair once, at construction, and :meth:`WordLayout.pack` /
:meth:`~WordLayout.unpack` / :meth:`~WordLayout.repack`,
:func:`concat_fields` and :func:`split_fields` move every field by that
shift and mask behind one inline range test. The checked helpers
(:func:`check_fits`, :func:`set_bits`, :meth:`BitField.insert`) run only
for a value that fails the test, so every error and its message are the
ones they raise.

Conventions
-----------
* Words are unsigned Python ints; bit 0 is the least-significant bit.
* Fields are described by ``(offset, width)`` with ``offset`` counting
  from the LSB. Encoders validate ranges and raise
  :class:`~repro.errors.EncodingError` on overflow.
* ``to_bytes``/``from_bytes`` use big-endian byte order (network order),
  matching how entries ride inside reconfiguration-packet payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Tuple

from .errors import EncodingError


def mask(width: int) -> int:
    """Return a bit mask of ``width`` ones."""
    if width < 0:
        raise EncodingError(f"negative bit width: {width}")
    return (1 << width) - 1


def check_fits(value: int, width: int, name: str = "value") -> int:
    """Validate that ``value`` is an unsigned int fitting in ``width`` bits."""
    if not isinstance(value, int):
        raise EncodingError(f"{name} must be int, got {type(value).__name__}")
    if value < 0:
        raise EncodingError(f"{name} must be non-negative, got {value}")
    if value > mask(width):
        raise EncodingError(f"{name}={value:#x} does not fit in {width} bits")
    return value


def get_bits(word: int, offset: int, width: int) -> int:
    """Extract ``width`` bits of ``word`` starting at ``offset`` (LSB=0)."""
    return (word >> offset) & mask(width)


def set_bits(word: int, offset: int, width: int, value: int) -> int:
    """Return ``word`` with ``width`` bits at ``offset`` replaced by ``value``."""
    check_fits(value, width, "field value")
    cleared = word & ~(mask(width) << offset)
    return cleared | (value << offset)


def to_bytes(word: int, width_bits: int) -> bytes:
    """Serialize ``word`` to big-endian bytes, padded to whole bytes."""
    check_fits(word, width_bits, "word")
    nbytes = (width_bits + 7) // 8
    return word.to_bytes(nbytes, "big")


def from_bytes(data: bytes, width_bits: int) -> int:
    """Parse a big-endian byte string into an int, validating width."""
    word = int.from_bytes(data, "big")
    if word > mask(width_bits):
        raise EncodingError(
            f"byte string encodes {word.bit_length()} bits, "
            f"exceeding declared width {width_bits}"
        )
    return word


def concat_fields(fields: Iterable[Tuple[int, int]]) -> int:
    """Concatenate ``(value, width)`` pairs MSB-first into one word.

    The first pair ends up in the most-significant position, mirroring how
    the paper draws entry diagrams left-to-right (Fig. 7).
    """
    word = 0
    for value, width in fields:
        if type(value) is not int or value < 0 or width < 0 or value >> width:
            check_fits(value, width, "field")
        word = (word << width) | value
    return word


def split_fields(word: int, widths: Iterable[int]) -> List[int]:
    """Inverse of :func:`concat_fields`: split MSB-first by ``widths``."""
    widths = list(widths)
    total = sum(widths)
    if type(word) is not int or word < 0 or total < 0 or word >> total:
        check_fits(word, total, "word")
    out: List[int] = []
    remaining = total
    for width in widths:
        remaining -= width
        out.append((word >> remaining) & mask(width))
    return out


@dataclass(frozen=True)
class BitField:
    """A named field inside a fixed-width word (LSB offset + width)."""

    name: str
    offset: int
    width: int

    def extract(self, word: int) -> int:
        return get_bits(word, self.offset, self.width)

    def insert(self, word: int, value: int) -> int:
        try:
            return set_bits(word, self.offset, self.width, value)
        except EncodingError as exc:
            raise EncodingError(f"field {self.name!r}: {exc}") from exc


class WordLayout:
    """A fixed-width word with named bit fields.

    Layouts are declared MSB-first (the order the paper's figures use) and
    converted to LSB offsets internally::

        PARSE_ACTION = WordLayout(16, [
            ("reserved", 3), ("bytes_from_head", 7),
            ("container_type", 2), ("container_index", 3), ("valid", 1),
        ])
        word = PARSE_ACTION.pack(bytes_from_head=14, container_type=1,
                                 container_index=2, valid=1)
        fields = PARSE_ACTION.unpack(word)

    Each field's ``(offset, mask)`` is computed here, once; a value that
    is a plain ``int`` within its mask is shifted straight into place,
    and anything else goes through :meth:`BitField.insert`, which
    accepts an ``int`` subclass and raises for the rest.
    """

    def __init__(self, total_width: int, fields_msb_first: List[Tuple[str, int]]):
        declared = sum(width for _, width in fields_msb_first)
        if declared != total_width:
            raise EncodingError(
                f"layout declares {declared} bits but total width is {total_width}"
            )
        self.total_width = total_width
        self.fields: Dict[str, BitField] = {}
        self._slots: Dict[str, Tuple[int, int]] = {}
        offset = total_width
        for name, width in fields_msb_first:
            offset -= width
            if name in self.fields:
                raise EncodingError(f"duplicate field name {name!r}")
            self.fields[name] = BitField(name, offset, width)
            self._slots[name] = (offset, mask(width))

    def pack(self, **values: int) -> int:
        """Build a word from keyword field values; unset fields are 0."""
        word = 0
        slots = self._slots
        for name, value in values.items():
            slot = slots.get(name)
            if slot is None:
                raise EncodingError(f"unknown field {name!r}")
            if type(value) is int and 0 <= value <= slot[1]:
                word |= value << slot[0]
            else:
                word = self.fields[name].insert(word, value)
        return word

    def unpack(self, word: int) -> Dict[str, int]:
        """Split a word into a ``{field name: value}`` mapping."""
        if type(word) is not int or word < 0 or word >> self.total_width:
            check_fits(word, self.total_width, "word")
        return {name: (word >> offset) & fmask
                for name, (offset, fmask) in self._slots.items()}

    def repack(self, word: int, **updates: int) -> int:
        """Return ``word`` with the given fields replaced."""
        if type(word) is not int or word < 0 or word >> self.total_width:
            check_fits(word, self.total_width, "word")
        slots = self._slots
        for name, value in updates.items():
            slot = slots.get(name)
            if slot is None:
                raise EncodingError(f"unknown field {name!r}")
            offset, fmask = slot
            if type(value) is int and 0 <= value <= fmask:
                word = (word & ~(fmask << offset)) | (value << offset)
            else:
                word = self.fields[name].insert(word, value)
        return word

    def describe(self) -> Mapping[str, Tuple[int, int]]:
        """Return ``{name: (offset, width)}`` for documentation/tests."""
        return {n: (f.offset, f.width) for n, f in self.fields.items()}
