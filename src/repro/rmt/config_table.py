"""Generic width-checked configuration array.

Every programmable element in the pipeline reads its configuration from a
table of fixed-width words. :class:`ConfigTable` is the plain RMT storage
(one or few entries); :class:`repro.core.overlay.OverlayTable` wraps it
with Menshen's per-module indexing and isolation bookkeeping.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from ..bits import check_fits
from ..errors import ConfigError


class ConfigTable:
    """A fixed-depth array of fixed-width configuration words.

    Parameters
    ----------
    name:
        Human-readable identifier used in error messages and stats.
    width_bits:
        Bit width of each entry; writes are validated against it.
    depth:
        Number of entries.
    decode:
        Turns a row's word into the object its consumer works with (a
        parse program, a :class:`~repro.rmt.action.VliwInstruction`, …);
        tables whose word *is* the value (key masks) pass none.

    The words are the only state. :meth:`read_decoded` is a view of
    them: each row remembers the last word it decoded and the result,
    and answers from that only while the row still holds that word.
    Nothing is decoded at a write, so any word of the right width is
    accepted and a malformed one raises where it is read.
    """

    def __init__(self, name: str, width_bits: int, depth: int,
                 decode: Optional[Callable[[int], Any]] = None):
        if depth <= 0:
            raise ConfigError(f"{name}: depth must be positive, got {depth}")
        if width_bits <= 0:
            raise ConfigError(f"{name}: width must be positive, got {width_bits}")
        self.name = name
        self.width_bits = width_bits
        self.depth = depth
        self._entries: List[int] = [0] * depth
        self.decode = decode
        self._decoded: List[Optional[Tuple[int, Any]]] = [None] * depth

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.depth:
            raise ConfigError(
                f"{self.name}: index {index} out of range [0, {self.depth})")

    def read(self, index: int) -> int:
        """Read the entry at ``index``."""
        self._check_index(index)
        return self._entries[index]

    def read_decoded(self, index: int) -> Any:
        """The entry at ``index`` as its consumer's object, decoded on
        the first read of each word the row holds. Callers share the
        result and must not mutate it; a word that fails to decode
        raises on every read."""
        if not 0 <= index < self.depth:
            self._check_index(index)  # raises
        word = self._entries[index]
        cached = self._decoded[index]
        if cached is not None and cached[0] == word:
            return cached[1]
        if self.decode is None:
            raise ConfigError(f"{self.name}: table has no row decoder")
        decoded = self.decode(word)
        self._decoded[index] = (word, decoded)
        return decoded

    def write(self, index: int, value: int) -> None:
        """Write ``value`` at ``index`` (validates width)."""
        self._check_index(index)
        try:
            check_fits(value, self.width_bits, f"{self.name}[{index}]")
        except Exception as exc:
            raise ConfigError(str(exc)) from exc
        self._entries[index] = value

    def clear(self, index: int) -> None:
        """Zero the entry at ``index``."""
        self.write(index, 0)

    def snapshot(self) -> List[int]:
        """Copy of all entries (for tests and state diffing)."""
        return list(self._entries)

    def __len__(self) -> int:
        return self.depth

    def __repr__(self) -> str:
        return (f"ConfigTable({self.name!r}, width={self.width_bits}, "
                f"depth={self.depth})")
