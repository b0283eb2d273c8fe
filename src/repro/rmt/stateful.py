"""Per-stage stateful memory (§3.1).

A flat array of fixed-width words, physically shared by all modules and
space-partitioned between them by the segment table. This class only
implements the *physical* memory with bounds checks; the per-module
address translation (and the isolation guarantee) lives in
:class:`repro.core.segment_table.SegmentTable`.
"""

from __future__ import annotations

from typing import List

from ..errors import ConfigError, FieldRangeError
from .params import DEFAULT_PARAMS, HardwareParams


class StatefulMemory:
    """Word-addressed RAM with bounds and width checks."""

    def __init__(self, words: int = DEFAULT_PARAMS.stateful_words_per_stage,
                 word_bits: int = DEFAULT_PARAMS.stateful_word_bits):
        if words <= 0:
            raise ConfigError(f"memory size must be positive, got {words}")
        self.words = words
        self.word_bits = word_bits
        self._mem: List[int] = [0] * words
        self.read_count = 0
        self.write_count = 0

    @property
    def op_count(self) -> int:
        """Total reads + writes ever performed on this memory: a packet
        whose processing moved it had a stateful side effect."""
        return self.read_count + self.write_count

    def _check_addr(self, addr: int) -> None:
        if not 0 <= addr < self.words:
            raise FieldRangeError(
                f"physical address {addr} out of range [0, {self.words})")

    def read(self, addr: int) -> int:
        self._check_addr(addr)
        self.read_count += 1
        return self._mem[addr]

    def write(self, addr: int, value: int) -> None:
        self._check_addr(addr)
        if not 0 <= value < (1 << self.word_bits):
            raise FieldRangeError(
                f"value {value:#x} does not fit in {self.word_bits}-bit word")
        self._mem[addr] = value
        self.write_count += 1

    def load_add_store(self, addr: int) -> int:
        """The ``loadd`` primitive: read, add 1 (wrapping), write back.

        Returns the post-increment value.
        """
        value = (self.read(addr) + 1) % (1 << self.word_bits)
        self.write(addr, value)
        return value

    def fill(self, addr: int, count: int, value: int = 0) -> None:
        """Initialize ``count`` words starting at ``addr`` (control plane)."""
        for i in range(count):
            self.write(addr + i, value)

    def snapshot(self) -> List[int]:
        return list(self._mem)

    def region(self, base: int, length: int) -> List[int]:
        """Copy of ``length`` words starting at ``base`` (for tests)."""
        self._check_addr(base)
        if length < 0 or base + length > self.words:
            raise FieldRangeError(
                f"region [{base}, {base + length}) out of range")
        return self._mem[base:base + length]
