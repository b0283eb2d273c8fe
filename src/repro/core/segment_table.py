"""Segment table: space partitioning of stateful memory (§3.1).

Each stage's stateful memory is shared by all modules. A module accesses
it with *per-module* addresses which the segment table translates to
physical addresses using the module's ``(offset, range)`` entry —
exactly like classic segmentation. An access at or beyond ``range``
raises :class:`~repro.errors.SegmentFaultError` instead of touching
another module's words; that fault is the isolation guarantee.

The paper contrasts this hardware segment table with NetVRM's page table
programmed in P4: Menshen keeps stage-1 stateful memory usable and
spends no match-action resources on translation.
"""

from __future__ import annotations

from ..errors import SegmentFaultError
from ..rmt.action_engine import StatefulAccess
from ..rmt.encodings import decode_segment_entry, encode_segment_entry
from ..rmt.stateful import StatefulMemory
from .overlay import OverlayTable


class SegmentTable:
    """Per-module (offset, range) entries over one stage's memory."""

    def __init__(self, name: str, depth: int = 32):
        self.table = OverlayTable(name, 16, depth,
                                  decode=decode_segment_entry)

    def set_segment(self, module_id: int, offset: int, range_: int) -> None:
        """Install a module's segment (control-plane path)."""
        self.table.write(module_id, encode_segment_entry(offset, range_))

    def write_word(self, module_id: int, word: int) -> None:
        """Raw 16-bit write (reconfiguration-packet path)."""
        self.table.write(module_id, word)

    def segment_of(self, module_id: int) -> tuple:
        """Return the module's ``(offset, range)``."""
        return self.table.read_decoded(module_id)

    def translate(self, module_id: int, addr: int) -> int:
        """Per-module address -> physical address, or fault.

        A module with range 0 has no stateful memory at all; any access
        faults.
        """
        offset, range_ = self.segment_of(module_id)
        if not 0 <= addr < range_:
            raise SegmentFaultError(
                f"{self.table.name}: module {module_id} address {addr} "
                f"outside its range {range_}")
        return offset + addr


class SegmentedAccess(StatefulAccess):
    """Stateful-memory adapter that routes through a segment table."""

    def __init__(self, memory: StatefulMemory, segment_table: SegmentTable):
        super().__init__(memory)
        self.segment_table = segment_table

    def translate(self, module_id: int, addr: int) -> int:
        return self.segment_table.translate(module_id, addr)
