"""Per-module overlay configuration tables (§3, Table 1).

An overlay table is Menshen's central primitive for sharing a scarce
hardware unit (parser, key extractor, key mask, segment table) across
modules: instead of one configuration for the whole unit, the table holds
one configuration *per module*, indexed by the packet's module ID at
runtime — the embedded-systems "overlay" idea applied to a pipeline.

:class:`OverlayTable` extends the plain config array with:

* a module-indexed read path (``lookup``),
* a write log proving the *no-disruption* property — every
  reconfiguration touches exactly one module's row, and tests can assert
  that rows of other modules were never written.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from ..errors import ConfigError
from ..rmt.config_table import ConfigTable


class OverlayTable(ConfigTable):
    """A config table whose index *is* the module ID."""

    def __init__(self, name: str, width_bits: int, depth: int,
                 decode: Optional[Callable[[int], Any]] = None):
        super().__init__(name, width_bits, depth, decode)
        #: (module_id, value) tuples, in write order.
        self.write_log: List[Tuple[int, int]] = []

    def lookup(self, module_id: int) -> int:
        """Data-plane read of the module's configuration row.

        Raises :class:`~repro.errors.ConfigError` when the module ID
        exceeds the table depth — the hardware analogue is that such a
        module simply cannot exist on this pipeline.
        """
        if not 0 <= module_id < self.depth:
            raise ConfigError(
                f"{self.name}: module id {module_id} exceeds overlay depth "
                f"{self.depth}")
        return self.read(module_id)

    def write(self, index: int, value: int) -> None:
        super().write(index, value)
        self.write_log.append((index, value))

    def modules_written_since(self, mark: int) -> set:
        """Module rows written at or after write-log position ``mark``.

        Used by tests to assert the no-disruption invariant: during a
        reconfiguration of module *M*, this set must equal ``{M}``.
        """
        return {module_id for module_id, _ in self.write_log[mark:]}

    @property
    def log_position(self) -> int:
        return len(self.write_log)
