"""One match-action stage (Fig. 4): key extraction, CAM lookup, VLIW
action execution, and stateful memory.

A stage owns its configuration tables. They are created through a
``table_factory`` so the same class serves both the baseline RMT (plain
single-entry :class:`~repro.rmt.config_table.ConfigTable`) and Menshen
(per-module overlay tables) — the stage logic itself is identical, which
is exactly the paper's point: isolation comes from the *configuration
storage*, not from different processing logic.
"""

from __future__ import annotations

from typing import Callable, Optional

from .action import VliwInstruction
from .action_engine import ActionEngine, StatefulAccess
from .config_table import ConfigTable
from .key_extractor import KeyExtractEntry, KeyExtractor
from .match_table import ExactMatchTable
from .params import DEFAULT_PARAMS, HardwareParams
from .phv import PHV
from .stateful import StatefulMemory

#: ``(name, width_bits, depth, decode=None) -> table``; the table classes
#: themselves are the factories in use.
TableFactory = Callable[..., ConfigTable]


class Stage:
    """A complete match-action stage.

    Parameters
    ----------
    index:
        Stage number (0-based), used in table names and resource IDs.
    params:
        Hardware dimensions.
    table_factory:
        Creates the stage's config tables; Menshen passes
        :class:`~repro.core.overlay.OverlayTable` here.
    config_depth:
        Depth of the per-module config tables (1 for baseline RMT,
        32 for Menshen).

    The stage starts with the identity :class:`StatefulAccess`; Menshen
    swaps in segment translation through :meth:`set_stateful_access`.
    """

    def __init__(self, index: int,
                 params: HardwareParams = DEFAULT_PARAMS,
                 table_factory: TableFactory = ConfigTable,
                 config_depth: Optional[int] = None,
                 match_mode: str = "exact",
                 enable_default_actions: bool = False):
        self.index = index
        self.params = params
        self.match_mode = match_mode
        self.enable_default_actions = enable_default_actions
        depth = config_depth if config_depth is not None else params.key_extractor_depth

        prefix = f"stage{index}"
        self.key_extract_table = table_factory(
            f"{prefix}.key_extractor", params.key_extractor_entry_bits, depth,
            decode=KeyExtractEntry.decode)
        self.key_mask_table = table_factory(
            f"{prefix}.key_mask", params.key_bits, depth)
        self.vliw_table = table_factory(
            f"{prefix}.vliw_action", params.vliw_entry_bits,
            params.vliw_entries_per_stage, decode=VliwInstruction.decode)
        # Extension beyond the paper's prototype: an optional per-module
        # default-action table executed on CAM miss (P4's
        # default_action). A zero word is all-NOPs, i.e. "no default".
        self.default_vliw_table: Optional[ConfigTable] = None
        if enable_default_actions:
            self.default_vliw_table = table_factory(
                f"{prefix}.default_vliw", params.vliw_entry_bits, depth,
                decode=VliwInstruction.decode)

        self.key_extractor = KeyExtractor(self.key_extract_table,
                                          self.key_mask_table, params)
        if match_mode == "exact":
            self.match_table = ExactMatchTable(
                params.match_entries_per_stage, params)
        elif match_mode == "ternary":
            # Appendix B: same CAM block in ternary mode; priority is
            # the entry address (contiguous per-module blocks).
            from .match_table import TernaryMatchTable
            self.match_table = TernaryMatchTable(
                params.match_entries_per_stage, params)
        else:
            from ..errors import ConfigError
            raise ConfigError(f"unknown match mode {match_mode!r}")
        self.stateful_memory = StatefulMemory(params.stateful_words_per_stage,
                                              params.stateful_word_bits)
        self.stateful_access = StatefulAccess(self.stateful_memory)
        self.engine = ActionEngine(self.stateful_access)

        self.packets_processed = 0
        self.misses = 0

    def set_stateful_access(self, access: StatefulAccess) -> None:
        """Swap the stateful-memory adapter (Menshen installs segment-table
        translation here) and rewire the action engine to it."""
        self.stateful_access = access
        self.engine = ActionEngine(access)

    # -- control plane --------------------------------------------------------

    def install_vliw(self, index: int, instruction: VliwInstruction) -> None:
        """Write a VLIW instruction at action-table address ``index``."""
        self.vliw_table.write(index, instruction.encode())

    def write_vliw_word(self, index: int, word: int) -> None:
        """Raw word write (reconfiguration-packet path)."""
        self.vliw_table.write(index, word)

    def default_action(self, module_id: int) -> Optional[VliwInstruction]:
        """The module's default instruction, or ``None`` when the stage
        has no default-action table or the module's row there is zero
        (all-NOPs, i.e. "no default")."""
        table = self.default_vliw_table
        if table is None or not table.read(module_id):
            return None
        return table.read_decoded(module_id)

    # -- data plane ------------------------------------------------------------

    def process(self, phv: PHV, module_id: int) -> PHV:
        """Run one PHV through this stage for ``module_id``.

        A CAM miss runs the module's :meth:`default_action` if it has
        one; otherwise it leaves the PHV unchanged.
        """
        self.packets_processed += 1
        key = self.key_extractor.extract(phv, module_id)
        hit = self.match_table.lookup(key, module_id)
        if hit is None:
            self.misses += 1
            default = self.default_action(module_id)
            if default is not None:
                return self.engine.execute(default, phv, module_id)
            return phv
        return self.engine.execute(
            self.vliw_table.read_decoded(hit), phv, module_id)
