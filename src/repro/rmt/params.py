"""Hardware parameters of the Menshen prototype (Table 5 of the paper).

:class:`HardwareParams` gathers every dimension of the design so that the
behavioral pipeline, the compiler's resource checker, the performance
model, and the area models all read from one source of truth. The
defaults reproduce the paper's prototype exactly; experiments that sweep
a dimension (e.g. the module-packing bench) construct modified copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, Tuple


@dataclass(frozen=True)
class HardwareParams:
    """Dimensions of a Menshen/RMT pipeline instance.

    Defaults are the prototype values from Table 5 and §4.1.
    """

    # --- PHV geometry ------------------------------------------------------
    containers_per_type: int = 8          #: 8 containers each of 2/4/6 bytes
    container_sizes: tuple = (2, 4, 6)    #: byte widths of the 3 types
    metadata_bytes: int = 32              #: platform metadata appended to PHV

    # --- parser / deparser ---------------------------------------------------
    parse_actions_per_entry: int = 10     #: max containers parsed per module
    parse_action_bits: int = 16
    parser_table_depth: int = 32          #: max modules (overlay depth)
    parse_window_bytes: int = 128         #: parseable prefix of the packet

    # --- key extraction -------------------------------------------------------
    key_containers_per_type: int = 2      #: 2 each of 2B/4B/6B in the key
    key_extractor_entry_bits: int = 38
    key_extractor_depth: int = 32
    key_mask_depth: int = 32

    # --- match-action ----------------------------------------------------------
    match_entries_per_stage: int = 16     #: CAM depth per stage
    vliw_entries_per_stage: int = 16      #: action table depth per stage
    alu_action_bits: int = 25

    # --- stateful memory ---------------------------------------------------
    segment_table_depth: int = 32
    segment_entry_bits: int = 16
    stateful_words_per_stage: int = 256   #: 8-bit offset/range => <=256 words
    stateful_word_bits: int = 32

    # --- pipeline ------------------------------------------------------------
    num_stages: int = 5
    module_id_bits: int = 12              #: VLAN ID width

    # --- platform timing (used by repro.sim; not by the behavioral model) ---
    clock_mhz: float = 250.0
    bus_width_bits: int = 512

    # ------------------------------------------------------------------ derived

    @property
    def num_containers(self) -> int:
        """Total PHV containers: 3*8 data + 1 metadata = 25."""
        return len(self.container_sizes) * self.containers_per_type + 1

    @property
    def phv_bytes(self) -> int:
        """Total PHV width in bytes (128 for the prototype)."""
        data = sum(self.container_sizes) * self.containers_per_type
        return data + self.metadata_bytes

    @property
    def key_bytes(self) -> int:
        """Raw key bytes before the predicate flag (24 for the prototype)."""
        return sum(self.container_sizes) * self.key_containers_per_type

    @property
    def key_bits(self) -> int:
        """Key width incl. the 1-bit predicate flag (193)."""
        return self.key_bytes * 8 + 1

    @property
    def cam_entry_bits(self) -> int:
        """CAM word: key + module ID (205)."""
        return self.key_bits + self.module_id_bits

    @property
    def parser_entry_bits(self) -> int:
        """Parser/deparser table entry width (160)."""
        return self.parse_actions_per_entry * self.parse_action_bits

    @property
    def vliw_entry_bits(self) -> int:
        """VLIW instruction width: one ALU action per container (625)."""
        return self.num_containers * self.alu_action_bits

    @cached_property
    def reconfig_entry_bytes(self) -> Tuple[int, ...]:
        """Payload bytes of a reconfiguration packet (Fig. 7), indexed
        by the 4-bit resource-type code
        (:class:`repro.core.reconfig.ResourceType`; code 0 is unused).
        Derived once per params object — the daisy chain reads it for
        every configuration write it frames or parses. Not a field, so
        equality, hashing and ``replace`` ignore it."""
        bits = (
            0,
            self.parser_entry_bits,            # 1 PARSER_TABLE
            self.parser_entry_bits,            # 2 DEPARSER_TABLE
            self.key_extractor_entry_bits,     # 3 KEY_EXTRACTOR
            self.key_bits,                     # 4 KEY_MASK
            self.cam_entry_bits,               # 5 CAM
            self.vliw_entry_bits,              # 6 VLIW
            self.segment_entry_bits,           # 7 SEGMENT
            0,                                 # 8 CAM_INVALIDATE
            self.stateful_word_bits,           # 9 STATEFUL_WORD
            2 * self.key_bits + self.module_id_bits,   # 10 TCAM
            self.vliw_entry_bits,              # 11 DEFAULT_VLIW
        )
        return tuple((width + 7) // 8 for width in bits)

    @property
    def max_modules(self) -> int:
        """Overlay depth bounds the number of concurrent modules (32)."""
        return min(self.parser_table_depth, self.key_extractor_depth,
                   self.key_mask_depth, self.segment_table_depth)

    @property
    def bus_bytes(self) -> int:
        return self.bus_width_bits // 8

    @property
    def clock_hz(self) -> float:
        return self.clock_mhz * 1e6

    # ------------------------------------------------------------------ misc

    def with_overrides(self, **kwargs) -> "HardwareParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def table_inventory(self) -> Dict[str, Dict[str, int]]:
        """Width x depth of every configuration table, for area models.

        Returns ``{table: {"width_bits": w, "depth": d, "per_stage": 0/1}}``.
        """
        return {
            "parser_table": {
                "width_bits": self.parser_entry_bits,
                "depth": self.parser_table_depth, "per_stage": 0},
            "deparser_table": {
                "width_bits": self.parser_entry_bits,
                "depth": self.parser_table_depth, "per_stage": 0},
            "key_extractor_table": {
                "width_bits": self.key_extractor_entry_bits,
                "depth": self.key_extractor_depth, "per_stage": 1},
            "key_mask_table": {
                "width_bits": self.key_bits,
                "depth": self.key_mask_depth, "per_stage": 1},
            "exact_match_cam": {
                "width_bits": self.cam_entry_bits,
                "depth": self.match_entries_per_stage, "per_stage": 1},
            "vliw_action_table": {
                "width_bits": self.vliw_entry_bits,
                "depth": self.vliw_entries_per_stage, "per_stage": 1},
            "segment_table": {
                "width_bits": self.segment_entry_bits,
                "depth": self.segment_table_depth, "per_stage": 1},
            "stateful_memory": {
                "width_bits": self.stateful_word_bits,
                "depth": self.stateful_words_per_stage, "per_stage": 1},
        }


#: The paper's prototype configuration (Table 5), Corundum timing.
DEFAULT_PARAMS = HardwareParams()

#: NetFPGA SUME platform timing (§4.3): 256-bit AXI-S at 156.25 MHz.
NETFPGA_PARAMS = HardwareParams(clock_mhz=156.25, bus_width_bits=256)

#: Corundum NIC platform timing (§4.3): 512-bit AXI-S at 250 MHz.
CORUNDUM_PARAMS = HardwareParams(clock_mhz=250.0, bus_width_bits=512)
