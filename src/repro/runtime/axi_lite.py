"""AXI-Lite configuration model (Appendix A).

Before settling on the daisy chain, the authors considered configuring
everything over AXI-Lite from the host: one AXI-L write moves 32 bits,
so a 625-bit VLIW entry costs ceil(625/32) = 20 writes and a 205-bit CAM
entry ceil(205/32) = 7 writes, versus **one** reconfiguration packet per
entry on the daisy chain. Fig. 12 compares the two; this model
reproduces it with a calibrated per-write cost.

Calibration: the paper estimates AXI-L time from a single measured write.
``T_AXI_WRITE`` is chosen so 16 VLIW entries x 20 writes land on the
Fig. 12 scale (~1.3 ms per stage's VLIW table).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..rmt.params import DEFAULT_PARAMS, HardwareParams

#: Seconds per 32-bit AXI-Lite write (calibrated, see module docstring).
T_AXI_WRITE = 4e-6
#: AXI-Lite data width in bits.
AXI_DATA_BITS = 32


@dataclass
class AxiLiteModel:
    """Cost model for fully-AXI-Lite configuration."""

    params: HardwareParams = DEFAULT_PARAMS
    t_write: float = T_AXI_WRITE

    def writes_per_entry(self, width_bits: int) -> int:
        """32-bit writes needed for one entry of the given width."""
        return (width_bits + AXI_DATA_BITS - 1) // AXI_DATA_BITS

    def config_time(self, width_bits: int, entries: int) -> float:
        """Seconds to configure ``entries`` rows of the given width."""
        return self.writes_per_entry(width_bits) * entries * self.t_write

    def per_stage_breakdown(self) -> Dict[str, float]:
        """Configuration time per resource of one full stage."""
        inv = self.params.table_inventory()
        out: Dict[str, float] = {}
        for name in ("key_extractor_table", "key_mask_table",
                     "exact_match_cam", "vliw_action_table",
                     "segment_table"):
            spec = inv[name]
            out[name] = self.config_time(spec["width_bits"], spec["depth"])
        return out


def fig12_series(params: HardwareParams = DEFAULT_PARAMS,
                 t_axi_write: float = T_AXI_WRITE,
                 t_daisy_packet: float = None) -> List[Dict[str, float]]:
    """The Fig. 12 comparison: per stage, VLIW table and CAM config time
    under AXI-Lite vs the daisy chain.

    Returns one record per (stage, resource) with both times in seconds.
    """
    from .interface import T_DAISY_PER_PACKET
    if t_daisy_packet is None:
        t_daisy_packet = T_DAISY_PER_PACKET
    axi = AxiLiteModel(params, t_axi_write)
    rows: List[Dict[str, float]] = []
    for stage in range(params.num_stages):
        for resource, width, entries in (
                ("vliw_action_table", params.vliw_entry_bits,
                 params.vliw_entries_per_stage),
                ("cam", params.cam_entry_bits,
                 params.match_entries_per_stage)):
            rows.append({
                "stage": stage,
                "resource": resource,
                "axi_lite_s": axi.config_time(width, entries),
                "daisy_chain_s": entries * t_daisy_packet,
                "axi_writes_per_entry": axi.writes_per_entry(width),
            })
    return rows
