"""Software-to-hardware interface (§3.4).

Works like P4Runtime — modify entries, fetch statistics — plus Menshen's
extension: reconfiguring any hardware resource by serializing
configuration writes into reconfiguration packets and pushing them down
the daisy chain. The interface also models the *time* each operation
costs, with constants calibrated to the paper's Fig. 9/Fig. 12 scales,
so benchmarks can report configuration times comparable to the paper's.

It is also the one owner of the §4.1 drop window: every holder opens
and closes a counted hold on a VID (``update_window``). Holds nest: the
first open sets the update-bitmap bit and only the last close clears it.

Cost model (documented calibration):

* ``T_SW_PER_ENTRY``: software-stack overhead per entry operation
  (driver + packet construction), dominating Fig. 9 (~0.6 ms/entry).
* ``T_DAISY_PER_PACKET``: bus/chain transfer per reconfiguration packet,
  the Fig. 12 scale (~8 µs/packet).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from ..core.pipeline import MenshenPipeline
from ..core.reconfig import (
    ReconfigPayload,
    ResourceId,
    ResourceType,
    build_reconfig_packet,
)
from ..errors import ReconfigurationError

#: Software overhead per configuration write (seconds). Fig. 9 scale.
T_SW_PER_ENTRY = 0.6e-3
#: Daisy-chain transfer time per reconfiguration packet (seconds).
T_DAISY_PER_PACKET = 8e-6
#: Sends of one configuration write before it counts as lost for good.
MAX_WRITE_RETRIES = 8


@dataclass
class InterfaceStats:
    """Accounting of interface operations and modeled time."""

    packets_sent: int = 0
    packets_lost: int = 0
    register_reads: int = 0
    register_writes: int = 0
    modeled_time_s: float = 0.0


class SoftwareHardwareInterface:
    """The controller's handle on one Menshen pipeline."""

    def __init__(self, pipeline: MenshenPipeline):
        self.pipeline = pipeline
        self.stats = InterfaceStats()
        #: vid -> open §4.1 holds; a VID is present only while held
        self._holds: Dict[int, int] = {}

    # -- register file access (AXI-Lite path, §4.1) ----------------------------

    def read_reconfig_counter(self) -> int:
        self.stats.register_reads += 1
        return self.pipeline.packet_filter.read_counter()

    def set_module_updating(self, module_id: int) -> None:
        """Open one §4.1 hold on ``module_id``; the first sets its bit.

        A VID the bitmap cannot hold raises
        :class:`~repro.errors.ConfigError` before the count moves.
        """
        holds = self._holds.get(module_id, 0)
        if not holds:
            self.pipeline.packet_filter.set_module_updating(module_id)
            self.stats.register_writes += 1
        self._holds[module_id] = holds + 1

    def clear_module_updating(self, module_id: int) -> None:
        """Close one §4.1 hold on ``module_id``; the last clears its bit.

        Closing a hold that was never opened raises
        :class:`~repro.errors.ReconfigurationError`.
        """
        holds = self._holds.get(module_id, 0)
        if not holds:
            raise ReconfigurationError(
                f"module {module_id} has no open update window to close")
        if holds == 1:
            del self._holds[module_id]
            self.pipeline.packet_filter.clear_module_updating(module_id)
            self.stats.register_writes += 1
        else:
            self._holds[module_id] = holds - 1

    @contextlib.contextmanager
    def update_window(self, module_id: int) -> Iterator[None]:
        """Hold ``module_id``'s §4.1 drop window for the ``with`` body."""
        self.set_module_updating(module_id)
        try:
            yield
        finally:
            self.clear_module_updating(module_id)

    # -- configuration writes ---------------------------------------------------

    def write_config(self, resource: ResourceId, index: int,
                     entry: int) -> Optional[ReconfigPayload]:
        """Send one configuration write down the daisy chain.

        Returns the applied payload, or ``None`` if the chain lost the
        packet (detectable via the counter).
        """
        packet = build_reconfig_packet(resource, index, entry,
                                       self.pipeline.params)
        self.stats.packets_sent += 1
        self.stats.modeled_time_s += T_DAISY_PER_PACKET
        payload = self.pipeline.inject_reconfig(packet)
        if payload is None:
            self.stats.packets_lost += 1
        return payload

    def write_config_reliable(self, resource: ResourceId, index: int,
                              entry: int) -> None:
        """Write with loss detection and retry (the §4.1 counter protocol)."""
        for _attempt in range(MAX_WRITE_RETRIES):
            before = self.read_reconfig_counter()
            self.write_config(resource, index, entry)
            if self.read_reconfig_counter() != before:
                return
        raise ReconfigurationError(
            f"configuration write to {resource.rtype.name} stage "
            f"{resource.stage} index {index} kept getting lost after "
            f"{MAX_WRITE_RETRIES} attempts")

    def send_batch(self, writes: List) -> int:
        """Send ``(resource, index, entry)`` writes; returns delivered count.

        Models the batched delivery the controller's load protocol uses:
        the caller compares the counter delta with ``len(writes)`` to
        detect loss.
        """
        before = self.read_reconfig_counter()
        for resource, index, entry in writes:
            self.write_config(resource, index, entry)
        after = self.read_reconfig_counter()
        return (after - before) % (1 << 32)

    # -- per-entry operations (P4Runtime-like) ------------------------------------

    def add_match_entry(self, stage: int, cam_index: int, cam_word: int,
                        vliw_word: int) -> None:
        """Install one match-action entry: a CAM word and its VLIW word."""
        self.stats.modeled_time_s += T_SW_PER_ENTRY
        self.write_config_reliable(ResourceId.of(ResourceType.CAM, stage),
                                   cam_index, cam_word)
        self.write_config_reliable(ResourceId.of(ResourceType.VLIW, stage),
                                   cam_index, vliw_word)

    def add_ternary_entry(self, stage: int, index: int,
                          tcam_word: int, vliw_word: int) -> None:
        """Install one ternary entry (Appendix B) and its VLIW word."""
        self.stats.modeled_time_s += T_SW_PER_ENTRY
        self.write_config_reliable(ResourceId.of(ResourceType.TCAM, stage),
                                   index, tcam_word)
        self.write_config_reliable(ResourceId.of(ResourceType.VLIW, stage),
                                   index, vliw_word)

    def delete_match_entry(self, stage: int, cam_index: int) -> None:
        self.stats.modeled_time_s += T_SW_PER_ENTRY
        self.write_config_reliable(
            ResourceId.of(ResourceType.CAM_INVALIDATE, stage), cam_index, 0)

    def write_stateful(self, stage: int, phys_addr: int, value: int) -> None:
        """Initialize one stateful word through the daisy chain."""
        self.write_config_reliable(
            ResourceId.of(ResourceType.STATEFUL_WORD, stage), phys_addr, value)
