"""Daisy-chain configuration bus (§3.1 "Secure reconfiguration", App. A).

Commercial programmable switches configure pipeline stages through a
daisy chain reachable only over PCIe — physically separating packet
processing (read-only access to configuration) from reconfiguration
(write access). This class models that chain: an ordered list of hops
(parser, stage 0..N-1, deparser); a reconfiguration packet travels hop
by hop and is picked up by the hop owning its resource ID. One packet
configures one entry, regardless of entry width — the property that
makes the daisy chain beat AXI-Lite for wide entries (Fig. 12).

Fault injection: ``drop_next(n)`` makes the chain silently lose the next
``n`` packets before they reach the pipeline, exercising the software's
counter-based detect-and-retry protocol.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ReconfigurationError
from ..net.packet import Packet
from ..rmt.params import DEFAULT_PARAMS, HardwareParams
from .packet_filter import PacketFilter
from .reconfig import ReconfigPayload, ResourceId, ResourceType, parse_reconfig_packet

#: A config sink applies one decoded write: ``sink(index, entry)``.
ConfigSink = Callable[[int, int], None]


class DaisyChain:
    """Ordered configuration hops with exactly-one-consumer delivery."""

    def __init__(self, packet_filter: Optional[PacketFilter] = None,
                 params: HardwareParams = DEFAULT_PARAMS):
        self.params = params
        self.packet_filter = packet_filter
        # hop order is informational (latency models); delivery is keyed.
        self._sinks: Dict[Tuple[ResourceType, int], ConfigSink] = {}
        self._hop_order: List[Tuple[ResourceType, int]] = []
        self.delivered = 0
        self.lost = 0
        self._drop_budget = 0

    def register(self, rtype: ResourceType, stage: int,
                 sink: ConfigSink) -> None:
        """Attach the sink handling ``(rtype, stage)`` writes."""
        key = (rtype, stage)
        if key in self._sinks:
            raise ReconfigurationError(
                f"duplicate daisy-chain hop for {rtype.name} stage {stage}")
        self._sinks[key] = sink
        self._hop_order.append(key)

    # -- fault injection -------------------------------------------------------

    def drop_next(self, count: int = 1) -> None:
        """Silently lose the next ``count`` packets (reliability tests)."""
        self._drop_budget += count

    # -- delivery -----------------------------------------------------------------

    def deliver(self, packet: Packet) -> Optional[ReconfigPayload]:
        """Push one reconfiguration packet down the chain.

        Returns the decoded payload on success, ``None`` if the packet
        was lost before reaching the pipeline (injected fault). The
        packet filter's counter increments only for packets that actually
        traverse the chain — exactly the signal the software polls to
        detect loss.
        """
        payload = self.accept(packet)
        if payload is not None:
            self.apply(payload)
        return payload

    def accept(self, packet: Packet) -> Optional[ReconfigPayload]:
        """First half of :meth:`deliver`: lose or decode the packet.

        Nothing is written yet, so a caller that must see the addressed
        row as it was *before* the write (the pipeline's tenant
        attribution) can look between this and :meth:`apply`.
        """
        if self._drop_budget > 0:
            self._drop_budget -= 1
            self.lost += 1
            return None
        payload = parse_reconfig_packet(packet, self.params)
        key = (payload.resource.rtype, payload.resource.stage)
        if key not in self._sinks:
            raise ReconfigurationError(
                f"no hop for {payload.resource.rtype.name} "
                f"stage {payload.resource.stage}")
        return payload

    def apply(self, payload: ReconfigPayload) -> None:
        """Second half of :meth:`deliver`: hand an accepted payload to
        the hop owning its resource and count the delivery."""
        sink = self._sinks[payload.resource.rtype, payload.resource.stage]
        sink(payload.index, payload.entry)
        self.delivered += 1
        if self.packet_filter is not None:
            self.packet_filter.count_reconfig_packet()

    def hops(self) -> List[Tuple[ResourceType, int]]:
        """Registered hops in registration (chain) order."""
        return list(self._hop_order)

    def hop_position(self, resource: ResourceId) -> int:
        """Index of the hop along the chain (for latency modeling)."""
        key = (resource.rtype, resource.stage)
        try:
            return self._hop_order.index(key)
        except ValueError as exc:
            raise ReconfigurationError(
                f"no hop for {resource.rtype.name} stage "
                f"{resource.stage}") from exc
