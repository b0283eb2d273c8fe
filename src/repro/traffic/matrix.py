"""Per-tenant traffic matrices: source→destination demand for fabrics.

A single-switch experiment offers load *to a pipeline*; a fabric
experiment offers load *between attachment points* — each tenant has
one or more (source host, destination host) demands with an offered
rate, and the fabric decides which switches and links the packets
cross. :class:`TrafficMatrix` is that demand description, decoupled
from any particular fabric: it knows hosts by ``(switch_name, port)``
and emits a deterministic, merged arrival schedule the fabric timeline
(:mod:`repro.sim.fabric_timeline`) replays.

Arrivals are evenly spaced per demand at a configurable sampling
``scale`` (one simulated packet stands for ``scale`` real packets),
phase-shifted per demand so same-rate demands interleave instead of
colliding, and sorted by time — bit-for-bit replayable with no RNG
involved. A one-switch fabric with one demand per module is the Fig. 10
experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Tuple

from ..errors import ConfigError
from ..net.packet import Packet

#: Wire bytes per packet beyond its buffer: 20 B of preamble and
#: inter-frame gap plus the 4 B FCS, which a packet buffer does not
#: carry. Not :data:`repro.sim.perf_model.L1_OVERHEAD_BYTES`, which is
#: 20: Fig. 11's throughput model charges preamble and gap only.
L1_OVERHEAD_BYTES = 24


@dataclass(frozen=True)
class HostRef:
    """One ``(switch, port)`` reference: a traffic matrix's attachment
    point. The fabric layer aliases this same class as
    ``repro.fabric.PortRef`` for link endpoints, so the two vocabularies
    compare and hash interchangeably."""

    switch: str
    port: int

    def __str__(self) -> str:
        return f"{self.switch}:{self.port}"


@dataclass(frozen=True)
class Demand:
    """One tenant's offered load between two attachment points."""

    vid: int
    src: HostRef
    dst: HostRef
    offered_bps: float
    packet_size: int
    #: Builds one packet of this demand (VLAN-tagged with ``vid``).
    make_packet: Callable[[], Packet]

    @property
    def offered_pps(self) -> float:
        return self.offered_bps / ((self.packet_size + L1_OVERHEAD_BYTES)
                                   * 8)


class TrafficMatrix:
    """A set of per-tenant source→destination demands."""

    def __init__(self) -> None:
        self.demands: List[Demand] = []

    def add(self, vid: int, src: Tuple[str, int], dst: Tuple[str, int],
            offered_bps: float, packet_size: int,
            make_packet: Callable[[], Packet]) -> Demand:
        """Add one demand; ``src``/``dst`` are ``(switch, port)`` pairs."""
        if offered_bps <= 0:
            raise ConfigError(
                f"demand rate must be positive, got {offered_bps}")
        if packet_size <= 0:
            raise ConfigError(
                f"packet size must be positive, got {packet_size}")
        demand = Demand(vid=vid, src=HostRef(*src), dst=HostRef(*dst),
                        offered_bps=float(offered_bps),
                        packet_size=packet_size, make_packet=make_packet)
        self.demands.append(demand)
        return demand

    def offered_bps_by_vid(self) -> Dict[int, float]:
        """Total offered rate per tenant, summed over its demands."""
        totals: Dict[int, float] = {}
        for demand in self.demands:
            totals[demand.vid] = totals.get(demand.vid, 0.0) \
                + demand.offered_bps
        return totals

    def arrivals(self, duration_s: float,
                 scale: float = 1.0) -> List[Tuple[float, Demand]]:
        """Deterministic merged arrival schedule over ``duration_s``.

        One simulated packet stands for ``scale`` real packets, so the
        schedule length shrinks by ``scale`` while rate *ratios* (the
        thing isolation assertions measure) are preserved exactly.
        """
        if duration_s <= 0:
            raise ConfigError(
                f"duration must be positive, got {duration_s}")
        if scale <= 0:
            raise ConfigError(f"scale must be positive, got {scale}")
        arrivals: List[Tuple[float, Demand]] = []
        for i, demand in enumerate(self.demands):
            pps = demand.offered_pps / scale
            if pps <= 0:
                continue
            gap = 1.0 / pps
            phase = gap * (i + 1) / (len(self.demands) + 1)
            t = phase
            while t < duration_s:
                arrivals.append((t, demand))
                t += gap
        arrivals.sort(key=itemgetter(0))
        return arrivals
