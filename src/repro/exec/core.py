"""The unified execution core: one engine-drain / departure-routing loop.

Both fabric serving frontends share one inner loop — push packets
through a switch's :class:`~repro.engine.batch.BatchEngine`, drain its
egress in the scheduler's service order, and route each departed packet
(host-port exit, downed-link loss, or cross-link hop to the neighbor's
ingress):

* :func:`repro.fabric.forwarding.process_batch` — untimed waves;
* :class:`repro.sim.fabric_timeline.FabricTimelineExperiment` — exact
  event-driven service on :class:`repro.sim.kernel.Simulator`.

:class:`ExecutionCore` centralizes that loop, classic discrete-event-
harness style: it is parameterized by **topology** (an ordered set of
members — a whole :class:`~repro.fabric.topology.Fabric`) and by one
of two **timing policies**
(``sim=None`` runs untimed waves in service order; passing a
:class:`~repro.sim.kernel.Simulator` makes its event list the only
clock: exact event-driven service from
:meth:`~repro.engine.scheduler.EgressScheduler.next_departures` — an
uncontended hop is one enqueue, one service and two events, and an
arrival polls its member's scheduler only when that has backlog).
Frontends shrink to result shaping: they feed arrivals in and observe
outcomes through an :class:`ExecutionSink`. This is the only code that
drives an egress clock (``advance_to`` / ``idle_to`` /
``next_departures``); the single-switch Fig. 10 experiment is a
one-switch fabric on the same timeline.

A *member* is anything with the fabric-switch surface: ``name``,
``engine`` (``process_batch``), ``scheduler`` (drain / ``idle_to`` /
``advance_to`` / ``next_departures`` / ``service_at``), ``links``
(port -> link; absent ports face hosts), ``num_ports``. A *link* needs
``up``, ``name``, ``delay_s``, ``record(vid, nbytes)``, and
``other_end(name)``.

The equivalence contract is strict: both frontends are pinned packet
for packet by ``tests/test_fabric_differential.py`` and
``tests/test_engine_differential.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.packet_filter import tagged_vid
from ..errors import FabricError
from ..net.packet import Packet


def vid_of(packet: Packet) -> int:
    """Owner VID from the 802.1Q tag; 0 — the system VID, which no
    tenant carries — for a frame the packet filter calls untagged."""
    return tagged_vid(packet) or 0


class ExecutionSink:
    """Result-shaping hooks; the default implementation observes nothing.

    Frontends subclass this to build their result objects
    (:class:`~repro.fabric.forwarding.FabricResult`,
    :class:`~repro.sim.fabric_timeline.FabricTimelineResult`) out of
    the core's uniform event stream.
    ``time`` is the virtual departure/delivery instant under a timed
    policy and ``0.0`` under waves.
    """

    def on_result(self, member: str, result) -> None:
        """One pipeline result from a member's engine, in serving order."""

    def on_drop(self, vid: int) -> None:
        """One packet dropped inside a member's pipeline."""

    def on_deliver(self, member: str, port: int, vid: int,
                   packet: Packet, time: float) -> None:
        """One packet exited the topology on a host port."""

    def on_lost(self, member: str, port: int, vid: int, packet: Packet,
                link: str, time: float) -> None:
        """One packet blackholed by a downed link."""


class ExecutionCore:
    """One run's engine-drain / departure-routing state machine.

    Construct per run (:meth:`for_fabric`, or directly over a sequence
    of members), then drive it with exactly one of two timing policies:

    * **untimed** — :meth:`run_waves` pushes arrival waves to exit in
      the schedulers' service order (``sim`` must be ``None``);
    * **event-driven** — construct with a
      :class:`~repro.sim.kernel.Simulator`, schedule
      :meth:`inject` calls (and let :meth:`route_departures` /
      :meth:`schedule_services` cascade), then ``sim.run()``.
    """

    def __init__(self, members: Sequence, sink: Optional[ExecutionSink] = None,
                 sim=None, member_lookup=None):
        self._members = list(members)
        self._by_name = {member.name: member for member in self._members}
        #: optional typed-error lookup (``Fabric.switch`` raises
        #: TopologyError for unknown names; the default raises
        #: FabricError).
        self._lookup = member_lookup
        self.sink = sink if sink is not None else ExecutionSink()
        self.sim = sim

    # -- construction -----------------------------------------------------------

    @classmethod
    def for_fabric(cls, fabric, sink: Optional[ExecutionSink] = None,
                   sim=None) -> "ExecutionCore":
        """A core over every member of a :class:`~repro.fabric.
        topology.Fabric` (or anything with ``switches()``/``switch()``),
        in the fabric's insertion order (the wave order)."""
        return cls(fabric.switches(), sink=sink, sim=sim,
                   member_lookup=fabric.switch)

    # -- topology ---------------------------------------------------------------

    def member(self, name: str):
        if self._lookup is not None:
            return self._lookup(name)
        member = self._by_name.get(name)
        if member is None:
            raise FabricError(
                f"no member {name!r} in execution core "
                f"(have: {sorted(self._by_name)})")
        return member

    def total_backlog(self) -> int:
        """Packets still queued across every member's scheduler."""
        return sum(member.scheduler.total_queued()
                   for member in self._members)

    @staticmethod
    def member_up(member) -> bool:
        """Whether a member is serving (members without an ``up`` flag
        always are)."""
        return bool(getattr(member, "up", True))

    # -- fault accounting ---------------------------------------------------------

    def report_fault_losses(self, member, dropped,
                            time: float = 0.0) -> int:
        """Report queue contents scrubbed by a fault through the sink's
        lost path.

        ``dropped`` is the ``(port, vid, packet)`` shape returned by
        :meth:`repro.fabric.topology.Fabric.crash_switch` /
        :meth:`~repro.engine.scheduler.EgressScheduler.drop_queued`.
        Each packet is charged to the link its port faces — the wire it
        was queued toward when the switch died — or to the pseudo-link
        ``switch:<name>`` for host-port queues, so crash losses land on
        the same typed :class:`~repro.exec.records.LostRecord` path as
        downed-link losses and every post-mortem reconciles against the
        same counters. Returns the number of packets reported.
        """
        for port, vid, packet in dropped:
            link = member.links.get(port)
            name = link.name if link is not None \
                else f"switch:{member.name}"
            self.sink.on_lost(member.name, port, vid, packet, name, time)
        return len(dropped)

    # -- departure routing (shared by every policy) ------------------------------

    def route(self, member, port: int, packet: Packet, vid: int,
              time: float = 0.0) -> Optional[Tuple[str, Packet, float]]:
        """Route one departed packet; the one decision every path shares.

        * no link on ``port`` → host exit: ``sink.on_deliver``, returns
          ``None``;
        * downed link → the packet is lost as on real hardware, but
          never silently: ``sink.on_lost`` (with the link name, so both
          serving paths report the same typed
          :class:`~repro.exec.records.LostRecord`), returns ``None``;
        * up link → per-tenant link bytes are recorded, the packet's
          ingress port is rewritten to the remote end, and
          ``(next member name, packet, arrival time)`` is returned for
          the caller's policy to enact (next wave, or a scheduled
          inject after the propagation delay).
        """
        link = member.links.get(port)
        if link is None:
            self.sink.on_deliver(member.name, port, vid, packet, time)
            return None
        if not link.up:
            self.sink.on_lost(member.name, port, vid, packet, link.name,
                              time)
            return None
        link.record(vid, len(packet))
        remote = link.other_end(member.name)
        packet.ingress_port = remote.port
        return (remote.switch, packet, time + link.delay_s)

    def _serve_batch(self, member, packets: Sequence[Packet]) -> List:
        """One member's engine pass, reported through the sink."""
        outcomes = member.engine.process_batch(packets)
        for outcome in outcomes:
            self.sink.on_result(member.name, outcome)
            if outcome.dropped:
                self.sink.on_drop(outcome.module_id)
        return outcomes

    # -- untimed policy: waves in service order ----------------------------------

    def run_waves(self, arrivals: Sequence[Tuple[str, Packet]],
                  max_hops: Optional[int] = None) -> int:
        """Drive ``(member name, packet)`` arrivals to exit; returns the
        number of forwarding waves the batch needed.

        ``max_hops`` bounds the wave count (default: number of members,
        the longest loop-free route); exceeding it raises
        :class:`~repro.errors.FabricError` instead of looping forever
        on a misconfigured forwarding cycle.
        """
        if max_hops is None:
            max_hops = max(1, len(self._members))
        waves = 0
        wave: List[Tuple[str, Packet]] = [(name, pkt)
                                          for name, pkt in arrivals]
        for _ in range(max_hops + 1):
            if not wave:
                break
            waves += 1
            # Group by member, preserving arrival order within each.
            by_member: Dict[str, List[Packet]] = {}
            for name, pkt in wave:
                self.member(name)  # typed error for unknown names
                by_member.setdefault(name, []).append(pkt)
            next_wave: List[Tuple[str, Packet]] = []
            # Wave order = member insertion order, deterministic.
            for member in self._members:
                pkts = by_member.get(member.name)
                if not pkts:
                    continue
                if not self.member_up(member):
                    # A crashed member serves nothing: arrivals die at
                    # its pseudo-link, never silently.
                    for pkt in pkts:
                        self.sink.on_lost(
                            member.name, pkt.ingress_port or 0,
                            vid_of(pkt), pkt,
                            f"switch:{member.name}", 0.0)
                    continue
                self._serve_batch(member, pkts)
                # Drain every port in weighted-fair service order.
                for port in range(member.num_ports):
                    for pkt in member.scheduler.drain(port):
                        target = self.route(member, port, pkt, vid_of(pkt))
                        if target is not None:
                            next_wave.append((target[0], target[1]))
            wave = next_wave
        else:
            raise FabricError(
                f"batch still in flight after {max_hops} hops — "
                f"forwarding loop? in-flight: "
                f"{[(name, vid_of(p)) for name, p in wave[:8]]}")
        return waves

    # -- event-driven policy: exact service on the simulation kernel -------------

    def schedule_services(self, member, scheduler) -> None:
        """Schedule each backlogged port's next service event exactly,
        from :meth:`~repro.engine.scheduler.EgressScheduler.
        next_departures` — transmission finish times are the event
        times, never a polling tick, and idle ports are not asked. A
        port holding an event at or before its finish
        (``scheduler.service_at``) gets no second one: the event list
        stays linear in departures, not scans. ``scheduler`` is
        ``member.scheduler``, resolved once by the calling event."""
        held = scheduler.service_at
        sim = self.sim
        for port, at in scheduler.next_departures():
            due = held[port]
            if due is not None and due <= at + 1e-15:
                continue
            held[port] = at
            sim.schedule(max(0.0, at - sim.now),
                         self._service, member, port, at)

    def _service(self, member, port: int, t: float) -> None:
        scheduler = member.scheduler
        if scheduler.service_at[port] == t:
            scheduler.service_at[port] = None
        departures = scheduler.advance_to(t)
        if departures:
            self.route_departures(member, departures)
        self.schedule_services(member, scheduler)

    def route_departures(self, member, departures) -> None:
        """Route :class:`~repro.engine.scheduler.Departure` records —
        host exits deliver, downed links lose, up links schedule the
        arrival at the neighbor after the propagation delay."""
        for dep in departures:
            target = self.route(member, dep.port, dep.packet,
                                dep.module_id, dep.time)
            if target is None:
                continue
            name, packet, arrive_at = target
            if self.sim is None:
                raise FabricError(
                    f"packet crossed a link toward {name!r} but this "
                    f"core has no simulator; timed multi-hop routing "
                    f"needs ExecutionCore(..., sim=Simulator())")
            self.sim.schedule(max(0.0, arrive_at - self.sim.now),
                              self._arrive, name, packet, arrive_at)

    def _arrive(self, name: str, packet: Packet, t: float) -> None:
        """A routed packet reaches the far end of its link; the member
        is looked up now, not when the packet left."""
        self.inject(self.member(name), packet, t)

    def inject(self, member, packet: Packet, t: float) -> None:
        """One packet arrives at a member at virtual time ``t``: serve
        transmissions that complete before the arrival (a member with
        no backlog has none — its scheduler is only told the time), run
        the batched engine, then (re)schedule the member's service
        events.

        An arrival at a crashed member (the packet was in flight on the
        wire when the far end died) is lost at the member's
        ``switch:<name>`` pseudo-link — counted, never silently."""
        if not self.member_up(member):
            self.sink.on_lost(member.name, packet.ingress_port or 0,
                              vid_of(packet), packet,
                              f"switch:{member.name}", t)
            return
        scheduler = member.scheduler
        if not scheduler.idle_to(t):
            departures = scheduler.advance_to(t)
            if departures:
                self.route_departures(member, departures)
        self._serve_batch(member, [packet])
        self.schedule_services(member, scheduler)
