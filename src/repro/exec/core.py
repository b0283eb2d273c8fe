"""The execution core: one engine-drain / departure-routing loop.

:class:`ExecutionCore` pushes packets through a switch's
:class:`~repro.engine.batch.BatchEngine`, drains its egress in the
scheduler's service order, and routes each departed packet (host-port
exit, downed-link loss, or cross-link hop to the neighbor's ingress).
It is parameterized by **topology** (an ordered set of members — a
whole :class:`~repro.fabric.topology.Fabric`) and has one timing
policy: a :class:`~repro.sim.kernel.Simulator`'s event list is the only
clock, the NS-2 shape where one event list drives every element.

An uncontended hop is one kernel event. A packet enqueued on an idle
port starts transmitting at once
(:meth:`~repro.engine.scheduler.EgressScheduler.start`): its finish is
fixed, so a link hop is routed there and then and its arrival at the
neighbour scheduled, and a host exit gets one event that delivers it.
This holds only while nothing can change the outcome before the
finish: the port held nothing, no token bucket is configured, the link
is up, and no *control event* — the only kind that changes a fabric
during a run, scheduled through :meth:`ExecutionCore.schedule_control`
— is due first.

Such a hop crosses each layer boundary in one call, like a chain of
NS-2 connectors, each doing its own work and handing the packet to its
one target::

    inject ─ scheduler.idle_to(t)           the member's clock follows t
      └─ engine.process_batch([packet])     one filter look, then the
           │                                tenant's record, context,
           │                                buffer slot and epoch, once
           └─ pipeline.commit(..., record)  port check, then
                └─ scheduler.enqueue(...)   one PIFO push: STFQ rank,
                                            the tenant's books
    inject ─ scheduler.start(...)           the lone packet is served
    inject ─ route(...)                     deliver, or schedule the
                                            neighbour's arrival

The rare paths stay calls: a reconfiguration packet or an early drop
(``MenshenPipeline._early``), a multicast group, a backlogged port, a
downed link, a token bucket. :meth:`ExecutionCore.route` is the one
routing function of this start path and of the service path, and
holds the forwarding-loop guard.

A port with a backlog is served exactly and event-driven instead, from
:meth:`~repro.engine.scheduler.EgressScheduler.next_departures`, and an
arrival polls its member's scheduler only when that has backlog.
Frontends (:class:`repro.sim.fabric_timeline.FabricTimelineExperiment`)
feed arrivals in with :meth:`ExecutionCore.inject` and observe outcomes
through an :class:`ExecutionSink`. This is the only code that drives an
egress clock (``advance_to`` / ``idle_to`` / ``next_departures`` /
``start``); the single-switch Fig. 10 experiment is a one-switch fabric
on the same timeline.

A *member* is anything with the fabric-switch surface: ``name``,
``engine`` (``process_batch``), ``scheduler`` (``idle_to`` /
``advance_to`` / ``next_departures`` / ``start`` / ``service_at``),
``links`` (port -> link; absent ports face hosts), ``num_ports``, and
optionally ``up`` (absent: always serving). A *link* needs ``up``,
``name``, ``delay_s``, ``record(vid, nbytes)``, and ``other_end(name)``.

A forwarding loop cannot spin the event list forever: a loop-free route
visits each member once, so it crosses at most ``members − 1`` links.
A run whose link crossings outnumber ``(members − 1) ×`` the packets
injected from outside has a cycle, and the crossing past that bound
raises :class:`~repro.errors.FabricError`.

``tests/test_fabric_differential.py`` pins the core packet for packet
to a plain switch and to hand-chained engines.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from math import inf
from typing import List, Sequence

from ..core.packet_filter import tagged_vid
from ..errors import FabricError
from ..net.packet import Packet


def vid_of(packet: Packet) -> int:
    """Owner VID from the 802.1Q tag; 0 — the system VID, which no
    tenant carries — for a frame the packet filter calls untagged."""
    return tagged_vid(packet) or 0


class ExecutionSink:
    """Result-shaping hooks; the default implementation observes nothing.

    Frontends subclass this to build their result objects (e.g.
    :class:`~repro.sim.fabric_timeline.FabricTimelineResult`) out of
    the core's uniform event stream. ``time`` is the virtual
    departure/delivery instant.
    """

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
    of members) with the run's :class:`~repro.sim.kernel.Simulator`,
    schedule :meth:`inject` calls (and let :meth:`route_departures` /
    :meth:`schedule_services` cascade), then ``sim.run()``.
    """

    def __init__(self, members: Sequence, sink: ExecutionSink, sim,
                 member_lookup=None):
        self._members = list(members)
        self._by_name = {member.name: member for member in self._members}
        #: optional typed-error lookup (``Fabric.switch`` raises
        #: TopologyError for unknown names; the default raises
        #: FabricError).
        self._lookup = member_lookup
        self.sink = sink
        self.sim = sim
        #: The forwarding-loop guard: links a loop-free route crosses at
        #: most, packets injected from outside (not relayed across a
        #: link), and link crossings so far.
        self._span = len(self._members) - 1
        self._sources = 0
        self._crossings = 0
        #: Times of the control events scheduled so far, ascending.
        self._controls: List[float] = []

    # -- construction -----------------------------------------------------------

    @classmethod
    def for_fabric(cls, fabric, sink: ExecutionSink,
                   sim) -> "ExecutionCore":
        """A core over every member of a :class:`~repro.fabric.
        topology.Fabric` (or anything with ``switches()``/``switch()``),
        in the fabric's insertion order."""
        return cls(fabric.switches(), sink, sim,
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

    # -- fault accounting ---------------------------------------------------------

    def report_fault_losses(self, member, dropped, time: float) -> int:
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

    # -- departure routing ---------------------------------------------------------

    def route(self, member, port: int, packet: Packet, vid: int,
              time: float, ahead: bool = False) -> None:
        """Route one packet whose transmission on ``port`` finishes at
        ``time`` — the one routing function of the service path
        (:meth:`route_departures`, at or after the finish) and the
        start path (:meth:`inject`, ``ahead`` of it, when the
        transmission starts).

        * no link on ``port`` → host exit: ``sink.on_deliver`` — by one
          event at ``time`` when routed ahead, else at once;
        * downed link → the packet is lost as on real hardware, but
          never silently: ``sink.on_lost`` (with the link name, the
          typed :class:`~repro.exec.records.LostRecord` key);
        * up link → a crossing. A crossing past ``(members − 1) ×`` the
          packets injected from outside is a forwarding loop:
          :class:`~repro.errors.FabricError`, naming the tenant and the
          switch it was leaving, and nothing is scheduled. Otherwise
          per-tenant link bytes are recorded, the packet's ingress port
          is rewritten to the remote end, and its arrival there is
          scheduled after the propagation delay.
        """
        link = member.links.get(port)
        sim = self.sim
        # delays below are clamped at 0 by comparison: min/max cost
        # about as much as a Python call
        if link is None:
            if ahead:
                delay = time - sim.now
                sim.schedule(delay if delay > 0.0 else 0.0,
                             self.sink.on_deliver, member.name, port, vid,
                             packet, time)
            else:
                self.sink.on_deliver(member.name, port, vid, packet, time)
            return
        if not link.up:
            self.sink.on_lost(member.name, port, vid, packet, link.name,
                              time)
            return
        remote = link.other_end(member.name)
        self._crossings += 1
        if self._crossings > self._span * self._sources:
            raise FabricError(
                f"forwarding loop: tenant {vid}'s packet leaving "
                f"{member.name!r} toward {remote.switch!r} is link "
                f"crossing {self._crossings}, but a loop-free route "
                f"crosses at most {self._span} links per injected "
                f"packet ({self._sources} injected)")
        link.record(vid, len(packet.buf))
        packet.ingress_port = remote.port
        arrive_at = time + link.delay_s
        delay = arrive_at - sim.now
        sim.schedule(delay if delay > 0.0 else 0.0, self._arrive,
                     remote.switch, packet, arrive_at)

    # -- event-driven service on the simulation kernel -----------------------------

    def schedule_control(self, at: float, fn, *args):
        """Schedule ``fn(*args)`` at ``at`` as a control event: one that
        may change the fabric (a link or switch state, a placement, an
        eviction, an update). Like every kernel event it cannot be
        cancelled.

        Every such change during a run must come through here, before
        any transmission it could overtake has started: a packet starts
        early (see :meth:`inject`) only if it finishes strictly before
        the first control time at or after its start. A control event
        at that very instant counts as pending, since it may not have
        run yet."""
        insort(self._controls, at)
        self.sim.schedule_at(at, fn, *args)

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
        """Route :class:`~repro.engine.scheduler.Departure` records,
        each through :meth:`route`."""
        for dep in departures:
            self.route(member, dep.port, dep.packet, dep.module_id,
                       dep.time)

    def _arrive(self, name: str, packet: Packet, t: float) -> None:
        """A routed packet reaches the far end of its link; the member
        is looked up now, not when the packet left."""
        # A relayed packet is no new source: undo the count inject makes.
        self._sources -= 1
        self.inject(self._by_name.get(name) or self.member(name), packet, t)

    def inject(self, member, packet: Packet, t: float) -> None:
        """One packet arrives at a member at virtual time ``t``: serve
        transmissions that complete before the arrival (a member with
        no backlog has none — its scheduler is only told the time), run
        the batched engine, then start and route the packet or
        (re)schedule the member's service events.

        A unicast packet enqueued on an idle port of an up link or a
        host port starts at once
        (:meth:`~repro.engine.scheduler.EgressScheduler.start`) when it
        finishes strictly before the first control event at or after
        now, and is routed there and then (:meth:`route`). Then no
        service event is scheduled: without token buckets nothing on
        the member's other ports changed, and they keep the events they
        hold. Anything else — a drop, a multicast group, a backlogged
        port, a downed link (so its losses stay in event order), a
        token bucket — waits for a service event.

        An arrival at a crashed member (the packet was in flight on the
        wire when the far end died) is lost at the member's
        ``switch:<name>`` pseudo-link — counted, never silently."""
        self._sources += 1
        if not getattr(member, "up", True):
            self.sink.on_lost(member.name, packet.ingress_port or 0,
                              vid_of(packet), packet,
                              f"switch:{member.name}", t)
            return
        scheduler = member.scheduler
        if not scheduler.idle_to(t):
            departures = scheduler.advance_to(t)
            if departures:
                self.route_departures(member, departures)
        (outcome,) = member.engine.process_batch([packet])
        if outcome.dropped:
            self.sink.on_drop(outcome.module_id)
        elif not outcome.mcast_group:
            port = outcome.egress_port
            link = member.links.get(port)
            if link is None or link.up:
                controls = self._controls
                due = bisect_left(controls, self.sim.now)
                departure = scheduler.start(
                    port, outcome.packet,
                    controls[due] if due < len(controls) else inf)
                if departure is not None:
                    self.route(member, port, departure.packet,
                               departure.module_id, departure.time, True)
                    return
        self.schedule_services(member, scheduler)
