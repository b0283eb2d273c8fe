"""Egress scheduling: every Menshen pipeline's traffic manager (§3.5).

Per-port FIFO queues (:class:`~repro.rmt.traffic_manager.TrafficManager`)
let one bursty tenant starve the rest on a shared output link — an
isolation hole the paper explicitly points at PIFO ranking to close.
This module closes it:

* :class:`EgressScheduler` — the traffic manager a
  :class:`~repro.core.pipeline.MenshenPipeline` is built with, whose
  per-port queues are weighted-fair. Packets are tagged with
  Start-Time Fair Queueing ranks (:class:`~repro.rmt.pifo.StfqRanker`) at enqueue and
  served in rank order, exactly a PIFO: each tenant owns a FIFO, and
  because STFQ start tags are monotone within a tenant, the globally
  smallest rank is always some tenant's queue head — popping the
  minimum head is the PIFO pop. Among backlogged tenants the link
  divides in proportion to weight no matter how asymmetric the arrival
  pattern; within one tenant, packets leave in exactly arrival order,
  so scheduling reorders *across* tenants, never within one.
* :class:`TokenBucket` — per-tenant egress rate limiting. A tenant with
  a configured rate is served only while its bucket holds tokens; the
  scheduler's virtual clock (driven by transmission time at
  ``line_rate_bps``, or advanced explicitly via :meth:`advance_to`)
  refills buckets deterministically, so experiments replay bit-for-bit.
* :class:`Departure` records — every transmitted packet carries its
  departure timestamp, so the fabric timeline
  (:mod:`repro.sim.fabric_timeline`) can measure per-tenant latency
  under contention, not just throughput.
* Timed service costs what changed: :meth:`EgressScheduler.advance_to`
  visits backlogged ports only, an idle port's clock is worked out when
  read (:meth:`EgressScheduler.clock_of`), and a port remembers its
  last scheduling scan until something on it changes, so a query and
  the service that follows it choose once. A choice is committed once
  its transmission starts: a later arrival never overtakes it.
* :meth:`EgressScheduler.start` transmits a packet the moment it is
  enqueued on an idle port, so an event-driven caller can route it
  without holding a service event for a port with nothing to decide.
* Bulk service costs one sort, not one scan per packet:
  :meth:`~EgressScheduler.drain` and :meth:`~EgressScheduler.drain_bytes`
  serve a port none of whose queued tenants has a token bucket as one
  merge of its FIFOs by ``(rank, seq)`` (a committed choice first) —
  the order successive PIFO pops give, since every head is eligible —
  with the books of serving it packet by packet. A rate-limited
  tenant's eligibility moves with the clock, so while one is queued
  the port is served one decision at a time.

The scheduler writes its per-tenant books, queue-depth gauge included,
once per packet into the switch's tenant records
(:class:`~repro.core.stats.TenantRecord`) — the "real-time statistics"
surface the system-level module exposes to tenants (§3.3).

The scalar path and the batched engine commit into the same scheduler,
so both run on weighted-fair egress; ``Tenant.set_weight`` /
``Tenant.set_rate_limit`` configure it through the facade.
"""

from __future__ import annotations

from collections import deque
from math import inf, isfinite
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..core.stats import PipelineStats, TenantRecord
from ..errors import ConfigError
from ..net.packet import Packet
from ..rmt.pifo import StfqRanker


def check_positive(value: float, what: str) -> None:
    """A rate, weight or burst must be a positive, finite number: a NaN
    or infinite one would poison every clock it reaches."""
    if value <= 0 or not isfinite(value):
        raise ConfigError(f"{what} must be positive and finite, got {value}")


class TokenBucket:
    """A deterministic token bucket: ``rate`` bytes/s, ``burst`` bytes.

    Time is whatever clock the caller advances — the scheduler drives it
    from its virtual transmission clock, so refills replay exactly.
    """

    def __init__(self, rate_bytes_per_s: float,
                 burst_bytes: Optional[float] = None,
                 clock: float = 0.0):
        check_positive(rate_bytes_per_s, "rate")
        self.rate = float(rate_bytes_per_s)
        #: Default burst: one refill-second, floored at 1500 B (one MTU)
        #: so sub-MTU-per-second rates can still emit whole packets.
        self.burst = float(burst_bytes if burst_bytes is not None
                           else max(rate_bytes_per_s, 1500.0))
        check_positive(self.burst, "burst")
        self.tokens = self.burst
        self._last = clock

    def refill(self, now: float) -> None:
        if now > self._last:
            self.tokens = min(self.burst,
                              self.tokens + (now - self._last) * self.rate)
            self._last = now

    def eligible_at(self, nbytes: int, now: float) -> float:
        """Earliest time ``nbytes`` tokens are available (>= ``now``)."""
        self.refill(now)
        if self.tokens >= nbytes:
            return now
        return now + (nbytes - self.tokens) / self.rate

    def consume(self, nbytes: int, now: float) -> None:
        self.refill(now)
        self.tokens -= nbytes


class Departure:
    """One transmitted packet, for the timeline's latency bookkeeping."""

    __slots__ = ("packet", "port", "module_id", "time")

    def __init__(self, packet: Packet, port: int, module_id: int,
                 time: float):
        self.packet = packet
        self.port = port
        self.module_id = module_id
        self.time = time


class _PortState:
    """One output port: a ranker plus per-tenant FIFOs of tagged packets.

    Each FIFO entry is ``(rank, seq, packet)``; ``seq`` is a port-wide
    arrival counter so equal ranks stay FIFO-stable, like the hardware
    PIFO block. ``queued`` is the number of entries across all FIFOs,
    kept in step by the scheduler so the port's backlog is one read.

    ``idle_since`` is the scheduler's advance count when the port last
    emptied: an idle port's clock follows time only through advances
    made after that. ``chosen`` is the last scheduling scan's answer,
    ``(choice, finish time)``, kept until something that can move it
    happens to the port (``None``: scan again); with token buckets,
    which couple ports, it is kept only once committed. ``started``:
    an advance reached the choice's start, so its transmission is under
    way and the choice is committed — no enqueue, scan or configuration
    change replaces it; only serving it, or removing its packet (a
    purge of its tenant, a crash scrub), does.
    """

    __slots__ = ("ranker", "fifos", "seq", "queued", "idle_since",
                 "chosen", "started")

    def __init__(self, ranker: StfqRanker):
        self.ranker = ranker
        self.fifos: Dict[int, Deque[Tuple[float, int, Packet]]] = {}
        self.seq = 0
        self.queued = 0
        self.idle_since = 0
        self.chosen: Optional[Tuple[_Choice, float]] = None
        self.started = False

    def forget_scan(self) -> None:
        """Drop the remembered scan unless its transmission started."""
        if not self.started:
            self.chosen = None


#: ``(vid, rank, packet, serve_time)`` — one scheduling decision.
_Choice = Tuple[int, float, Packet, float]


class EgressScheduler:
    """Weighted-fair, rate-limited egress: a Menshen pipeline's TM.

    The FIFO :class:`~repro.rmt.traffic_manager.TrafficManager`'s
    queueing / multicast / telemetry surface, with ``enqueue`` ranking
    on the owning ``module_id``, plus the scheduling knobs:

    * :meth:`set_weight` — STFQ weight; backlogged tenants share each
      output port proportionally to their weights.
    * :meth:`set_rate_limit` — token-bucket cap on a tenant's egress
      rate, enforced against the virtual clock.
    * :meth:`drain_bytes` / :meth:`advance_to` — budgeted and timed
      service, returning per-tenant bytes / :class:`Departure` records.

    ``bytes_out`` counts at **dequeue** time: a queued packet has not
    been transmitted, and the system module's real-time statistics must
    not claim otherwise. Per-tenant books go into ``stats`` (a private
    :class:`~repro.core.stats.PipelineStats` when none is given), and
    ``enqueued`` / ``dequeued`` / ``dropped`` are sums over them.
    """

    def __init__(self, num_ports: int = 8,
                 weights: Optional[Dict[int, float]] = None,
                 queue_capacity: Optional[int] = None,
                 line_rate_bps: Optional[float] = None,
                 stats=None):
        if num_ports <= 0:
            raise ConfigError(f"need at least one port, got {num_ports}")
        if line_rate_bps is not None:
            check_positive(line_rate_bps, "line rate")
        self.num_ports = num_ports
        self.queue_capacity = queue_capacity
        self._line_rate_bps = line_rate_bps
        #: Per-port line-rate overrides (bps). A fabric wires ports to
        #: links of different capacities (host links vs spine links);
        #: ports without an override transmit at ``line_rate_bps``.
        self.port_rate_bps: Dict[int, float] = {}
        self._weights: Dict[int, float] = {}
        self._ports = [_PortState(StfqRanker({})) for _ in range(num_ports)]
        #: Ports with at least one queued packet. Timed service and the
        #: next-departure query walk this index (in ascending port
        #: order), never every port: an idle port has nothing to choose.
        self._backlogged: Set[int] = set()
        self._groups: Dict[int, List[int]] = {}
        self._buckets: Dict[int, TokenBucket] = {}
        self._stats = stats if stats is not None else PipelineStats()
        #: Per-port virtual clocks (seconds): output links transmit in
        #: parallel, so each advances by its own transmission times
        #: (when a line rate is set) and by :meth:`advance_to` / token
        #: waits otherwise. An idle port's entry lags: read a clock
        #: through :meth:`clock_of`.
        self.port_clock: List[float] = [0.0] * num_ports
        #: The latest instant an advance reached, and how many advances
        #: there were — what an idle port's clock is brought forward
        #: from when it next gets work (see :meth:`clock_of`).
        self._now = 0.0
        self._advances = 0
        #: Per port, the time of the service event an event-driven
        #: caller holds for it (``None``: none). The caller's slot: the
        #: scheduler only keeps it.
        self.service_at: List[Optional[float]] = [None] * num_ports
        #: (port, vid) -> head-packet seq already counted as throttled,
        #: so ``throttled_waits`` counts *packets* delayed by the rate
        #: limiter, not scheduler scans.
        self._throttle_marks: Dict[Tuple[int, int], int] = {}
        self.bytes_out: List[int] = [0] * num_ports
        for vid, weight in (weights or {}).items():
            self.set_weight(vid, weight)

    @property
    def clock(self) -> float:
        """The most advanced port clock (single-port experiments read
        this as *the* virtual time)."""
        return max(map(self.clock_of, range(self.num_ports)))

    def clock_of(self, port: int) -> float:
        """One port's virtual clock: where a backlogged port's next
        transmission may start; for an idle port, the latest instant
        reached by an advance (:meth:`advance_to`, :meth:`idle_to`)
        made since it emptied — worked out on this read, not by walking
        the ports on each advance (advances come in time order)."""
        self._check_port(port)
        state = self._ports[port]
        if state.queued or state.idle_since == self._advances:
            return self.port_clock[port]
        return max(self.port_clock[port], self._now)

    @property
    def line_rate_bps(self) -> Optional[float]:
        """The rate ports without an override transmit at (bps)."""
        return self._line_rate_bps

    @line_rate_bps.setter
    def line_rate_bps(self, rate_bps: Optional[float]) -> None:
        if rate_bps is not None:
            check_positive(rate_bps, "line rate")
        self._line_rate_bps = rate_bps
        self._forget_scans()

    def _forget_scans(self) -> None:
        for state in self._ports:
            state.forget_scan()

    # -- configuration -----------------------------------------------------------

    def set_weight(self, vid: int, weight: float) -> None:
        """Set one tenant's fair-share weight on every port."""
        check_positive(weight, f"tenant {vid}: weight")
        self._weights[vid] = float(weight)
        for port in self._ports:
            port.ranker.weights[vid] = float(weight)

    def weight_of(self, vid: int) -> float:
        return self._weights.get(vid, 1.0)

    def set_rate_limit(self, vid: int, rate_bytes_per_s: float,
                       burst_bytes: Optional[float] = None) -> None:
        """Cap one tenant's egress at ``rate_bytes_per_s``."""
        self._buckets[vid] = TokenBucket(rate_bytes_per_s, burst_bytes,
                                         clock=self.clock)
        self._forget_scans()

    def clear_rate_limit(self, vid: int) -> None:
        self._buckets.pop(vid, None)

    def purge(self, vid: int) -> List[Packet]:
        """Remove one tenant's queued packets and egress configuration.

        The lifecycle hook behind a live unload
        (:meth:`repro.api.Tenant.evict` calls it): an evicted tenant's
        backlog must not keep transmitting under a VID that no longer
        exists, and its weight, rate bucket, STFQ finish tags and
        counters must not leak to whoever is assigned the VID next (its
        record is retired: :meth:`~repro.core.stats.PipelineStats.
        retire`). Other tenants'
        ranks are untouched (virtual time only ever advances on
        dequeue), so purging a neighbor never reorders surviving
        traffic. Returns the packets that were dropped from the
        queues, in (port, arrival) order.
        """
        purged = [packet for _port, _vid, packet in self.drop_queued(vid)]
        for state in self._ports:
            state.ranker.weights.pop(vid, None)
        self._weights.pop(vid, None)
        self._buckets.pop(vid, None)
        self._stats.retire(vid)
        return purged

    def drop_queued(self, vid: Optional[int] = None,
                    port: Optional[int] = None
                    ) -> List[Tuple[int, int, Packet]]:
        """Scrub queued packets without transmitting them — every
        tenant's on every port (a crash), or only ``vid``'s and/or only
        ``port``'s.

        The data-plane reset behind :meth:`repro.fabric.topology.
        Fabric.crash_switch`, :meth:`purge`, and a recovery drain of a
        dead wire: the scope's queue contents, STFQ finish tags and
        throttle marks clear (a whole-port scrub also restarts the
        port's arrival sequence), so a restored switch cannot emit
        ghost departures for packets that died. Configuration survives
        — weights, rate buckets, port rates, and multicast groups are
        control-plane state a rebooted switch gets re-pushed — and
        every counter but the queue-depth gauge is left alone: losses
        are accounted by the caller on the unified lost-record path,
        not as queue-capacity drops. Returns the scrubbed
        ``(port, vid, packet)`` triples in (port, arrival) order.
        """
        if port is not None:
            self._check_port(port)
        dropped: List[Tuple[int, int, Packet]] = []
        for p in range(self.num_ports) if port is None else (port,):
            state = self._ports[p]
            scope = list(state.fifos) if vid is None else [vid]
            entries = []
            for v in scope:
                fifo = state.fifos.pop(v, None)
                if fifo:
                    entries.extend((seq, v, packet)
                                   for _rank, seq, packet in fifo)
                    self._stats.tenant(v).queue_depth -= len(fifo)
                self._throttle_marks.pop((p, v), None)
            if vid is None:
                state.ranker._last_finish.clear()
                state.seq = 0
            else:
                state.ranker._last_finish.pop(vid, None)
            if not entries:
                continue
            entries.sort()
            dropped.extend((p, v, packet) for _seq, v, packet in entries)
            state.queued -= len(entries)
            chosen = state.chosen
            if chosen is not None and chosen[0][0] in scope:
                state.chosen, state.started = None, False
            else:
                state.forget_scan()
            if not state.queued:
                self._backlogged.discard(p)
                state.idle_since = self._advances
        return dropped

    def rate_limit_of(self, vid: int) -> Optional[float]:
        bucket = self._buckets.get(vid)
        return bucket.rate if bucket is not None else None

    def set_port_rate(self, port: int, rate_bps: float) -> None:
        """Override one port's transmission rate (its link capacity)."""
        self._check_port(port)
        check_positive(rate_bps, f"port {port}: rate")
        self.port_rate_bps[port] = float(rate_bps)
        self._ports[port].forget_scan()

    def port_rate_of(self, port: int) -> Optional[float]:
        """The rate ``port`` transmits at (override or the line rate)."""
        self._check_port(port)
        return self.port_rate_bps.get(port, self.line_rate_bps)

    # -- multicast groups (TrafficManager-compatible) ---------------------------

    def set_mcast_group(self, group_id: int, ports: List[int]) -> None:
        if group_id == 0:
            raise ConfigError("multicast group 0 means 'unicast'; pick >= 1")
        for port in ports:
            self._check_port(port)
        self._groups[group_id] = list(ports)

    def mcast_ports(self, group_id: int) -> List[int]:
        return list(self._groups.get(group_id, []))

    # -- telemetry ---------------------------------------------------------------

    def tenant(self, vid: int) -> TenantRecord:
        """One tenant's live record (created at zero on first use)."""
        return self._stats.tenant(vid)

    @property
    def per_tenant(self) -> Dict[int, TenantRecord]:
        """vid -> tenant record (a purged VID has none)."""
        return self._stats.tenants

    # the scheduler's totals: sums over the records, retired ones too
    enqueued = property(lambda self: self._stats.total("enqueued"))
    dequeued = property(lambda self: self._stats.total("transmitted"))
    dropped = property(lambda self: self._stats.total("dropped"))

    def queue_len(self, port: int) -> int:
        self._check_port(port)
        return self._ports[port].queued

    def total_queued(self) -> int:
        return sum(self._ports[port].queued for port in self._backlogged)

    def queue_depth(self, vid: int) -> int:
        """Packets of one tenant currently queued, across all ports."""
        record = self._stats.tenants.get(vid)
        return record.queue_depth if record is not None else 0

    def transmitted_bytes(self, vid: int) -> int:
        return self.tenant(vid).transmitted_bytes

    # -- queueing ----------------------------------------------------------------

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.num_ports:
            raise ConfigError(
                f"port {port} out of range [0, {self.num_ports})")

    # The per-packet paths below (enqueue, _serve, start) keep their
    # books inline — idle-clock catch-up, scan forget, STFQ rank and
    # virtual-time advance, transmission time and the tenant record —
    # with the same arithmetic as the helpers the cold paths call
    # (clock_of, forget_scan, _tx_seconds, tenant) and as
    # StfqRanker.rank / on_dequeue, the rank computer's own statement of
    # the STFQ rules.

    def enqueue(self, packet: Packet, port: int, mcast_group: int = 0,
                module_id: int = 0,
                record: Optional[TenantRecord] = None) -> int:
        """Queue a packet for transmission; returns copies enqueued.

        Same contract as the FIFO traffic manager; ``module_id`` names
        the owning tenant for ranking, rate limiting, and telemetry,
        and ``record`` is its tenant record when the caller holds it
        (:meth:`~repro.core.pipeline.MenshenPipeline.commit` does). A
        unicast packet is one PIFO push — its STFQ rank, its place in
        its tenant's FIFO, the books — or, on a full queue, a counted
        drop; a multicast group pushes a copy per port.
        """
        if mcast_group:
            record = record or self.tenant(module_id)
            ports = self._groups.get(mcast_group)
            if not ports:
                record.dropped += 1
                return 0
            return sum([self.enqueue(packet.copy(), p, 0, module_id, record)
                        for p in ports])
        if not 0 <= port < self.num_ports:
            self._check_port(port)
        if record is None:
            record = self.tenant(module_id)
        state = self._ports[port]
        queued = state.queued
        if self.queue_capacity is not None and queued >= self.queue_capacity:
            record.dropped += 1
            return 0
        ranker = state.ranker
        last_finish = ranker._last_finish
        rank = ranker.virtual_time
        last = last_finish.get(module_id, 0.0)
        if last > rank:
            rank = last
        last_finish[module_id] = rank + len(packet.buf) / ranker.weights.get(
            module_id, ranker.default_weight)
        fifos = state.fifos
        fifo = fifos.get(module_id)
        if fifo is None:
            fifo = fifos[module_id] = deque()
        fifo.append((rank, state.seq, packet))
        state.seq += 1
        if not queued:
            # an idle port's clock follows the advances since it emptied
            if state.idle_since != self._advances \
                    and self._now > self.port_clock[port]:
                self.port_clock[port] = self._now
            self._backlogged.add(port)
        state.queued = queued + 1
        if not state.started:
            state.chosen = None
        record.enqueued += 1
        record.queue_depth += 1
        return 1

    # -- scheduling decisions -----------------------------------------------------

    def _tx_seconds(self, nbytes: int, port: int) -> float:
        rate = self.port_rate_bps.get(port, self._line_rate_bps)
        if rate is None:
            return 0.0
        return nbytes * 8.0 / rate

    def _choose(self, port: int, now: float) -> _Choice:
        """The next packet to serve on backlogged ``port`` at ``now``.

        PIFO pop with rate gating: among queue heads whose tenant has
        tokens, the smallest ``(rank, seq)``; throttled tenants are
        overtaken (work conservation). When *every* backlogged tenant is
        throttled, the choice is the head that becomes eligible first —
        its serve time is in the future, and serving it idles the link
        until then (that is how a rate cap below link speed actually
        caps throughput). Callers check the port's queued count first:
        an idle port has no choice to make. Mutates nothing but the
        ``throttled_waits`` telemetry (one count per delayed packet,
        deduplicated across scans via ``_throttle_marks``).
        """
        state = self._ports[port]
        best: Optional[Tuple[float, int, int, float]] = None  # rank,seq,vid,at
        waiting: Optional[Tuple[float, float, int, int]] = None  # at,rank,seq,vid
        for vid, fifo in state.fifos.items():
            rank, seq, packet = fifo[0]
            bucket = self._buckets.get(vid)
            at = now if bucket is None \
                else bucket.eligible_at(len(packet), now)
            if at <= now:
                if best is None or (rank, seq) < (best[0], best[1]):
                    best = (rank, seq, vid, at)
            else:
                if self._throttle_marks.get((port, vid)) != seq:
                    self._throttle_marks[(port, vid)] = seq
                    self.tenant(vid).throttled_waits += 1
                if waiting is None or (at, rank, seq) < waiting[:3]:
                    waiting = (at, rank, seq, vid)
        if best is not None:
            rank, _seq, vid, at = best
            return (vid, rank, state.fifos[vid][0][2], now)
        if waiting is None:
            raise ConfigError(f"port {port} has nothing queued")
        at, rank, _seq, vid = waiting
        return (vid, rank, state.fifos[vid][0][2], at)

    def _serve(self, choice: _Choice, port: int) -> Departure:
        vid, rank, packet, at = choice
        state = self._ports[port]
        fifos = state.fifos
        fifo = fifos[vid]
        fifo.popleft()
        if not fifo:
            del fifos[vid]
        queued = state.queued = state.queued - 1
        state.chosen, state.started = None, False
        if not queued:
            self._backlogged.discard(port)
            state.idle_since = self._advances
        ranker = state.ranker
        if rank > ranker.virtual_time:
            ranker.virtual_time = rank
        if self._throttle_marks:
            self._throttle_marks.pop((port, vid), None)
        nbytes = len(packet.buf)
        clock = self.port_clock[port]
        start = clock if clock > at else at
        bucket = self._buckets.get(vid)
        if bucket is not None:
            bucket.consume(nbytes, start)
        rate = self.port_rate_bps.get(port, self._line_rate_bps)
        finish = start + (0.0 if rate is None else nbytes * 8.0 / rate)
        self.port_clock[port] = finish
        self.bytes_out[port] += nbytes
        record = self._stats.tenants.get(vid) or self._stats.tenant(vid)
        record.transmitted += 1
        record.transmitted_bytes += nbytes
        record.queue_depth -= 1
        return Departure(packet, port, vid, finish)

    # -- service (TrafficManager-compatible + scheduled extensions) --------------

    def dequeue(self, port: int) -> Optional[Packet]:
        """Serve the next packet on ``port`` in weighted-fair order.

        Rate-limited tenants without tokens are overtaken by eligible
        ones; when every queued tenant is throttled, the link idles
        forward to the earliest eligibility, so rate caps hold even for
        drain-everything callers.
        """
        self._check_port(port)
        state = self._ports[port]
        if not state.queued:
            return None
        return self._serve(self._next_choice(port, state), port).packet

    def drain(self, port: int) -> List[Packet]:
        """Dequeue everything waiting on ``port``, in service order."""
        return self._serve_port(port, inf)[0]

    def drain_all(self) -> Dict[int, List[Packet]]:
        return {port: self.drain(port) for port in range(self.num_ports)}

    def drain_bytes(self, port: int, budget_bytes: int) -> Dict[int, int]:
        """Serve up to ``budget_bytes`` from a port; returns per-tenant
        bytes served — the measurement the fairness assertions use."""
        return self._serve_port(port, budget_bytes)[1]

    def _serve_port(self, port: int, budget: float
                    ) -> Tuple[List[Packet], Dict[int, int]]:
        """Serve ``port`` while it is backlogged and ``budget`` bytes
        remain, each packet as :meth:`dequeue` would; returns the packets
        in service order and per-tenant bytes, in first-service order.

        A committed choice goes first. Then, while a tenant queued here
        has a token bucket, one packet at a time: its eligibility moves
        with the clock. Once none has, the order is fixed and the rest
        is served in one merge (:meth:`_merge`)."""
        self._check_port(port)
        state = self._ports[port]
        packets: List[Packet] = []
        served: Dict[int, int] = {}
        buckets = self._buckets
        while state.queued and budget > 0:
            if state.started and state.chosen is not None:
                choice = state.chosen[0]
            elif buckets and not buckets.keys().isdisjoint(state.fifos):
                choice = self._choose(port, self.port_clock[port])
            else:
                self._merge(port, state, budget, packets, served)
                break
            departure = self._serve(choice, port)
            vid, size = departure.module_id, len(departure.packet.buf)
            packets.append(departure.packet)
            served[vid] = served.get(vid, 0) + size
            budget -= size
        return packets, served

    def _merge(self, port: int, state: _PortState, budget: float,
               packets: List[Packet], served: Dict[int, int]) -> None:
        """Serve ``port``, whose queued tenants have no token bucket and
        no committed choice, while ``budget`` bytes remain.

        Every head is eligible, so each pop takes the smallest ``(rank,
        seq)`` head; ranks do not decrease within a FIFO and ``seq`` is
        unique, so the pops are the sorted merge of the FIFOs, and each
        FIFO is served a prefix. The books are :meth:`_serve`'s, summed;
        the clock takes the same additions in service order."""
        fifos = state.fifos
        entries: List[Tuple[float, int, Packet]] = []
        for fifo in fifos.values():
            entries += fifo
        if len(fifos) > 1:
            entries.sort()
        if budget < inf:
            cut = 0
            for _rank, _seq, packet in entries:
                if budget <= 0:
                    break
                budget -= len(packet.buf)
                cut += 1
            del entries[cut:]
        last = entries[-1]
        rate = self.port_rate_bps.get(port, self._line_rate_bps)
        if rate is not None:
            clock = self.port_clock[port]
            for _rank, _seq, packet in entries:
                clock = clock + len(packet.buf) * 8.0 / rate
            self.port_clock[port] = clock
        stats, marks = self._stats, self._throttle_marks
        total = 0
        # tenants in first-service order: by their heads
        for vid in sorted(fifos, key=lambda vid: fifos[vid][0]):
            fifo = fifos[vid]
            if fifo[-1] <= last:
                count, nbytes = len(fifo), sum([len(packet.buf)
                                                for _r, _s, packet in fifo])
                del fifos[vid]
            elif fifo[0] <= last:
                count = nbytes = 0
                while fifo[0] <= last:
                    nbytes += len(fifo.popleft()[2].buf)
                    count += 1
            else:
                continue
            record = stats.tenants.get(vid) or stats.tenant(vid)
            record.transmitted += count
            record.transmitted_bytes += nbytes
            record.queue_depth -= count
            served[vid] = served.get(vid, 0) + nbytes
            total += nbytes
            if marks:
                marks.pop((port, vid), None)
        queued = state.queued = state.queued - len(entries)
        state.chosen, state.started = None, False
        if not queued:
            self._backlogged.discard(port)
            state.idle_since = self._advances
        ranker = state.ranker
        if last[0] > ranker.virtual_time:
            ranker.virtual_time = last[0]
        self.bytes_out[port] += total
        packets += [packet for _rank, _seq, packet in entries]

    def _next_choice(self, port: int, state: _PortState) -> _Choice:
        """The port's committed choice, or a fresh one at its clock."""
        chosen = state.chosen
        if state.started and chosen is not None:
            return chosen[0]
        return self._choose(port, self.port_clock[port])

    def _scan(self, port: int, state: _PortState) -> Tuple[_Choice, float]:
        """Choose on backlogged ``port`` at its clock; the choice and
        when that transmission finishes, remembered on the port."""
        clock = self.port_clock[port]
        choice = self._choose(port, clock)
        known = (choice, max(choice[3], clock)
                 + self._tx_seconds(len(choice[2]), port))
        if not self._buckets:
            state.chosen = known
        return known

    def next_departure_at(self, port: int) -> Optional[float]:
        """When the next packet on ``port`` would finish transmitting.

        ``None`` when the port is idle (answered from the port's queued
        count, without a scheduling scan); a backlogged port answers
        from the scan it remembers, or scans. This is the event-driven
        hook the fabric timeline (:mod:`repro.sim.fabric_timeline`)
        uses to schedule its next service event exactly, instead of
        polling the scheduler on a fixed tick. Pure query: mutates
        nothing but the ``throttled_waits`` telemetry (same caveat as
        scheduling scans).
        """
        self._check_port(port)
        state = self._ports[port]
        if not state.queued:
            return None
        return (state.chosen or self._scan(port, state))[1]

    def next_departures(self) -> List[Tuple[int, float]]:
        """``(port, next_departure_at(port))`` for every backlogged
        port, in ascending port order — idle ports are not visited.

        Every backlogged port answers, not only ports touched since the
        last call: token buckets are per tenant, so a service on one
        port moves that tenant's eligibility on another (which is why a
        port remembers only a committed scan while any bucket is
        configured).
        """
        ports, backlogged = self._ports, self._backlogged
        return [(port, known[1] if (known := ports[port].chosen)
                 else self.next_departure_at(port))
                for port in (sorted(backlogged) if len(backlogged) > 1
                             else backlogged)]

    def idle_to(self, now: float) -> bool:
        """Time reached ``now`` with nothing queued anywhere: ``True``,
        and every port's clock follows (:meth:`clock_of`) with no scan
        — what :meth:`advance_to` would have done. ``False``, and
        nothing done, when there is backlog to advance instead."""
        if self._backlogged:
            return False
        # _tick, inline: this runs once per arrival
        self._advances += 1
        if now > self._now:
            self._now = now
        for bucket in self._buckets.values():
            bucket.refill(now)
        return True

    def _tick(self, now: float) -> None:
        self._advances += 1
        if now > self._now:
            self._now = now
        for bucket in self._buckets.values():
            bucket.refill(now)

    def advance_to(self, now: float) -> List[Departure]:
        """Serve every packet whose transmission completes by ``now``.

        The timed entry point :class:`repro.exec.ExecutionCore` drives
        for the fabric timeline (nothing else in the library calls
        it, :meth:`idle_to` or :meth:`next_departures`): packets
        depart in scheduling order as each output link
        (``line_rate_bps``) transmits them — ports are independent
        links, so their clocks advance in parallel — and each
        :class:`Departure` carries its timestamp, so latency under
        contention is measurable. Without a line rate, everything
        eligible departs instantaneously. Departures are returned in
        timestamp order across ports. Only backlogged ports are
        scheduled (ascending port order), each from the scan it
        remembers when it has one; idle ports are not visited — their
        clocks follow ``now`` when read (:meth:`clock_of`).
        """
        departures: List[Departure] = []
        clocks, backlogged = self.port_clock, self._backlogged
        # (a copy: serving the last packet takes the port out of the set)
        for port in (sorted(backlogged) if len(backlogged) > 1
                     else tuple(backlogged)):
            if now < clocks[port]:
                continue
            state = self._ports[port]
            while state.queued:
                choice, finish = state.chosen or self._scan(port, state)
                if finish > now:
                    # The next transmission is committed to begin at
                    # its start (it finishes past ``now``); the port
                    # idles only up to that instant, never past it —
                    # otherwise every advance_to call during a long
                    # transmission would re-delay its start, and a
                    # busy port fed by frequent events would slip
                    # unboundedly below line rate. Once ``now`` reaches
                    # the start, the packet is on the wire: no later
                    # arrival may take its place.
                    if choice[3] <= now:
                        state.chosen, state.started = (choice, finish), True
                    clocks[port] = max(clocks[port], min(now, choice[3]))
                    break
                departures.append(self._serve(choice, port))
        self._tick(now)
        if len(departures) > 1:
            departures.sort(key=lambda dep: dep.time)
        return departures

    def start(self, port: int, packet: Packet,
              before: float) -> Optional[Departure]:
        """Transmit ``packet``, just enqueued on ``port``, right away.

        Serves it at the latest instant an advance reached
        (:meth:`advance_to` / :meth:`idle_to` — the caller's current
        time) when it is the port's only packet, the port is not still
        transmitting, no token bucket is configured (buckets couple
        ports), and the transmission finishes strictly before
        ``before``, the caller's bound on when anything else may next
        touch the port. Nothing is left to decide then: transmission is
        non-preemptive and the choice has one candidate. Returns the
        :class:`Departure`, timed at the finish; otherwise ``None`` with
        nothing changed, and the packet waits for :meth:`advance_to`.
        """
        state = self._ports[port]
        now = self._now
        if (self._buckets or state.queued != 1
                or self.port_clock[port] > now):
            return None
        (vid, fifo), = state.fifos.items()
        rank, _seq, head = fifo[0]
        if head is not packet:
            return None
        rate = self.port_rate_bps.get(port, self._line_rate_bps)
        if now + (0.0 if rate is None
                  else len(packet.buf) * 8.0 / rate) >= before:
            return None
        return self._serve((vid, rank, packet, now), port)
