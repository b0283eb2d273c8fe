"""The execution core (:mod:`repro.exec`).

Its packet-for-packet equivalence with a plain switch and with
hand-chained engines is enforced by
``tests/test_fabric_differential.py``; this file covers the core's own
surface — departure routing against stub topologies, typed lost-traffic
reporting (:class:`repro.exec.LostRecord`) — and the event-list
discipline of its one timing policy.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from fabric_serve import serve
from repro.errors import FabricError
from repro.exec import (
    ExecutionCore,
    ExecutionSink,
    LostRecord,
    summarize_lost,
    vid_of,
)
from repro.fabric import leaf_spine
from repro.modules import calc
from repro.net import PacketBuilder
from repro.net.packet import Packet
from repro.sim import FabricTimelineExperiment, Simulator
from repro.traffic import TrafficMatrix

PACKET_SIZE = 1000
HOSTS = 4


# ---------------------------------------------------------------- stubs

class _RecordingSink(ExecutionSink):
    def __init__(self):
        self.delivered = []
        self.lost = []

    def on_deliver(self, member, port, vid, packet, time):
        self.delivered.append((member, port, vid, time))

    def on_lost(self, member, port, vid, packet, link, time):
        self.lost.append((member, port, vid, link, time))


class _StubLink:
    def __init__(self, name="leafA:1—leafB:2", up=True, delay_s=2e-6):
        self.name = name
        self.up = up
        self.delay_s = delay_s
        self.recorded = []

    def record(self, vid, nbytes):
        self.recorded.append((vid, nbytes))

    def other_end(self, _name):
        return SimpleNamespace(switch="leafB", port=2)


def _stub_member(links):
    return SimpleNamespace(name="leafA", links=links, engine=None,
                           scheduler=None, num_ports=4)


def _packet(vid=1, i=0):
    return calc.make_packet(vid, calc.OP_ADD, i, i + 1,
                            pad_to=PACKET_SIZE)


# ---------------------------------------------------------------- routing

class TestRouting:
    def test_host_port_delivers(self):
        sink = _RecordingSink()
        member = _stub_member(links={})
        core = ExecutionCore([member], sink, Simulator())
        assert core.route(member, 3, _packet(), vid=1, time=0.5) is None
        assert sink.delivered == [("leafA", 3, 1, 0.5)]

    def test_down_link_loses_with_link_name(self):
        sink = _RecordingSink()
        link = _StubLink(up=False)
        member = _stub_member(links={1: link})
        core = ExecutionCore([member], sink, Simulator())
        assert core.route(member, 1, _packet(), vid=7, time=0.0) is None
        assert sink.lost == [("leafA", 1, 7, link.name, 0.0)]
        assert link.recorded == []  # lost traffic carries no bytes

    def test_up_link_forwards_with_rewrite_and_accounting(self):
        link = _StubLink(up=True, delay_s=3e-6)
        member = _stub_member(links={1: link})
        far = SimpleNamespace(name="leafB", links={}, engine=None,
                              scheduler=None, num_ports=4)
        sim = Simulator()
        core = ExecutionCore([member, far], ExecutionSink(), sim)
        core._sources = 1  # one packet came in from outside
        arrivals = []
        core.inject = lambda at, pkt, t: arrivals.append((at, pkt, t))
        packet = _packet(vid=5)
        assert core.route(member, 1, packet, vid=5, time=1.0) is None
        assert packet.ingress_port == 2  # remote end's port
        assert link.recorded == [(5, len(packet))]
        sim.run()  # the arrival at the far end, after the delay
        assert arrivals == [(far, packet, 1.0 + 3e-6)]

    def test_crossing_past_the_loop_bound_is_a_typed_error(self):
        # Two members allow one crossing per injected packet; none was
        # injected, so the first crossing is already past the bound.
        member = _stub_member(links={1: _StubLink(up=True)})
        far = SimpleNamespace(name="leafB", links={}, engine=None,
                              scheduler=None, num_ports=4)
        sim = Simulator()
        core = ExecutionCore([member, far], ExecutionSink(), sim)
        dep = SimpleNamespace(port=1, packet=_packet(vid=5), module_id=5,
                              time=0.0)
        with pytest.raises(FabricError,
                           match="forwarding loop: tenant 5's packet "
                                 "leaving 'leafA' toward 'leafB' is "
                                 "link crossing 1"):
            core.route_departures(member, [dep])
        assert sim.pending() == 0  # the looping arrival is not scheduled

    def test_unknown_member_is_a_typed_error(self):
        core = ExecutionCore([_stub_member(links={})], ExecutionSink(),
                             Simulator())
        with pytest.raises(FabricError, match="stranger"):
            core.member("stranger")

    def test_vid_of_falls_back_to_system_vid(self):
        assert vid_of(Packet(bytes(64))) == 0
        assert vid_of(_packet(vid=9)) == 9
        # An untagged IPv4/UDP frame has 0x4500 where a tag's TCI would
        # sit; it must not be charged to tenant 0x500.
        untagged = PacketBuilder().ethernet().ipv4().udp().build()
        assert len(untagged) == 42
        assert vid_of(untagged) == 0
        # A tagged frame cut off inside its tag carries no VID either.
        assert vid_of(Packet(_packet(vid=9).tobytes()[:15])) == 0


class TestAdapters:
    def test_default_sink_observes_nothing(self):
        sink = ExecutionSink()  # every hook is a no-op
        sink.on_drop(1)
        sink.on_deliver("m", 0, 1, _packet(), 0.0)
        sink.on_lost("m", 0, 1, _packet(), "l", 0.0)


class TestSummarizeLost:
    def test_aggregates_and_orders(self):
        records = summarize_lost([(2, "l1"), (1, "l0"), (2, "l1"),
                                  (1, "l1")])
        assert records == [LostRecord(1, "l0", 1), LostRecord(1, "l1", 1),
                           LostRecord(2, "l1", 2)]


# ------------------------------------------- lost-record unification gate

def _lossy_fabric():
    """2-leaf/1-spine with one tenant whose uplink fails post-placement."""
    fabric = leaf_spine(leaves=2, spines=1, hosts_per_leaf=HOSTS)
    tenant = fabric.tenant(
        "calc", calc.P4_SOURCE, vid=1,
        installer=lambda t, port: calc.install(t, port=port))
    tenant.place(("leaf0", 0), ("leaf1", 1))
    fabric.set_link_state("leaf0", "spine0", up=False)
    return fabric


class TestLostRecordUnification:
    """Lost traffic comes out in one typed shape."""

    N = 20

    def test_timeline_reports_dropped_traffic_as_typed_records(self):
        # Event-driven timeline offering exactly N packets: one demand,
        # phase = gap/2, so floor((duration - gap/2)/gap) + 1 = N.
        pps = 1e6
        matrix = TrafficMatrix()
        matrix.add(1, ("leaf0", 0), ("leaf1", 1),
                   offered_bps=pps * (PACKET_SIZE + 24) * 8,
                   packet_size=PACKET_SIZE,
                   make_packet=lambda: _packet())
        timeline_result = FabricTimelineExperiment(
            _lossy_fabric(), matrix, duration_s=self.N / pps).run()

        expected = [LostRecord(vid=1, link="leaf0:4—spine0:0",
                               count=self.N)]
        assert timeline_result.lost_records() == expected
        # and the per-tenant count stays consistent with the typed one
        assert timeline_result.lost[1] == self.N

    def test_loss_is_reported_at_the_instant_it_carries(self):
        """A packet bound for a downed link is not started early: the
        sink hears of the loss at its departure instant, so loss logs
        stay in event order."""
        sim = Simulator()
        seen = []

        class Sink(ExecutionSink):
            def on_lost(self, member, port, vid, packet, link, time):
                seen.append((time, sim.now))

        fabric = _lossy_fabric()
        core = ExecutionCore.for_fabric(fabric, Sink(), sim)
        core.inject(fabric.switch("leaf0"), _packet(), 0.0)
        sim.run()
        (time, now), = seen
        assert time > 0 and now == pytest.approx(time, rel=1e-12)

    def test_healthy_run_reports_no_lost_records(self):
        fabric = leaf_spine(leaves=2, spines=1, hosts_per_leaf=HOSTS)
        tenant = fabric.tenant(
            "calc", calc.P4_SOURCE, vid=1,
            installer=lambda t, port: calc.install(t, port=port))
        tenant.place(("leaf0", 0), ("leaf1", 1))
        result = serve(fabric, [("leaf0", _packet(i=i)) for i in range(4)])
        assert result.lost_records() == []
        assert len(result.delivered_for(1)) == 4

# ------------------------------------------------ control-horizon gate

class TestControlHorizon:
    """A packet on an idle port starts at once only if no control event
    is due before it finishes; one landing inside its transmission sees
    the fabric as if the packet had waited for a service event.

    One tenant, leaf0:0 → spine0 → leaf1:1, on 100 kb/s links: a
    1000 B frame takes 80 ms per hop, and packets arrive at 50, 150 and
    250 ms, each on an idle port. Every expected value below was
    measured on the parent commit of the change that lets packets
    start early (where every transmission waited for its service
    event) and is pinned exactly.
    """

    UPLINK = "leaf0:4—spine0:0"
    DOWNLINK = "leaf1:4—spine0:1"

    def _build(self):
        fabric = leaf_spine(leaves=2, spines=1, hosts_per_leaf=HOSTS,
                            link_capacity_bps=1e5, link_delay_s=1e-4)
        tenant = fabric.tenant(
            "calc", calc.P4_SOURCE, vid=1,
            installer=lambda t, port: calc.install(t, port=port))
        tenant.place(("leaf0", 0), ("leaf1", 1))
        matrix = TrafficMatrix()
        matrix.add(1, ("leaf0", 0), ("leaf1", 1),
                   offered_bps=10 * (PACKET_SIZE + 24) * 8,
                   packet_size=PACKET_SIZE,
                   make_packet=lambda: _packet())
        experiment = FabricTimelineExperiment(fabric, matrix,
                                              duration_s=0.3)
        return fabric, tenant, experiment

    def _set_uplink(self, fabric, up):
        return lambda: fabric.set_link_state("leaf0", "spine0", up=up)

    def test_undisturbed_run_delivers_everything(self):
        _fabric, _tenant, experiment = self._build()
        result = experiment.run()
        assert result.delivered == {1: 3} and result.loss_log == []
        assert result.latencies_s[1] == [0.24020000000000002] * 3

    def test_link_down_inside_a_transmission(self):
        # down at 100 ms, inside the first packet's 50–130 ms on the
        # uplink; up again at 200 ms, inside the second's 150–230 ms
        fabric, _tenant, experiment = self._build()
        experiment.schedule_reconfig(0, 0.1,
                                     apply=self._set_uplink(fabric, False))
        experiment.schedule_reconfig(0, 0.2,
                                     apply=self._set_uplink(fabric, True))
        result = experiment.run()
        assert result.loss_log == [(0.13, 1, self.UPLINK)]
        assert result.lost_records() == [LostRecord(1, self.UPLINK, 1)]
        assert result.delivered == {1: 2}

    def test_crash_inside_a_host_port_transmission(self):
        # leaf1 crashes at 250 ms, inside the first packet's 210.2–
        # 290.2 ms on its host port: the scrub charges it to the
        # switch; the two behind it die on the crashed switch's link
        from repro.chaos import ChaosController, ChaosSchedule

        fabric, _tenant, experiment = self._build()
        schedule = ChaosSchedule()
        schedule.crash_switch("leaf1", at_s=0.25)
        ChaosController(fabric).arm(experiment, schedule)
        result = experiment.run()
        assert result.loss_log == [
            (0.25, 1, "switch:leaf1"),
            (0.31010000000000004, 1, self.DOWNLINK),
            (0.4101, 1, self.DOWNLINK)]
        assert result.lost_records() == [
            LostRecord(1, self.DOWNLINK, 2),
            LostRecord(1, "switch:leaf1", 1)]
        assert result.delivered == {}

    def test_evict_inside_a_transmission(self):
        # the purge takes the first packet off leaf0's uplink queue
        # (no loss record: an evicted tenant's packets just go); the
        # two after it find the tenant gone
        _fabric, tenant, experiment = self._build()
        experiment.schedule_reconfig(1, 0.1, apply=tenant.unload)
        result = experiment.run()
        assert result.loss_log == [] and result.lost_records() == []
        assert result.delivered == {} and result.drops == {1: 2}

    def test_control_event_at_the_arrival_instant_is_pending(self):
        # The link fails at the very instant the first packet arrives:
        # the arrival runs first, yet the packet must not leave before
        # the failure. Every packet dies on the uplink.
        fabric, _tenant, experiment = self._build()
        first = next(iter(experiment.matrix.arrivals(0.3)))[0]
        experiment.schedule_reconfig(0, first,
                                     apply=self._set_uplink(fabric, False))
        result = experiment.run()
        assert result.loss_log == [(0.13, 1, self.UPLINK),
                                   (0.23000000000000004, 1, self.UPLINK),
                                   (0.33, 1, self.UPLINK)]
        assert result.lost_records() == [LostRecord(1, self.UPLINK, 3)]


# ------------------------------------------------ event-list count gate

class TestEventListDiscipline:
    """A timeline event costs what it changed, not one poll per port.

    Counts only (no wall clock), with kernel events counted per kind:
    arrivals (at a source or across a link), service events of ports
    with a backlog, and delivery events of packets that started on an
    idle host port. The contended run: a 2-leaf/1-spine fabric whose
    leaves have three idle ports each and whose one uplink is contended
    (tenants 1 and 2 offer 8 Mb/s each into a 10 Mb/s link, tenant 3
    runs the other way, uncontended). Polling every port of the member
    on every arrival and service event costs 8.0 ``next_departure_at``
    and 17.0 ``_choose`` calls per hop on this very run. The simulated
    outcome is pinned to the all-ports scan's, so the bound cannot be
    met by serving less. The uncontended run: one tenant over 100 Gb/s
    links, where every packet starts on the port it is enqueued on, so
    a hop is one arrival event and a packet adds one delivery event.
    """

    ROUTES = {1: (("leaf0", 0), ("leaf1", 0)),
              2: (("leaf0", 1), ("leaf1", 1)),
              3: (("leaf1", 2), ("leaf0", 2))}
    OFFERED_BPS = {1: 8e6, 2: 8e6, 3: 1e6}

    def _build(self, link_bps=10e6, vids=(1, 2, 3)):
        fabric = leaf_spine(leaves=2, spines=1, hosts_per_leaf=HOSTS,
                            link_capacity_bps=link_bps, link_delay_s=1e-4)
        matrix = TrafficMatrix()
        for vid in vids:
            src, dst = self.ROUTES[vid]
            fabric.tenant(
                f"calc{vid}", calc.P4_SOURCE, vid=vid,
                installer=lambda t, port: calc.install(t, port=port)
            ).place(src, dst)
            matrix.add(vid, src, dst, offered_bps=self.OFFERED_BPS[vid],
                       packet_size=PACKET_SIZE,
                       make_packet=lambda vid=vid: _packet(vid))
        return FabricTimelineExperiment(fabric, matrix, duration_s=0.05)

    #: kernel event kind by handler name
    KINDS = {"arrival": "arrival_events", "_arrive": "arrival_events",
             "_service": "service_events", "on_deliver": "delivery_events"}

    def _run(self, monkeypatch, **fabric_kwargs):
        from repro.engine import EgressScheduler

        experiment = self._build(**fabric_kwargs)
        calls = {"backlogged_arrivals": 0, "arrival_events": 0,
                 "service_events": 0, "delivery_events": 0}
        schedule = Simulator.schedule

        def scheduled(sim, delay, callback, *args):
            calls[self.KINDS[callback.__name__]] += 1
            return schedule(sim, delay, callback, *args)
        monkeypatch.setattr(Simulator, "schedule", scheduled)

        def count(cls, name, note=None):
            inner = getattr(cls, name)

            def counted(self, *args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                result = inner(self, *args, **kwargs)
                if note is not None:
                    note(result)
                return result
            monkeypatch.setattr(cls, name, counted)

        def backlogged(idle):
            calls["backlogged_arrivals"] += not idle

        count(EgressScheduler, "advance_to")
        count(EgressScheduler, "idle_to", backlogged)
        count(EgressScheduler, "next_departure_at")
        count(EgressScheduler, "_choose")
        count(ExecutionCore, "inject")  # one per switch-hop
        result = experiment.run()
        calls["events"] = experiment.core.sim.events_processed
        # every scheduled event ran, and each was one of the three kinds
        assert calls["events"] == calls["arrival_events"] \
            + calls["service_events"] + calls["delivery_events"]
        assert calls["arrival_events"] == calls["inject"]
        return calls, result

    def test_scans_per_hop_are_bounded_and_outcome_unchanged(
            self, monkeypatch):
        calls, result = self._run(monkeypatch)
        hops = calls["inject"]
        assert hops == 312
        # one advance per service event, plus one per arrival that
        # found the member backlogged; a delivery event advances nothing
        service_events = calls["service_events"]
        assert calls["idle_to"] == hops
        assert 0 < calls["backlogged_arrivals"] < hops
        assert calls["advance_to"] == \
            service_events + calls["backlogged_arrivals"]
        assert 0 < service_events <= hops + 1
        # tenant 3's packets never queue: each ends in a delivery event
        assert calls["delivery_events"] >= result.delivered[3]
        assert calls["events"] < 2 * hops
        assert calls["next_departure_at"] <= hops
        assert calls["_choose"] <= 1.5 * hops

        assert result.delivered == {1: 49, 2: 49, 3: 6}
        assert result.drops == {} and result.lost == {}
        assert result.elapsed_s == pytest.approx(0.080456, rel=1e-9)
        assert {vid: (result.mean_latency_s(vid),
                      result.max_latency_s(vid))
                for vid in self.ROUTES} == {
            1: (pytest.approx(0.016424, rel=1e-9),
                pytest.approx(0.030248, rel=1e-9)),
            2: (pytest.approx(0.016968, rel=1e-9),
                pytest.approx(0.030792, rel=1e-9)),
            3: (pytest.approx(0.0026, rel=1e-9),
                pytest.approx(0.0026, rel=1e-9)),
        }

    def test_uncontended_hop_is_one_event_and_no_scan(self, monkeypatch):
        calls, result = self._run(monkeypatch, link_bps=100e9, vids=(1,))
        hops = calls["inject"]
        delivered = result.delivered[1]
        assert hops == 3 * delivered and hops > 0
        assert calls["backlogged_arrivals"] == 0
        # 4/3 events per hop on this 3-hop route: one arrival per hop
        # and one delivery per packet, no service event at all
        assert calls["arrival_events"] == hops
        assert calls["delivery_events"] == delivered
        assert calls["service_events"] == 0
        assert calls["events"] == hops + delivered
        # a packet alone on an idle port needs no scheduling scan
        assert calls.get("advance_to", 0) == 0
        assert calls.get("next_departure_at", 0) == 0
        assert calls.get("_choose", 0) == 0
        assert result.drops == {} and result.lost == {}

    def test_undrained_run_is_a_typed_error_naming_the_queues(
            self, monkeypatch):
        """Break the cascade (no service event is ever scheduled) on
        the contended uplink, where packets queue behind a
        transmission: the run must end in a ``ReproError`` that says
        where the packets are, not a bare ``RuntimeError``."""
        from repro.errors import ReproError
        from repro.sim.kernel import SimulationError

        experiment = self._build(vids=(1, 2))
        monkeypatch.setattr(ExecutionCore, "schedule_services",
                            lambda self, member, scheduler: None)
        with pytest.raises(SimulationError,
                           match=r"never departed.*leaf0:4 \(\d+\)") \
                as caught:
            experiment.run()
        assert isinstance(caught.value, ReproError)


# ------------------------------------------------ uncontended-hop books gate

class TestUncontendedHopBooks:
    """Counts only (no wall clock): a warm packet alone on an idle host
    port with no token bucket — enqueue, start, one delivery event —
    keeps the scheduler's books inline. Going through the helpers cost
    this hop 2 ``tenant``, 1 ``clock_of``, 2 ``_check_port``, 2
    ``_tx_seconds``, 1 ``on_dequeue`` and, at the exact-match level, 1
    ``Packet.copy`` (and, before the books became one tenant record,
    2 ``_feed_depth``, 2 ``set_egress_depth`` and 1
    ``record_egress_tx``). Its departure, delivery and books are pinned
    to the values measured with the helpers, so the bound cannot be met
    by keeping fewer books."""

    def test_warm_hop_calls_no_bookkeeping_helper(self, monkeypatch):
        from repro.engine import EgressScheduler
        from repro.fabric import Fabric
        from repro.rmt.pifo import StfqRanker

        fabric = Fabric()
        member = fabric.add_switch("sw0")
        fabric.tenant(
            "calc", calc.P4_SOURCE, vid=1,
            installer=lambda t, port: calc.install(t, port=port)
        ).place(("sw0", 0), ("sw0", 2))
        sink, sim = _RecordingSink(), Simulator()
        core = ExecutionCore.for_fabric(fabric, sink, sim)

        def hop(t):
            packet = calc.make_packet(1, calc.OP_ADD, 3, 4, pad_to=1000)
            sim.schedule_at(t, core.inject, member, packet, t)
            sim.run()

        hop(0.0)        # binds the tenant's context, seeds the cache
        hop(1e-3)       # the first exact-match hit
        calls = {}
        for cls, names in (
                (EgressScheduler, ("tenant", "clock_of",
                                   "_tx_seconds", "_check_port")),
                (StfqRanker, ("on_dequeue",)),
                (Packet, ("copy",))):
            for name in names:
                def counted(self, *args, _inner=getattr(cls, name),
                            _name=name, **kwargs):
                    calls[_name] = calls.get(_name, 0) + 1
                    return _inner(self, *args, **kwargs)
                monkeypatch.setattr(cls, name, counted)
        hits = member.engine.counters.cache_hits
        hop(2e-3)
        assert calls == {}
        assert member.engine.counters.cache_hits == hits + 1 == 2

        assert [time for *_where, time in sink.delivered] == [
            8e-07, 0.0010008, 0.0020008]
        assert {tuple(where) for *where, _time in sink.delivered} == {
            ("sw0", 2, 1)}
        assert sim.events_processed == 6 and sim.pending() == 0
        sched, stats = member.scheduler, member.switch.pipeline.stats
        assert sched.port_clock[2] == 0.0020008
        record = sched.per_tenant[1]
        assert {name: getattr(record, name) for name in (
            "enqueued", "transmitted", "transmitted_bytes", "dropped",
            "throttled_waits")} == {
            "enqueued": 3, "transmitted": 3, "transmitted_bytes": 3000,
            "dropped": 0, "throttled_waits": 0}
        assert sched.bytes_out[2] == 3000
        assert sched._ports[2].ranker.virtual_time == 2000.0
        assert (dict(stats.egress_bytes_tx),
                dict(stats.egress_queue_depth)) == ({1: 3000}, {1: 0})

    #: The Python calls of the warm third hop, in order: the kernel's
    #: run, then one call per layer boundary — exec, engine (one filter
    #: look, one header read), the exact-match level (lookup, PHV,
    #: output packet), pipeline commit (one enqueue, the result),
    #: the scheduler's start (serve, departure), one route (the
    #: delivery event) — and the delivery itself.
    WARM_HOP_CALLS = [
        "run", "inject", "idle_to", "process_batch", "look", "_sniff",
        "_serve", "lookup", "from_snapshot", "__init__", "commit",
        "enqueue",
        "__init__", "start", "_serve", "__init__", "route", "schedule",
        "on_deliver"]

    def test_warm_hop_crosses_each_layer_boundary_once(self):
        """Counts only: every Python-level call of the warm third hop,
        counted with ``sys.setprofile`` over its ``sim.run()`` (the
        packet is built before). With a helper per step the same hop
        made 35 calls: ``member_up``, ``_tick``, ``is_reconfig_packet``
        twice, ``_admit`` → ``admit`` → ``look`` → ``tagged_vid``,
        ``record_in``, ``_context``, ``assign_buffer``, ``epoch_of``,
        the flow key's list comprehension, ``_commit``, ``_enqueue_one``
        → ``rank`` → ``weight_of``, ``record_out`` and ``_start``
        beside the 19 above. The delivery is pinned, so the
        count cannot be met by doing less."""
        import sys

        from repro.fabric import Fabric

        fabric = Fabric()
        member = fabric.add_switch("sw0")
        fabric.tenant(
            "calc", calc.P4_SOURCE, vid=1,
            installer=lambda t, port: calc.install(t, port=port)
        ).place(("sw0", 0), ("sw0", 2))
        sink, sim = _RecordingSink(), Simulator()
        core = ExecutionCore.for_fabric(fabric, sink, sim)
        for t in (0.0, 1e-3, 2e-3):
            packet = calc.make_packet(1, calc.OP_ADD, 3, 4, pad_to=1000)
            sim.schedule_at(t, core.inject, member, packet, t)
            calls = []

            def profile(frame, event, _arg):
                if event == "call":
                    calls.append(frame.f_code.co_name)
            sys.setprofile(profile)
            try:
                sim.run()
            finally:
                sys.setprofile(None)
        assert calls == self.WARM_HOP_CALLS
        assert len(calls) == 19
        assert sink.delivered[-1] == ("sw0", 2, 1, 0.0020008)
        assert member.engine.counters.cache_hits == 2


def _stored_counters(member):
    """Every counter value one switch stores, by path: the pipeline's
    statistics (its tenant records and the retired sum included), the
    engine's own event counts and the scheduler's per-port bytes."""
    flat = {}

    def walk(path, value):
        if dataclasses.is_dataclass(value):
            for f in dataclasses.fields(value):
                walk(f"{path}.{f.name}", getattr(value, f.name))
        elif isinstance(value, dict):
            for key, item in value.items():
                walk(f"{path}[{key}]", item)
        elif isinstance(value, list):
            for index, item in enumerate(value):
                walk(f"{path}[{index}]", item)
        else:
            flat[path] = value

    walk("stats", member.switch.pipeline.stats)
    walk("engine", member.engine._events)
    walk("scheduler.bytes_out", member.scheduler.bytes_out)
    return flat


def _moved(before, after):
    return {path for path in before.keys() | after.keys()
            if before.get(path, 0) != after.get(path, 0)}


class TestWarmHopCounterMoves:
    """Counts only: one warm uncontended hop (the third hop of
    :class:`TestUncontendedHopBooks`' scenario, an exact-match hit)
    changes each per-packet count once, in the tenant's one record.
    Eight counter families used to count it: 18 stored values moved,
    and the queue-depth gauge was stored twice."""

    @staticmethod
    def _warm_member():
        from repro.fabric import Fabric

        fabric = Fabric()
        member = fabric.add_switch("sw0")
        fabric.tenant(
            "calc", calc.P4_SOURCE, vid=1,
            installer=lambda t, port: calc.install(t, port=port)
        ).place(("sw0", 0), ("sw0", 2))
        sim = Simulator()
        core = ExecutionCore.for_fabric(fabric, _RecordingSink(), sim)

        def hop(t):
            packet = calc.make_packet(1, calc.OP_ADD, 3, 4, pad_to=1000)
            sim.schedule_at(t, core.inject, member, packet, t)
            sim.run()

        hop(0.0)
        hop(1e-3)
        return fabric, member, hop

    def test_warm_hop_moves_ten_stored_counters(self):
        _fabric, member, hop = self._warm_member()
        before = _stored_counters(member)
        hop(2e-3)
        moved = _moved(before, _stored_counters(member))
        assert moved == {
            "stats.tenants[1].packets_in", "stats.tenants[1].packets_out",
            "stats.tenants[1].bytes_out", "stats.tenants[1].cache_hits",
            "stats.tenants[1].enqueued", "stats.tenants[1].transmitted",
            "stats.tenants[1].transmitted_bytes",
            "engine.batches", "engine.packets", "scheduler.bytes_out[2]"}
        assert len(moved) <= 10
        # every total is read off the records, not kept beside them
        counters = member.engine.counters
        assert (counters.cache_hits, counters.per_tenant[1].packets) \
            == (2, 3)
        assert (member.scheduler.enqueued, member.scheduler.dequeued) \
            == (3, 3)

    def test_queue_depth_gauge_is_stored_once(self):
        fabric, member, _hop = self._warm_member()
        stats, sched = member.switch.pipeline.stats, member.scheduler
        before = _stored_counters(member)
        # queued behind no service: the packet waits on port 2
        member.engine.process_batch(
            [calc.make_packet(1, calc.OP_ADD, 3, 4, pad_to=1000)])
        moved = _moved(before, _stored_counters(member))
        assert [path for path in moved if "depth" in path] == [
            "stats.tenants[1].queue_depth"]
        record = stats.tenants[1]
        assert record.queue_depth == 1 == sched.queue_depth(1)
        # every reader follows the one stored value
        record.queue_depth = 7
        assert sched.queue_depth(1) == 7
        assert stats.egress_queue_depth[1] == 7
        assert member.switch.tenant(1).counters().egress_queue_depth == 7
        assert fabric.tenant_counters(1).egress_queue_depth == 7
