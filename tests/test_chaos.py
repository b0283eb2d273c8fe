"""The chaos & recovery subsystem (``repro.chaos``).

Covers the ISSUE-9 satellites end to end:

* Hypothesis determinism — identical seeds yield identical
  :class:`~repro.chaos.ChaosSchedule` event streams and identical
  post-mortem reports from full timeline runs; crash→restore→crash is
  idempotent on fabric state.
* Mid-run link flap regression — victims lose exactly the in-flight
  packets on the dead link (``lost_by_link`` reconciles with the
  per-tenant counters), untouched tenants hold the churn bench's 5%
  per-bin bound.
* :meth:`~repro.engine.scheduler.EgressScheduler.drop_queued` /
  :meth:`~repro.engine.scheduler.EgressScheduler.purge` and
  ``Fabric._release_tenant`` under crash-drain — queued packets, STFQ
  tags, and throttle marks scrubbed; no ghost departures after
  restore.
* Route recomputation after ``set_link_state`` — a restored link is
  immediately usable by placements and migrations (routing holds no
  cache), and raising a crashed switch's link is refused.
* Recovery — stranded detection, re-placement onto surviving routes,
  scheduler drain accounting, register carry-over (NetChain), state
  lost with a crashed switch, and the unrecoverable case.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from fabric_serve import serve
from repro.chaos import (
    CHAOS_KINDS,
    ChaosController,
    ChaosEvent,
    ChaosSchedule,
    PostMortemReport,
    RecoveryController,
    build_post_mortem,
)
from repro.engine import EgressScheduler
from repro.errors import (
    ConfigError,
    LinkDownError,
    PlacementError,
    TopologyError,
)
from repro.fabric import leaf_spine
from repro.modules import calc, netcache, netchain
from repro.net.packet import Packet
from repro.sim import FabricTimelineExperiment
from repro.traffic import TrafficMatrix
from seeds import SEED

HOSTS = 4
SIZE = 500
PPS = 5e4


def _fabric(leaves=2, spines=2):
    return leaf_spine(leaves=leaves, spines=spines, hosts_per_leaf=HOSTS)


def _calc_tenant(fabric, vid, via=None, weight=None):
    tenant = fabric.tenant(
        f"calc{vid}", calc.P4_SOURCE, vid=vid,
        installer=lambda t, port: calc.install(t, port=port))
    tenant.place(("leaf0", vid - 1), ("leaf1", vid - 1), via=via)
    if weight is not None:
        tenant.set_weight(weight)
    return tenant


def _matrix(vids):
    matrix = TrafficMatrix()
    for vid in vids:
        matrix.add(vid, ("leaf0", vid - 1), ("leaf1", vid - 1),
                   offered_bps=PPS * (SIZE + 24) * 8, packet_size=SIZE,
                   make_packet=lambda vid=vid: calc.make_packet(
                       vid, calc.OP_ADD, vid, vid + 1, pad_to=SIZE))
    return matrix


def _offered(matrix, duration_s):
    counts = {}
    for _t, demand in matrix.arrivals(duration_s):
        counts[demand.vid] = counts.get(demand.vid, 0) + 1
    return counts


def _fabric_state(fabric):
    """The observable fault state: member up flags, link up flags, and
    queue backlogs — what crash→restore→crash must leave unchanged."""
    return (
        {m.name: m.up for m in fabric.switches()},
        {link.name: link.up for link in fabric.links()},
        {m.name: m.scheduler.total_queued() for m in fabric.switches()},
    )


class TestChaosSchedule:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown chaos kind"):
            ChaosSchedule().add("meteor-strike", 0.0, switch="spine0")

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError, match="must be >= 0"):
            ChaosSchedule().crash_switch("spine0", -1.0)

    def test_link_kinds_need_a_link_target(self):
        schedule = ChaosSchedule()
        with pytest.raises(ConfigError, match="target a link"):
            schedule.add("link-down", 0.0, switch="spine0")
        with pytest.raises(ConfigError, match="target a switch"):
            schedule.add("switch-crash", 0.0, link=("a", "b"))
        with pytest.raises(ConfigError, match="distinct"):
            schedule.add("link-down", 0.0, link=("a", "a"))

    def test_flap_must_come_back_up_after_down(self):
        with pytest.raises(ConfigError, match="back up after"):
            ChaosSchedule().flap_link("a", "b", 2e-3, 2e-3)

    def test_link_target_is_normalized(self):
        """("b", "a") and ("a", "b") name the same link."""
        schedule = ChaosSchedule()
        assert schedule.fail_link("b", "a", 1e-3) == \
            schedule.fail_link("a", "b", 1e-3)
        assert schedule.events[0].target == ("a", "b")
        assert schedule.events[0].link == ("a", "b")
        assert schedule.events[0].switch is None

    def test_sorted_events_faults_targets_window(self):
        schedule = ChaosSchedule()
        schedule.restore_switch("s", 4e-3)
        schedule.crash_switch("s", 1e-3)
        schedule.flap_link("a", "b", 2e-3, 3e-3)
        events = schedule.sorted_events()
        assert [e.kind for e in events] == \
            ["switch-crash", "link-down", "link-up", "switch-restore"]
        assert all(e.kind in CHAOS_KINDS for e in events)
        assert [e.kind for e in schedule.faults()] == \
            ["switch-crash", "link-down"]
        assert schedule.targets() == [("a", "b"), ("s",)]
        assert schedule.window(("s",)) == (1e-3, 4e-3)
        with pytest.raises(ConfigError, match="no chaos events"):
            schedule.window(("nope",))
        assert len(schedule) == 4
        assert "link-down=1" in repr(schedule)

    def test_random_flaps_validation(self):
        with pytest.raises(ConfigError, match="at least one link"):
            ChaosSchedule.random_flaps([], 1, 1.0, 0.01, 0.1, seed=1)
        with pytest.raises(ConfigError, match="min_down_s"):
            ChaosSchedule.random_flaps([("a", "b")], 1, 1.0, 0.2, 0.1,
                                       seed=1)
        with pytest.raises(ConfigError, match="no room"):
            ChaosSchedule.random_flaps([("a", "b")], 1, 0.1, 0.01, 0.2,
                                       seed=1)


class TestScheduleDeterminism:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_identical_seeds_identical_streams(self, seed):
        links = [("leaf0", "spine0"), ("leaf0", "spine1"),
                 ("leaf1", "spine0")]
        one = ChaosSchedule.random_flaps(links, 5, 1.0, 0.01, 0.05,
                                         seed=seed)
        two = ChaosSchedule.random_flaps(links, 5, 1.0, 0.01, 0.05,
                                         seed=seed)
        assert one.sorted_events() == two.sorted_events()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_generated_flaps_are_well_formed(self, seed):
        links = [("leaf0", "spine0"), ("leaf1", "spine1")]
        schedule = ChaosSchedule.random_flaps(links, 4, 1.0, 0.01, 0.05,
                                              seed=seed)
        downs = [e for e in schedule.sorted_events()
                 if e.kind == "link-down"]
        ups = {e.target: e.time_s for e in schedule.sorted_events()
               if e.kind == "link-up"}
        assert len(downs) == 4 and len(schedule) == 8
        for down in downs:
            assert down.target in {tuple(sorted(l)) for l in links}
            assert 0.0 <= down.time_s <= 1.0 - 0.05


class TestCrashRestore:
    def test_crash_downs_member_and_links_and_scrubs_queues(self):
        fabric = _fabric()
        member = fabric.switch("spine0")
        member.scheduler.enqueue(
            calc.make_packet(1, calc.OP_ADD, 1, 2, pad_to=SIZE), 0,
            module_id=1)
        dropped = fabric.crash_switch("spine0")
        assert [(port, vid) for port, vid, _pkt in dropped] == [(0, 1)]
        assert not member.up
        assert all(not link.up for link in member.links.values())
        assert member.scheduler.total_queued() == 0
        # Idempotent: crashing a crashed switch is a no-op.
        assert fabric.crash_switch("spine0") == []

    def test_restore_skips_links_to_still_crashed_neighbors(self):
        fabric = _fabric()
        fabric.crash_switch("spine0")
        fabric.crash_switch("leaf0")
        fabric.restore_switch("spine0")
        assert fabric.switch("spine0").up
        assert not fabric.link_between("leaf0", "spine0").up
        assert fabric.link_between("leaf1", "spine0").up
        fabric.restore_switch("leaf0")
        assert fabric.link_between("leaf0", "spine0").up

    def test_raising_a_crashed_switchs_link_is_refused(self):
        fabric = _fabric()
        fabric.crash_switch("spine0")
        with pytest.raises(TopologyError, match="restore_switch"):
            fabric.set_link_state("leaf0", "spine0", up=True)
        # Failing it further is fine (already down, stays down).
        assert not fabric.set_link_state("leaf0", "spine0", up=False).up

    def test_crash_restore_crash_is_idempotent(self):
        fabric = _fabric()
        _calc_tenant(fabric, 1, via=("spine0",))
        fabric.crash_switch("spine0")
        first = _fabric_state(fabric)
        fabric.restore_switch("spine0")
        assert fabric.crash_switch("spine0") == []  # queues were scrubbed
        assert _fabric_state(fabric) == first

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.sampled_from(["leaf0", "leaf1", "spine0",
                                     "spine1"]),
                    min_size=0, max_size=8))
    def test_any_crash_sequence_fully_restores(self, crashes):
        """However switches crash (repeats included), restoring every
        one of them returns the fabric to its fully-up state."""
        fabric = _fabric()
        healthy = _fabric_state(fabric)
        for name in crashes:
            fabric.crash_switch(name)
        for name in sorted(set(crashes)):
            fabric.restore_switch(name)
        assert _fabric_state(fabric) == healthy


class TestRouteRecomputationAfterSetLinkState:
    """Satellite 4: routing recomputes from live link state on every
    call — no stale-route cache survives a ``set_link_state``."""

    def test_restored_link_usable_by_next_placement(self):
        fabric = _fabric()
        fabric.set_link_state("leaf0", "spine0", up=False)
        # Pinning through spine0 now forces a revisiting detour.
        with pytest.raises(PlacementError):
            _calc_tenant(fabric, 1, via=("spine0",))
        fabric._release_tenant(1)
        assert _calc_tenant(fabric, 2).routes == \
            [["leaf0", "spine1", "leaf1"]]
        fabric.set_link_state("leaf0", "spine0", up=True)
        assert _calc_tenant(fabric, 3, via=("spine0",)).routes == \
            [["leaf0", "spine0", "leaf1"]]

    def test_restored_link_usable_by_migration(self):
        fabric = _fabric()
        tenant = _calc_tenant(fabric, 1, via=("spine0",))
        fabric.set_link_state("leaf0", "spine0", up=False)
        assert tenant.migrate(("leaf1", 0)) == \
            ["leaf0", "spine1", "leaf1"]
        fabric.set_link_state("leaf0", "spine0", up=True)
        assert tenant.migrate(("leaf1", 0), via=("spine0",)) == \
            ["leaf0", "spine0", "leaf1"]

    def test_shortest_paths_and_next_hop_follow_link_state(self):
        fabric = _fabric()
        fabric.set_link_state("leaf0", "spine0", up=False)
        assert fabric.shortest_paths("leaf0", "leaf1") == \
            [["leaf0", "spine1", "leaf1"]]
        with pytest.raises(LinkDownError):
            fabric.next_hop_port("leaf0", "spine0")
        fabric.set_link_state("leaf0", "spine0", up=True)
        assert ["leaf0", "spine0", "leaf1"] in \
            fabric.shortest_paths("leaf0", "leaf1")
        assert fabric.next_hop_port("leaf0", "spine0") == HOSTS

    def test_restored_link_carries_traffic_again(self):
        fabric = _fabric(spines=1)
        tenant = _calc_tenant(fabric, 1)
        fabric.set_link_state("leaf0", "spine0", up=False)
        lost = serve(
            fabric, [("leaf0", calc.make_packet(1, calc.OP_ADD, 1, 2))])
        assert [r.link for r in lost.lost_records()] == \
            [fabric.link_between("leaf0", "spine0").name]
        fabric.set_link_state("leaf0", "spine0", up=True)
        redo = serve(
            fabric, [("leaf0", calc.make_packet(1, calc.OP_ADD, 1, 2))])
        assert redo.exits(1) == [("leaf1", 0)]
        assert tenant.is_stranded() is False


def _pkt(vid):
    return calc.make_packet(vid, calc.OP_ADD, 1, 2, pad_to=SIZE)


class TestDropQueuedAndPurgeUnderCrash:
    """Satellite 3: scheduler scrubbing under crash-drain."""

    def _loaded_scheduler(self):
        scheduler = EgressScheduler(num_ports=2, line_rate_bps=10e9)
        scheduler.set_weight(1, 2.0)
        scheduler.set_weight(2, 1.0)
        scheduler.set_rate_limit(1, 1e6)
        scheduler.set_mcast_group(7, [0, 1])
        scheduler.set_port_rate(1, 1e9)
        for vid in (1, 2):
            scheduler.enqueue(_pkt(vid), 0, module_id=vid)
            scheduler.enqueue(_pkt(vid), 1, module_id=vid)
        return scheduler

    def test_drop_queued_returns_everything_in_port_arrival_order(self):
        scheduler = self._loaded_scheduler()
        dropped = scheduler.drop_queued()
        assert [(port, vid) for port, vid, _p in dropped] == \
            [(0, 1), (0, 2), (1, 1), (1, 2)]
        assert scheduler.total_queued() == 0
        assert scheduler.drop_queued() == []

    def test_drop_queued_keeps_config_but_scrubs_data_plane(self):
        scheduler = self._loaded_scheduler()
        scheduler.dequeue(0)  # give vid 1 a live STFQ finish tag
        scheduler.drop_queued()
        # Control-plane state survives the reboot...
        assert scheduler.weight_of(1) == 2.0
        assert scheduler.rate_limit_of(1) == 1e6
        assert scheduler.mcast_ports(7) == [0, 1]
        assert scheduler.port_rate_of(1) == 1e9
        # ...data-plane state does not.
        for state in scheduler._ports:
            assert state.fifos == {}
            assert state.ranker._last_finish == {}
            assert state.seq == 0
        assert scheduler._throttle_marks == {}

    def test_no_ghost_departures_after_crash_restore(self):
        fabric = _fabric()
        _calc_tenant(fabric, 1, via=("spine0",))
        member = fabric.switch("spine0")
        member.scheduler.enqueue(_pkt(1), 0, module_id=1)
        fabric.crash_switch("spine0")
        fabric.restore_switch("spine0")
        assert member.scheduler.advance_to(1.0) == []
        # A fresh enqueue departs normally — the port is not wedged.
        member.scheduler.enqueue(_pkt(1), 0, module_id=1)
        assert len(member.scheduler.advance_to(2.0)) == 1

    def test_purge_under_crash_drain_scrubs_one_tenant_only(self):
        scheduler = self._loaded_scheduler()
        purged = scheduler.purge(1)
        assert len(purged) == 2
        assert scheduler.queue_depth(1) == 0
        assert scheduler.queue_depth(2) == 2
        # Weight, bucket, finish tags, throttle marks: all gone for 1.
        assert scheduler.weight_of(1) == 1.0  # back to default
        assert scheduler.rate_limit_of(1) is None
        for port, state in enumerate(scheduler._ports):
            assert 1 not in state.ranker.weights
            assert 1 not in state.ranker._last_finish
            assert (port, 1) not in scheduler._throttle_marks
        # The neighbor still drains normally afterwards.
        assert len(scheduler.advance_to(1.0)) == 2

    def test_release_tenant_under_crash_drain(self):
        """Unloading a tenant whose route crossed a crashed switch
        still evicts every handle and frees the VID fabric-wide."""
        fabric = _fabric()
        tenant = _calc_tenant(fabric, 1, via=("spine0",), weight=2.0)
        fabric.switch("leaf0").scheduler.enqueue(
            _pkt(1), HOSTS, module_id=1)
        fabric.crash_switch("spine0")
        tenant.unload()
        assert tenant.switches() == []
        for name in ("leaf0", "spine0", "leaf1"):
            member = fabric.switch(name)
            assert 1 not in member.switch.controller.modules
            assert member.scheduler.queue_depth(1) == 0
            assert member.scheduler.weight_of(1) == 1.0
        # The VID is free again — a new tenant can claim it.
        fabric.restore_switch("spine0")
        assert _calc_tenant(fabric, 1, via=("spine0",)).routes == \
            [["leaf0", "spine0", "leaf1"]]


class TestRecovery:
    def test_detection_delay_must_be_nonnegative(self):
        with pytest.raises(ConfigError, match=">= 0"):
            RecoveryController(_fabric(), detection_delay_s=-1.0)

    def test_stranded_detection(self):
        fabric = _fabric()
        victim = _calc_tenant(fabric, 1, via=("spine0",))
        bystander = _calc_tenant(fabric, 2, via=("spine1",))
        recovery = RecoveryController(fabric)
        assert recovery.stranded() == []
        fabric.set_link_state("leaf0", "spine0", up=False)
        assert recovery.stranded() == [victim]
        assert victim.is_stranded() and not bystander.is_stranded()
        fabric.set_link_state("leaf0", "spine0", up=True)
        fabric.crash_switch("spine0")
        assert recovery.stranded() == [victim]

    def test_replacement_drains_carries_and_rearms(self):
        """The full recovery sequence over a link failure: stale queue
        drained, registers carried across the move, weight kept,
        and the NetChain sequence numbers continue unbroken."""
        fabric = _fabric()
        tenant = fabric.tenant(
            "chain", netchain.P4_SOURCE, vid=5,
            installer=lambda t, port: netchain.install(t, port=port))
        tenant.place(("leaf0", 0), ("leaf1", 1), via=("spine0",))
        tenant.set_weight(2.0)
        for _ in range(3):
            result = serve(fabric, [("leaf0", netchain.make_packet(5))])
        assert netchain.read_seq(result.delivered_for(5)[0]) == 3
        # Strand it with a stale backlog pointed at the dead wire.
        uplink = tenant.egress_ports()["leaf0"]
        for _ in range(4):
            fabric.switch("leaf0").scheduler.enqueue(
                netchain.make_packet(5), uplink, module_id=5)
        fabric.set_link_state("leaf0", "spine0", up=False)

        recovery = RecoveryController(fabric, detection_delay_s=1e-3)
        action, = recovery.recover(now=2e-3, fault_at_s=1e-3)
        assert action.recovered and action.reason == ""
        assert action.old_route == ("leaf0", "spine0", "leaf1")
        assert action.new_route == ("leaf0", "spine1", "leaf1")
        assert action.drained == 4
        assert action.carried == (("spine0", "spine1"),)
        assert action.state_lost == ()
        assert action.recovery_latency_s == pytest.approx(1e-3)
        # Queues drained, weight kept on old and new switches.
        assert fabric.switch("leaf0").scheduler.queue_depth(5) == 0
        assert fabric.switch("leaf0").scheduler.weight_of(5) == 2.0
        assert fabric.switch("spine1").scheduler.weight_of(5) == 2.0
        # Register state carried: every hop still reads 3, and the
        # next packet sequences as 4 — no reset, no replay.
        for name in ("leaf0", "spine1", "leaf1"):
            assert tenant.handle(name).register("sequencer").read(0) == 3
        result = serve(fabric, [("leaf0", netchain.make_packet(5))])
        assert netchain.read_seq(result.delivered_for(5)[0]) == 4

    def test_drain_leaves_the_live_tenant_whole(self):
        """The drain scrubs only the tenant's queue on the dead wire.
        On a switch the tenant stays on, its counters keep their
        pre-drain values, its weight, rate and bucket tokens are
        unchanged, and its queue on another port survives."""
        fabric = _fabric()
        tenant = _calc_tenant(fabric, 1, via=("spine0",), weight=2.0)
        tenant.set_rate_limit(1e6, 4000.0)
        serve(fabric, [("leaf0", _pkt(1)) for _ in range(3)])
        leaf0 = fabric.switch("leaf0")
        scheduler = leaf0.scheduler
        uplink = tenant.egress_ports()["leaf0"]
        for port in (uplink, uplink, HOSTS - 1):
            scheduler.enqueue(_pkt(1), port, module_id=1)
        handle = tenant.handle("leaf0")
        before = handle.counters()
        bucket = scheduler._buckets[1]
        tokens = bucket.tokens
        assert before.packets_in == 3 and tokens < 4000.0
        fabric.set_link_state("leaf0", "spine0", up=False)

        action, = RecoveryController(fabric).recover(now=1e-3)
        assert action.recovered and action.drained == 2
        assert scheduler.queue_len(uplink) == 0
        assert scheduler.queue_len(HOSTS - 1) == 1
        # only the gauge moves: two packets left the queue, uncounted
        assert handle.counters() == dataclasses.replace(
            before, egress_queue_depth=before.egress_queue_depth - 2)
        assert scheduler.weight_of(1) == 2.0
        assert scheduler._buckets[1] is bucket
        assert (bucket.rate, bucket.burst, bucket.tokens) == \
            (1e6, 4000.0, tokens)

    def test_crashed_switch_state_is_reported_lost(self):
        fabric = _fabric()
        tenant = fabric.tenant(
            "chain", netchain.P4_SOURCE, vid=5,
            installer=lambda t, port: netchain.install(t, port=port))
        tenant.place(("leaf0", 0), ("leaf1", 1), via=("spine0",))
        for _ in range(3):
            serve(fabric, [("leaf0", netchain.make_packet(5))])
        fabric.crash_switch("spine0")
        action, = RecoveryController(fabric).recover(now=1e-3)
        assert action.recovered
        assert action.state_lost == ("spine0",)
        assert action.carried == ()  # nothing readable to carry
        # The heir starts from zero; surviving hops keep their state.
        assert tenant.handle("spine1").register("sequencer").read(0) == 0
        assert tenant.handle("leaf1").register("sequencer").read(0) == 3

    def test_unrecoverable_tenant_is_reported_not_silently_dropped(self):
        fabric = _fabric(spines=1)
        tenant = _calc_tenant(fabric, 1, weight=2.0)
        fabric.crash_switch("spine0")
        action, = RecoveryController(fabric).recover(now=1e-3)
        assert not action.recovered
        assert action.new_route == ()
        assert "no up path" in action.reason
        # The fabric is left no worse: still placed, still stranded,
        # and a later sweep can try again.
        assert tenant.routes == [["leaf0", "spine0", "leaf1"]]
        assert tenant.is_stranded()

    def test_fragmented_heir_is_reported_and_the_sweep_goes_on(self):
        """An heir with free VID slots but no stage window for the
        program refuses the move with an ``AdmissionError``: the tenant
        is recorded unrecovered with that reason, and the next stranded
        VID is still re-placed."""
        fabric = _fabric()
        kv = fabric.tenant("kv", netcache.P4_SOURCE, vid=2,
                           installer=lambda t, port: netcache.install(t))
        kv.place(("leaf0", 0), ("leaf1", 1), via=("spine0",))
        _calc_tenant(fabric, 3, via=("spine0",))
        controller = fabric.switch("spine1").switch.controller
        for vid in range(10, 30):           # four fillers per stage
            controller.load_module(vid, calc.P4_SOURCE)
        for vid in (10, 15, 12, 17):        # free rows in stages 0, 2
            controller.unload_module(vid)
        ledger = controller.pipeline.ledger
        assert [ledger.free_match_rows(stage) for stage in range(5)] == \
            [8, 0, 8, 0, 0]
        assert len(controller.modules) == 16
        fabric.crash_switch("spine0")

        stuck, moved = RecoveryController(fabric).recover(now=1e-3)
        assert (stuck.vid, stuck.recovered) == (2, False)
        assert "does not fit in any stage window" in stuck.reason
        assert stuck.new_route == ()
        assert kv.routes == [["leaf0", "spine0", "leaf1"]]
        assert kv.is_stranded()
        assert (moved.vid, moved.recovered) == (3, True)
        assert moved.new_route == ("leaf0", "spine1", "leaf1")

    def test_register_handle_size(self):
        """The snapshot surface: ``RegisterHandle.size`` reports the
        compiled word count."""
        from repro.api import Switch
        switch = Switch.build().create()
        cache = switch.admit("kv", netcache.P4_SOURCE, vid=2)
        netcache.install(cache, cached=[(1, 0, 42)])
        assert cache.register("values").size == 8
        assert cache.register("op_stats").size == 4
        chain = switch.admit("chain", netchain.P4_SOURCE, vid=3)
        assert chain.register("sequencer").size == 1


class TestMidRunLinkFlap:
    """Satellite 2: the flap regression, with exact loss accounting."""

    DURATION = 16e-3
    BIN = 1e-3
    DOWN_AT, UP_AT = 6e-3, 10e-3

    def _run(self):
        fabric = _fabric()
        _calc_tenant(fabric, 1, via=("spine1",), weight=1.0)
        _calc_tenant(fabric, 2, via=("spine0",), weight=1.0)
        schedule = ChaosSchedule()
        schedule.flap_link("leaf0", "spine0", self.DOWN_AT, self.UP_AT)
        controller = ChaosController(fabric)
        matrix = _matrix([1, 2])
        experiment = FabricTimelineExperiment(
            fabric, matrix, duration_s=self.DURATION, bin_s=self.BIN)
        controller.arm(experiment, schedule)
        return matrix, experiment.run(), controller

    def test_victim_loses_exactly_the_inflight_packets(self):
        matrix, result, controller = self._run()
        dead = controller.fabric.link_between("leaf0", "spine0").name
        # Every loss is the victim's, on the dead link, inside the
        # outage — and the books balance exactly per tenant.
        assert set(result.lost_by_link) == {(2, dead)}
        assert all(v == 2 and link == dead
                   and self.DOWN_AT <= t <= self.UP_AT + self.BIN
                   for t, v, link in result.loss_log)
        offered = _offered(matrix, self.DURATION)
        for vid in (1, 2):
            assert offered[vid] == (
                result.delivered.get(vid, 0) + result.drops.get(vid, 0)
                + result.lost.get(vid, 0)), vid
        assert result.lost == {2: result.lost_by_link[(2, dead)]}
        assert result.lost[2] > 0
        # lost_records() reconciles with the sink's per-link counts.
        records = result.lost_records()
        assert [(r.vid, r.link) for r in records] == [(2, dead)]
        assert sum(r.count for r in records) == result.lost[2]

    def test_untouched_tenant_holds_churn_bench_bound(self):
        _matrix_, result, _controller = self._run()
        series = result.throughput_gbps[1]
        interior = [t for b, t in zip(result.bins, series)
                    if result.bins[0] < b and b + self.BIN <= self.DURATION]
        steady = sum(interior) / len(interior)
        assert max(abs(t - steady) / steady for t in interior) <= 0.05
        assert result.lost.get(1, 0) == 0

    def test_victim_resumes_after_the_flap(self):
        _matrix_, result, _controller = self._run()
        outage = result.throughput_inside(2, (self.DOWN_AT, self.UP_AT))
        after = result.throughput_inside(
            2, (self.UP_AT + self.BIN, self.DURATION))
        healthy = result.throughput_inside(2, (self.BIN, self.DOWN_AT))
        steady = sum(healthy) / len(healthy)
        assert min(outage) < steady * 0.5
        assert max(abs(t - steady) / steady for t in after) <= 0.05

    def test_post_mortem_attributes_the_flap(self):
        _matrix_, result, controller = self._run()
        post_mortem = controller.post_mortem(result)
        down, up = (r for r in post_mortem.events)
        assert down.event.kind == "link-down"
        assert down.victims == (2,)
        assert down.packets_lost == result.lost[2]
        assert up.event.kind == "link-up"
        assert up.victims == () and up.lost == ()
        assert post_mortem.unattributed == ()
        assert post_mortem.total_lost() == result.lost[2]
        assert post_mortem.lost_by_link() == \
            {link: n for (_v, link), n in result.lost_by_link.items()}


class TestEndToEndDeterminism:
    """Satellite 1: identical seeds, identical post-mortems."""

    DURATION = 6e-3
    BIN = 1e-3

    def _run_crash_scenario(self):
        fabric = _fabric()
        _calc_tenant(fabric, 1, via=("spine1",), weight=1.0)
        _calc_tenant(fabric, 2, via=("spine0",), weight=1.0)
        schedule = ChaosSchedule()
        schedule.crash_switch("spine0", 2e-3)
        schedule.restore_switch("spine0", 5e-3)
        controller = ChaosController(
            fabric, recovery=RecoveryController(
                fabric, detection_delay_s=1e-3))
        experiment = FabricTimelineExperiment(
            fabric, _matrix([1, 2]), duration_s=self.DURATION,
            bin_s=self.BIN)
        controller.arm(experiment, schedule)
        result = experiment.run()
        return controller.post_mortem(result)

    def test_crash_recovery_post_mortems_are_identical(self):
        one, two = self._run_crash_scenario(), self._run_crash_scenario()
        assert one == two
        assert one.to_json() == two.to_json()
        replaced, = one.replaced()
        assert replaced.vid == 2 and replaced.recovered

    def _run_flap_scenario(self, seed):
        fabric = _fabric()
        _calc_tenant(fabric, 1, via=("spine1",), weight=1.0)
        _calc_tenant(fabric, 2, via=("spine0",), weight=1.0)
        schedule = ChaosSchedule.random_flaps(
            [("leaf0", "spine0"), ("leaf1", "spine0")], 2,
            self.DURATION, 0.5e-3, 1.5e-3, seed=seed)
        controller = ChaosController(fabric)
        experiment = FabricTimelineExperiment(
            fabric, _matrix([1, 2]), duration_s=self.DURATION,
            bin_s=self.BIN)
        controller.arm(experiment, schedule)
        result = experiment.run()
        return schedule, controller.post_mortem(result)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 2 ** 20))
    def test_seeded_flaps_replay_end_to_end(self, seed):
        schedule_one, report_one = self._run_flap_scenario(SEED + seed)
        schedule_two, report_two = self._run_flap_scenario(SEED + seed)
        assert schedule_one.sorted_events() == \
            schedule_two.sorted_events()
        assert report_one == report_two
        assert report_one.to_json() == report_two.to_json()


class TestPostMortemReport:
    def _report(self):
        down_one = ChaosEvent(1e-3, "link-down", ("a", "b"))
        up_one = ChaosEvent(2e-3, "link-up", ("a", "b"))
        down_two = ChaosEvent(3e-3, "link-down", ("a", "b"))
        fired = [(down_one, ("a:1—b:0",)), (up_one, ("a:1—b:0",)),
                 (down_two, ("a:1—b:0",))]
        losses = [(1.5e-3, 7, "a:1—b:0"),   # first outage
                  (3.5e-3, 7, "a:1—b:0"),   # second outage
                  (3.6e-3, 8, "a:1—b:0"),
                  (0.5e-3, 9, "x:0—y:0")]   # nobody downed this link
        return build_post_mortem(fired, {}, losses, elapsed_s=5e-3)

    def test_losses_attribute_to_the_latest_covering_fault(self):
        report = self._report()
        first, up, second = report.events
        assert [r.vid for r in first.lost] == [7]
        assert first.packets_lost == 1
        assert up.lost == ()  # repairs never claim losses
        assert [(r.vid, r.count) for r in second.lost] == [(7, 1), (8, 1)]
        assert second.victims == (7, 8)
        assert [(r.vid, r.link) for r in report.unattributed] == \
            [(9, "x:0—y:0")]
        assert report.total_lost() == 4
        assert report.victims() == [7, 8]
        assert report.lost_by_link() == {"a:1—b:0": 3, "x:0—y:0": 1}

    def test_json_round_trip_is_exact(self):
        report = self._report()
        wire = json.dumps(report.to_json())
        assert PostMortemReport.from_json(json.loads(wire)) == report


class TestScheduleChaosBinding:
    def test_events_fire_in_order_without_drop_windows(self):
        fabric = _fabric()
        _calc_tenant(fabric, 1, via=("spine1",))
        schedule = ChaosSchedule()
        schedule.restore_switch("spine0", 3e-3)
        schedule.crash_switch("spine0", 1e-3)
        fired = []
        experiment = FabricTimelineExperiment(
            fabric, _matrix([1]), duration_s=4e-3, bin_s=1e-3)
        experiment.schedule_chaos(schedule, fired.append)
        result = experiment.run()
        assert fired == schedule.sorted_events()
        # Chaos rides VID 0 (the system's): no §4.1 window, so the
        # bystander never dropped a packet.
        assert result.drops == {}
        assert experiment.core is not None

    def test_controller_fires_standalone_without_an_experiment(self):
        """The same fire() path works untimed: fabric mutates, crash
        losses are logged locally, and post_mortem still accounts."""
        fabric = _fabric()
        _calc_tenant(fabric, 1, via=("spine0",))
        member = fabric.switch("spine0")
        member.scheduler.enqueue(_pkt(1), 0, module_id=1)
        controller = ChaosController(fabric)
        schedule = ChaosSchedule()
        crash = schedule.crash_switch("spine0", 1e-3)
        controller.fire(crash)
        assert not member.up
        report = controller.post_mortem(elapsed_s=2e-3)
        event_report, = report.events
        assert event_report.event == crash
        assert event_report.packets_lost == 1
        assert f"switch:spine0" in event_report.affected
