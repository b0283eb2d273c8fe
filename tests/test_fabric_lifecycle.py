"""Live fabric-wide tenant lifecycle.

``FabricTenant``'s lifecycle no longer ends at ``place()``: the
runtime controller's §4.1 load/update/unload procedures fan out across
the tenant's route mid-run (:meth:`~repro.fabric.tenant.FabricTenant.
update` / :meth:`~repro.fabric.tenant.FabricTenant.unload` /
:meth:`~repro.fabric.tenant.FabricTenant.migrate`), and
:class:`repro.sim.FabricReconfigEvent` +
:class:`repro.traffic.ChurnSchedule` fire those actions inside a
running event-driven timeline. These tests pin the semantics: the
churned tenant takes exactly its own disruption; neighbors never lose
a packet or a share.
"""

import pytest

import repro.compiler.compile as compiler_driver
from fabric_serve import serve
from repro.compiler import analyse
from repro.errors import AdmissionError, CompilerError, ConfigError, \
    PlacementError
from repro.fabric import Fabric, leaf_spine
from repro.modules import calc, netcache, netchain
from repro.sim import FabricTimelineExperiment
from repro.traffic import ChurnSchedule, TrafficMatrix

HOSTS = 4
PACKET_SIZE = 500


def installer(tenant, port):
    calc.install(tenant, port=port)


def make_fabric(leaves=2, spines=1):
    return leaf_spine(leaves=leaves, spines=spines, hosts_per_leaf=HOSTS)


def place_calc(fabric, vid, src, dst):
    tenant = fabric.tenant(f"calc{vid}", calc.P4_SOURCE, vid=vid,
                           installer=installer)
    tenant.place(src, dst)
    return tenant


def _packet(vid, i=0):
    return calc.make_packet(vid, calc.OP_ADD, i, i + 1,
                            pad_to=PACKET_SIZE)


def _delivers(fabric, vid, n=3):
    result = serve(fabric, [("leaf0", _packet(vid, i)) for i in range(n)])
    return len(result.delivered_for(vid)) == n and not result.lost



def _placed_chain():
    """NetChain (VID 5) on leaf0 -> spine0 -> leaf1, sequenced to 3."""
    fabric = make_fabric(spines=2)
    tenant = fabric.tenant(
        "chain", netchain.P4_SOURCE, vid=5,
        installer=lambda t, port: netchain.install(t, port=port))
    tenant.place(("leaf0", 0), ("leaf1", 1), via=("spine0",))
    assert _next_seq(fabric, n=3) == 3
    return fabric, tenant


def _sequencers(tenant):
    return {name: handle.register("sequencer").read(0)
            for name, handle in tenant.handles().items()}


def _next_seq(fabric, n=1):
    """Send ``n`` NetChain packets; the sequence the last one carries."""
    result = serve(fabric, [("leaf0", netchain.make_packet(5))
                            for _ in range(n)])
    return max(netchain.read_seq(p) for p in result.delivered_for(5))


# ------------------------------------------------------------------ update

class TestUpdate:
    def test_update_fans_out_across_the_route(self):
        fabric = make_fabric()
        tenant = place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 1))
        assert _delivers(fabric, 1)
        tenant.update(calc.P4_SOURCE)
        # Program and steering entries are re-landed on all 3 switches;
        # end-to-end computation still works.
        result = serve(fabric, [("leaf0", _packet(1, 20))])
        out = result.delivered_for(1)
        assert len(out) == 1
        assert calc.read_result(out[0]) == 41
        assert tenant.switches() == ["leaf0", "spine0", "leaf1"]

    def test_update_is_hitless_for_neighbors(self):
        fabric = make_fabric()
        tenant = place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 0))
        neighbor = place_calc(fabric, 2, ("leaf0", 1), ("leaf1", 1))
        before = neighbor.counters().packets_dropped
        tenant.update(calc.P4_SOURCE)
        assert _delivers(fabric, 2)
        assert neighbor.counters().packets_dropped == before

    def test_update_can_swap_the_installer(self):
        fabric = make_fabric()
        tenant = place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 1))
        seen = []

        def tracking_installer(handle, port):
            seen.append((handle.switch, port))
            calc.install(handle, port=port)

        tenant.update(calc.P4_SOURCE, installer=tracking_installer)
        # Installer re-ran everywhere with each switch's recorded
        # egress: leaf0 -> uplink, spine0 -> toward leaf1, leaf1 -> host.
        assert len(seen) == 3
        assert tenant.installer is tracking_installer
        assert _delivers(fabric, 1)

    def test_failed_update_leaves_tenant_and_switches_unchanged(self):
        fabric = make_fabric()
        tenant = place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 1))
        with pytest.raises(CompilerError):
            tenant.update("definitely not P4")
        # Compilation fails before any teardown: the switches still run
        # the old program and the tenant object still claims it.
        assert tenant.source == calc.P4_SOURCE
        assert tenant.installer is installer
        assert _delivers(fabric, 1)

    def test_mid_route_update_failure_rolls_back(self, monkeypatch):
        # The source compiles, but one switch's reinstall is rejected
        # after its teardown already ran (the §4.1 install half can
        # fail on fragmentation). The fan-out must restore the old
        # program everywhere — never leave the route mixed, with one
        # switch empty.
        fabric = make_fabric()
        tenant = place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 1))
        spine_handle = tenant.handle("spine0")

        def torn_down_then_rejected(source):
            spine_handle._controller.unload_module(1)
            raise AdmissionError("no contiguous CAM block free")

        monkeypatch.setattr(spine_handle, "update",
                            torn_down_then_rejected)
        with pytest.raises(AdmissionError):
            tenant.update(calc.P4_SOURCE)
        # All three switches serve the old program again (spine0 was
        # re-admitted; leaf0 — updated before the failure — was
        # updated back), and the object still reports it.
        assert tenant.source == calc.P4_SOURCE
        assert sorted(tenant.switches()) == ["leaf0", "leaf1", "spine0"]
        for member in fabric.switches():
            assert 1 in member.switch.controller.modules
        assert _delivers(fabric, 1)

    def test_installer_failure_mid_route_rolls_back_that_switch_too(self):
        # The update itself lands on spine0 — new program, entries
        # wiped — and then its *installer* raises. spine0 is as much on
        # the new program as leaf0 is, and must be rolled back with it;
        # left behind it would hold the program with zero entries and
        # black-hole the route.
        fabric = make_fabric()
        tenant = place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 1))
        entries = {name: handle.table("calc_table").occupancy()
                   for name, handle in tenant.handles().items()}
        assert list(entries) == ["leaf0", "spine0", "leaf1"]
        assert all(entries.values())
        calls = []

        def raises_on_second_switch(handle, port):
            calls.append(handle.switch)
            if len(calls) == 2:
                raise ConfigError("installer rejected on the spine")
            calc.install(handle, port=port)

        with pytest.raises(ConfigError, match="rejected on the spine"):
            tenant.update(calc.P4_SOURCE, installer=raises_on_second_switch)
        assert len(calls) == 2      # leaf1 was never reached
        assert tenant.source == calc.P4_SOURCE
        assert tenant.installer is installer
        assert tenant.switches() == ["leaf0", "spine0", "leaf1"]
        for name, handle in tenant.handles().items():
            assert 1 in fabric.switch(name).switch.controller.modules
            assert handle.table("calc_table").occupancy() == entries[name]
        assert _delivers(fabric, 1)

    def test_update_before_place_is_a_typed_error(self):
        fabric = make_fabric()
        tenant = fabric.tenant("calc", calc.P4_SOURCE, vid=1,
                               installer=installer)
        with pytest.raises(PlacementError, match="not placed"):
            tenant.update(calc.P4_SOURCE)


# ------------------------------------------------------------------ fan-out

class TestFanOutAnalysesOnce:
    """Counts only: one compiler frontend pass per fan-out call, however
    many switches (or stage windows) the program lands on — the backend,
    the admission verify and the §4.1 writes are what repeat."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """Frontend passes (program names) and backend runs (stage
        windows) as the compiler driver performs them."""
        frontend, backend = [], []
        parse_source, emit = compiler_driver.parse_source, \
            compiler_driver.emit

        def counted_parse(source, name="<module>"):
            frontend.append(name)
            return parse_source(source, name)

        def counted_emit(ir, target, *alloc):
            backend.append(list(target.stage_map))
            return emit(ir, target, *alloc)

        monkeypatch.setattr(compiler_driver, "parse_source", counted_parse)
        monkeypatch.setattr(compiler_driver, "emit", counted_emit)

        def take():
            counts = len(frontend), len(backend)
            del frontend[:], backend[:]
            return counts
        return take

    def test_place_update_migrate_and_rollback(self, passes):
        fabric = make_fabric(leaves=3)
        tenant = fabric.tenant("calc1", calc.P4_SOURCE, vid=1,
                               installer=installer)
        tenant.place(("leaf0", 0), ("leaf1", 1))
        assert tenant.switches() == ["leaf0", "spine0", "leaf1"]
        assert passes() == (1, 3)

        tenant.update(calc.P4_SOURCE)
        assert passes() == (1, 3)
        assert _delivers(fabric, 1)

        # A caller that analysed already is not analysed again.
        analysed = analyse(calc.P4_SOURCE, "calc1")
        assert passes() == (1, 0)
        tenant.update(analysed).update(calc.P4_SOURCE)
        assert passes() == (1, 6)
        assert _delivers(fabric, 1)

        # New leaf2 is loaded, shared spine0 re-steered by an update,
        # abandoned leaf1 unloaded — one analysis between them.
        tenant.migrate(dst=("leaf2", 2))
        assert tenant.switches() == ["leaf0", "spine0", "leaf2"]
        assert passes() == (1, 2)

        # A failed update with rollback analyses the new program once
        # and the old program once more to restore it.
        calls = []

        def raises_on_second_switch(handle, port):
            calls.append(handle.switch)
            if len(calls) == 2:
                raise ConfigError("installer rejected on the spine")
            calc.install(handle, port=port)

        with pytest.raises(ConfigError):
            tenant.update(calc.P4_SOURCE, installer=raises_on_second_switch)
        frontend, backend = passes()
        assert 1 <= frontend <= 2
        assert backend == 4     # two switches forward, the same two back
        result = serve(fabric, [("leaf0", _packet(1, 7))])
        assert result.exits(1) == [("leaf2", 2)]

    def test_load_shifting_stage_windows_analyses_once(self, passes):
        # Stage 0 has the most free CAM rows, so its window is tried
        # first — and netcache's second table finds stage 1 full. The
        # load shifts to the window starting at stage 2 and is admitted:
        # two backend runs, one frontend pass.
        fabric = make_fabric()
        controller = fabric.switch("leaf0").switch.controller
        assert controller.compile_target().stage_map == [0, 1, 2, 3, 4]
        for vid in range(1, 21):        # four fillers per stage
            controller.load_module(vid, calc.P4_SOURCE)
        for vid in (1, 6, 11, 16, 3, 8, 4, 9):
            controller.unload_module(vid)
        ledger = controller.pipeline.ledger
        assert [ledger.free_match_rows(stage) for stage in range(5)] == \
            [16, 0, 8, 8, 0]
        passes()
        loaded = controller.load_module(30, netcache.P4_SOURCE, "netcache")
        assert passes() == (1, 2)
        assert loaded.compiled.stages_used() == [2, 3]


class TestCompileOnce:
    """Counts only: ``repro.api.compile`` (behind ``Switch.compile`` and
    ``repro-compile``) parses, typechecks and emits a program once, and
    its verifier findings read that one result."""

    def test_facade_compile_runs_each_phase_once(self, monkeypatch):
        from repro.api import compile as api_compile
        from repro.modules import firewall

        counts = {"parse_source": 0, "typecheck": 0, "emit": 0}
        for phase in counts:
            real = getattr(compiler_driver, phase)

            def counted(*args, _real=real, _phase=phase):
                counts[_phase] += 1
                return _real(*args)
            monkeypatch.setattr(compiler_driver, phase, counted)

        result = api_compile(firewall.P4_SOURCE, "firewall")
        assert result.ok
        assert counts == {"parse_source": 1, "typecheck": 1, "emit": 1}


# ------------------------------------------------------------------ unload

class TestUnload:
    def test_unload_releases_every_switch_and_the_vid(self):
        fabric = make_fabric()
        tenant = place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 1))
        slots = {m.name: m.free_module_slots() for m in fabric.switches()}
        tenant.unload()
        assert tenant.switches() == []
        assert tenant.routes == []
        assert fabric.tenants() == []
        for member in fabric.switches():
            assert member.free_module_slots() == slots[member.name] + 1
        # The VID is free fabric-wide: a new tenant claims it.
        replacement = place_calc(fabric, 1, ("leaf0", 2), ("leaf1", 2))
        assert replacement.switches() == ["leaf0", "spine0", "leaf1"]

    def test_unloaded_tenants_packets_drop_as_unknown(self):
        fabric = make_fabric()
        tenant = place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 1))
        tenant.unload()
        result = serve(fabric, [("leaf0", _packet(1))])
        assert result.delivered_for(1) == []
        assert result.dropped.get(1, 0) == 1

    def test_unload_purges_queued_egress(self):
        fabric = make_fabric()
        tenant = place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 1))
        leaf0 = fabric.switch("leaf0")
        leaf0.engine.process_batch([_packet(1, i) for i in range(5)])
        assert leaf0.scheduler.total_queued() == 5
        tenant.unload()
        # Queued packets must not transmit under a dead VID, and the
        # scheduler forgets the tenant's weight/rate state and its
        # telemetry — the next tenant on this VID starts from zero.
        assert leaf0.scheduler.total_queued() == 0
        assert leaf0.scheduler.weight_of(1) == 1.0
        assert leaf0.scheduler.rate_limit_of(1) is None
        assert 1 not in leaf0.scheduler.per_tenant

    def test_unload_retires_counters_the_next_tenant_starts_from_zero(self):
        """Unloading retires the tenant's record on every switch: a
        tenant placed on the freed VID reads zero fabric-wide, and the
        fabric's totals keep the first tenant's packets."""
        fabric = make_fabric()
        tenant = place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 1))
        serve(fabric, [("leaf0", _packet(1, i)) for i in range(3)])
        assert tenant.counters().packets_in == 9     # three switches each
        assert tenant.counters().egress_bytes_tx > 0
        def hops():
            return sum(member.switch.stats()["packets_in"]
                       for member in fabric.switches())

        before = hops()
        tenant.unload()
        replacement = place_calc(fabric, 1, ("leaf0", 2), ("leaf1", 2))
        assert not any(vars(replacement.counters()).values())
        assert hops() == before
        serve(fabric, [("leaf0", _packet(1))])
        assert replacement.counters().packets_in == 3


# ------------------------------------------------------------------ migrate

class TestMigrate:
    def _placed(self):
        fabric = make_fabric(leaves=3)
        tenant = place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 1))
        neighbor = place_calc(fabric, 2, ("leaf0", 1), ("leaf1", 2))
        return fabric, tenant, neighbor

    def test_migrate_moves_the_route_and_evicts_the_tail(self):
        fabric, tenant, _ = self._placed()
        leaf1_slots = fabric.switch("leaf1").free_module_slots()
        path = tenant.migrate(dst=("leaf2", 2))
        assert path == ["leaf0", "spine0", "leaf2"]
        assert tenant.routes == [path]
        assert sorted(tenant.switches()) == ["leaf0", "leaf2", "spine0"]
        # leaf1 released its slot; leaf2 now hosts the program.
        assert fabric.switch("leaf1").free_module_slots() == \
            leaf1_slots + 1
        result = serve(fabric, [("leaf0", _packet(1, 7))])
        assert result.exits(1) == [("leaf2", 2)]
        assert calc.read_result(result.delivered_for(1)[0]) == 15

    def test_migrate_resteers_shared_switches(self):
        fabric, tenant, _ = self._placed()
        spine = fabric.switch("spine0")
        before = tenant.handle("spine0")
        tenant.migrate(dst=("leaf2", 2))
        # spine0 was on both routes but its next hop changed: the §4.1
        # update re-landed the program there (same VID, new steering).
        assert 1 in spine.switch.controller.modules
        assert tenant._egress["spine0"] == 2  # spine port 2 faces leaf2
        assert tenant.handle("spine0") is before

    def test_migrate_is_hitless_for_neighbors(self):
        fabric, tenant, neighbor = self._placed()
        tenant.migrate(dst=("leaf2", 2))
        assert _delivers(fabric, 2)
        assert neighbor.switches() == ["leaf0", "spine0", "leaf1"]

    def test_migrate_validates_before_mutating(self):
        fabric, tenant, _ = self._placed()
        with pytest.raises(PlacementError, match="fabric port"):
            tenant.migrate(dst=("leaf2", HOSTS))  # an uplink, not a host
        # Old placement intact after the failed migration.
        assert tenant.routes == [["leaf0", "spine0", "leaf1"]]
        assert _delivers(fabric, 1)

    def test_failed_admission_rolls_back_new_switches(self):
        # leaf2 keeps free VID slots (passing the slot pre-check) but
        # its CAM is exhausted, so admission fails *after* spine1 —
        # also new on the pinned route — was already admitted. The
        # migration must evict spine1 again and leave the old
        # placement fully intact.
        fabric = leaf_spine(leaves=3, spines=2, hosts_per_leaf=HOSTS)
        tenant = fabric.tenant("calc30", calc.P4_SOURCE, vid=30,
                               installer=installer)
        tenant.place(("leaf0", 0), ("leaf1", 0), via=("spine0",))
        leaf2 = fabric.switch("leaf2")
        for vid in range(1, 32):
            try:
                leaf2.switch.admit(f"filler{vid}", calc.P4_SOURCE,
                                   vid=vid)
            except AdmissionError:
                break  # CAM-bound before the VID slots run out
        assert leaf2.free_module_slots() > 0
        spine1_slots = fabric.switch("spine1").free_module_slots()
        with pytest.raises(AdmissionError):
            tenant.migrate(dst=("leaf2", 0), via=("spine1",))
        assert fabric.switch("spine1").free_module_slots() == \
            spine1_slots
        assert 30 not in fabric.switch("spine1").switch.controller.modules
        assert tenant.routes == [["leaf0", "spine0", "leaf1"]]
        assert sorted(tenant.switches()) == ["leaf0", "leaf1", "spine0"]
        assert _delivers(fabric, 30)

    def test_migrate_carries_the_netchain_sequence(self):
        # Same route, new host port: leaf1 is re-steered by a §4.1
        # update (which wipes its registers) and gets them back.
        fabric, tenant = _placed_chain()
        tenant.migrate(("leaf1", 2))
        assert _sequencers(tenant) == \
            {"leaf0": 3, "spine0": 3, "leaf1": 3}
        assert _next_seq(fabric) == 4

    def test_migrate_hands_an_abandoned_switch_state_to_its_heir(self):
        # New spine: leaf0 is re-steered, spine1 inherits spine0's
        # registers, leaf1 keeps its steering and its state.
        fabric, tenant = _placed_chain()
        tenant.migrate(("leaf1", 1), via=("spine1",))
        assert _sequencers(tenant) == \
            {"leaf0": 3, "spine1": 3, "leaf1": 3}
        assert _next_seq(fabric) == 4

    def test_migrate_requires_exactly_one_route(self):
        fabric = make_fabric()
        tenant = fabric.tenant("calc", calc.P4_SOURCE, vid=1,
                               installer=installer)
        with pytest.raises(PlacementError, match="exactly one"):
            tenant.migrate(dst=("leaf1", 0))
        tenant.place(("leaf0", 0), ("leaf1", 0))
        tenant.place(("leaf0", 1), ("leaf1", 0))  # second agreeing demand
        with pytest.raises(PlacementError, match="exactly one"):
            tenant.migrate(dst=("leaf1", 2))


# ------------------------------------------- reconfiguration mid-timeline

def one_switch_fabric():
    fabric = Fabric()
    fabric.add_switch("sw0")
    return fabric


def _one_switch_matrix():
    """VID 1 at 8 Mbit/s from host port 0 to host port 1."""
    matrix = TrafficMatrix()
    matrix.add(1, ("sw0", 0), ("sw0", 1), offered_bps=8e6,
               packet_size=PACKET_SIZE,
               make_packet=lambda: _packet(1))
    return matrix


def _matrix(vids, pps=2e5):
    matrix = TrafficMatrix()
    for vid in vids:
        matrix.add(vid, ("leaf0", vid - 1), ("leaf1", vid - 1),
                   offered_bps=pps * (PACKET_SIZE + 24) * 8,
                   packet_size=PACKET_SIZE,
                   make_packet=lambda vid=vid: _packet(vid))
    return matrix


class TestFabricReconfigEvent:
    def test_window_drops_exactly_the_churned_tenant(self):
        fabric = make_fabric()
        place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 0))
        place_calc(fabric, 2, ("leaf0", 1), ("leaf1", 1))
        experiment = FabricTimelineExperiment(
            fabric, _matrix([1, 2]), duration_s=1e-3, bin_s=1e-4)
        experiment.schedule_reconfig(vid=2, start_s=4e-4,
                                     duration_s=2e-4)
        result = experiment.run()
        # Tenant 2 lost packets during its §4.1 window; tenant 1 kept
        # every one of its own.
        assert result.drops.get(2, 0) > 0
        assert result.drops.get(1, 0) == 0
        assert result.delivered[1] > 0
        assert result.lost_records() == []
        # And the window closed: no lingering bitmap bit.
        for member in fabric.switches():
            assert not member.switch.pipeline.packet_filter \
                .is_module_updating(2)

    def test_live_update_fires_inside_the_run(self):
        fabric = make_fabric()
        tenant = place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 0))
        fired = []
        experiment = FabricTimelineExperiment(
            fabric, _matrix([1]), duration_s=1e-3, bin_s=1e-4)
        experiment.schedule_reconfig(
            vid=1, start_s=5e-4, duration_s=1e-4,
            apply=lambda: fired.append(
                tenant.update(calc.P4_SOURCE) and None))
        result = experiment.run()
        assert fired == [None]
        # Disrupted during its own window, serving before and after.
        assert result.delivered[1] > 0
        assert result.drops.get(1, 0) > 0


    def test_overlapping_windows_hold_until_the_last_ends(self):
        # Two overlapping §4.1 windows for the same tenant must cover
        # their union: the earlier close must not truncate the later
        # window. Windows [2, 4) ms and [3, 5) ms at 200 packets/ms
        # drop the 3 ms union's worth of arrivals (plus at most a
        # couple of packets already in flight mid-route when the
        # window opened) — a truncated window would drop only ~2 ms
        # worth (~400).
        fabric = make_fabric()
        place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 0))
        experiment = FabricTimelineExperiment(
            fabric, _matrix([1]), duration_s=8e-3, bin_s=1e-3)
        experiment.schedule_reconfig(vid=1, start_s=2e-3,
                                     duration_s=2e-3)
        experiment.schedule_reconfig(vid=1, start_s=3e-3,
                                     duration_s=2e-3)
        result = experiment.run()
        offered = 8e-3 * 2e5
        assert 600 <= result.drops[1] <= 605
        assert result.delivered[1] + result.drops[1] == offered

    def test_update_inside_an_open_window_keeps_it_open(self):
        # A live update fired inside another event's [2, 8) ms window
        # reinstalls the tenant under its own nested hold; closing that
        # hold must not end the outer window.
        fabric = one_switch_fabric()
        tenant = place_calc(fabric, 1, ("sw0", 0), ("sw0", 1))
        experiment = FabricTimelineExperiment(
            fabric, _one_switch_matrix(), duration_s=0.01, bin_s=1e-3)
        experiment.schedule_reconfig(1, 0.002, 0.006)
        experiment.schedule_reconfig(
            1, 0.004, 0.0, apply=lambda: tenant.update(calc.P4_SOURCE))
        series = experiment.run().throughput_gbps[1]
        assert series[2:8] == [0.0] * 6
        assert all(series[i] > 0 for i in (0, 1, 8, 9))

    def test_run_inside_updating_leaves_the_outer_window_open(self):
        fabric = one_switch_fabric()
        place_calc(fabric, 1, ("sw0", 0), ("sw0", 1))
        switch = fabric.switch("sw0").switch
        experiment = FabricTimelineExperiment(
            fabric, _one_switch_matrix(), duration_s=0.01, bin_s=1e-3)
        experiment.schedule_reconfig(1, 0.002, 0.002)
        with switch.tenant(1).updating():
            result = experiment.run()
            assert switch.pipeline.packet_filter.is_module_updating(1)
        assert result.delivered.get(1, 0) == 0
        assert not switch.pipeline.packet_filter.is_module_updating(1)


class TestChurnScheduleBinding:
    def test_events_fire_in_order_at_their_times(self):
        fabric = make_fabric()
        place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 0))
        schedule = ChurnSchedule()
        schedule.update(1, at_s=3e-4, duration_s=1e-4)
        schedule.depart(1, at_s=8e-4)
        experiment = FabricTimelineExperiment(
            fabric, _matrix([1]), duration_s=1e-3, bin_s=1e-4)
        log = []
        experiment.schedule_churn(
            schedule, apply=lambda ev: log.append((ev.kind, ev.time_s)))
        experiment.run()
        assert log == [("update", 3e-4), ("depart", 8e-4)]


    def test_churn_migrate_continues_the_netchain_sequence(self):
        # A migrate fired mid-run moves leaf1's sequencer to leaf2 and
        # gives re-steered spine0 its own back: every hop ends at the
        # count of delivered packets, as if the route never changed.
        fabric = make_fabric(leaves=3)
        tenant = fabric.tenant(
            "chain", netchain.P4_SOURCE, vid=5,
            installer=lambda t, port: netchain.install(t, port=port))
        tenant.place(("leaf0", 0), ("leaf1", 1))
        matrix = TrafficMatrix()
        matrix.add(5, ("leaf0", 0), ("leaf1", 1),
                   offered_bps=1e5 * (PACKET_SIZE + 24) * 8,
                   packet_size=PACKET_SIZE,
                   make_packet=lambda: netchain.make_packet(
                       5, pad_to=PACKET_SIZE))
        schedule = ChurnSchedule()
        schedule.migrate(5, at_s=1e-3, duration_s=1e-4)
        at_migrate = []

        def apply(event):
            at_migrate.append(_sequencers(tenant)["leaf1"])
            tenant.migrate(("leaf2", 1))

        experiment = FabricTimelineExperiment(
            fabric, matrix, duration_s=2e-3, bin_s=1e-4)
        experiment.schedule_churn(schedule, apply=apply)
        result = experiment.run()
        assert result.drops[5] > 0          # the window did drop
        assert 0 < at_migrate[0] < result.delivered[5]
        assert _sequencers(tenant) == dict.fromkeys(
            ["leaf0", "spine0", "leaf2"], result.delivered[5])


class TestChurnSchedule:
    def test_kind_validation(self):
        schedule = ChurnSchedule()
        with pytest.raises(ConfigError, match="unknown churn kind"):
            schedule.add("explode", 1, 0.0)
        with pytest.raises(ConfigError):
            schedule.arrive(1, at_s=-1.0)
        with pytest.raises(ConfigError):
            schedule.update(1, at_s=0.0, duration_s=-0.1)

    def test_staggered_generator_is_deterministic(self):
        schedule = ChurnSchedule.staggered(
            [1, 2, 3], start_s=0.0, gap_s=1.0, update_after_s=0.5,
            lifetime_s=2.0, window_s=0.1)
        assert len(schedule) == 9
        assert schedule.churned_vids() == [1, 2, 3]
        kinds = [e.kind for e in schedule.for_vid(2)]
        assert kinds == ["arrive", "update", "depart"]
        assert schedule.window(2, "update") == (1.5, 1.6)
        assert schedule.window(3) == (2.0, 4.0)
        with pytest.raises(ConfigError, match="no churn events"):
            schedule.window(9)

    def test_sorted_events_order(self):
        schedule = ChurnSchedule()
        schedule.depart(2, at_s=5.0)
        schedule.arrive(1, at_s=1.0)
        assert [e.vid for e in schedule.sorted_events()] == [1, 2]