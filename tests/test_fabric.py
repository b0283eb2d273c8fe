"""Fabric layer: topology, routing, placement, forwarding, timeline.

The differential gates (single-switch degeneracy, manual chaining
equivalence) live in ``tests/test_fabric_differential.py``; this file
covers the graph/placement/timeline behavior itself, including the
edge cases the issue calls out — link-down raises a typed error, and
placement rejects over-capacity switches before admitting anything.
"""

import math

import pytest

from fabric_serve import serve
from repro.api import Switch
from repro.errors import (
    AdmissionError,
    ConfigError,
    FabricError,
    LinkDownError,
    PlacementError,
    TopologyError,
)
from repro.fabric import Fabric, leaf_spine
from repro.modules import calc, netcache
from repro.sim import FabricTimelineExperiment
from repro.traffic import TrafficMatrix


def calc_installer(tenant, port):
    calc.install(tenant, port=port)


def make_fabric(leaves=2, spines=1, **kwargs):
    kwargs.setdefault("hosts_per_leaf", 4)
    return leaf_spine(leaves=leaves, spines=spines, **kwargs)


def place_calc(fabric, vid, src, dst, name=None, via=None):
    tenant = fabric.tenant(name or f"calc{vid}", calc.P4_SOURCE,
                           vid=vid, installer=calc_installer)
    tenant.place(src, dst, via=via)
    return tenant


class TestTopology:
    def test_leaf_spine_shape(self):
        fabric = make_fabric(leaves=3, spines=2)
        assert [m.name for m in fabric.switches()] == [
            "leaf0", "leaf1", "leaf2", "spine0", "spine1"]
        assert len(fabric.links()) == 6
        leaf = fabric.switch("leaf0")
        assert leaf.host_ports() == [0, 1, 2, 3]
        assert leaf.fabric_ports() == [4, 5]
        assert fabric.switch("spine0").host_ports() == []

    def test_link_capacity_paces_endpoint_ports(self):
        fabric = make_fabric(link_capacity_bps=5e9)
        leaf = fabric.switch("leaf0")
        assert leaf.scheduler.port_rate_of(4) == 5e9
        # host ports transmit at the fabric's host rate
        assert leaf.scheduler.port_rate_of(0) == 5e9 or \
            leaf.scheduler.port_rate_of(0) == fabric.host_rate_bps

    def test_duplicate_switch_rejected(self):
        fabric = Fabric()
        fabric.add_switch("sw0")
        with pytest.raises(TopologyError):
            fabric.add_switch("sw0")

    def test_port_already_wired_rejected(self):
        fabric = Fabric()
        fabric.add_switch("a")
        fabric.add_switch("b")
        fabric.add_switch("c")
        fabric.connect("a", 0, "b", 0)
        with pytest.raises(TopologyError):
            fabric.connect("a", 0, "c", 0)

    def test_self_loop_rejected(self):
        fabric = Fabric()
        fabric.add_switch("a")
        with pytest.raises(TopologyError):
            fabric.connect("a", 0, "a", 1)

    def test_unknown_switch_is_typed_error(self):
        fabric = Fabric()
        with pytest.raises(TopologyError):
            fabric.switch("nope")

    def test_routes_are_hop_count_shortest(self):
        fabric = make_fabric(leaves=2, spines=2)
        paths = fabric.shortest_paths("leaf0", "leaf1")
        assert paths == [["leaf0", "spine0", "leaf1"],
                         ["leaf0", "spine1", "leaf1"]]
        assert fabric.shortest_paths("leaf0", "leaf0") == [["leaf0"]]


class TestLinkDown:
    def test_route_around_downed_spine(self):
        fabric = make_fabric(leaves=2, spines=2)
        fabric.set_link_state("leaf0", "spine0", up=False)
        tenant = place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 1))
        assert tenant.routes[0] == ["leaf0", "spine1", "leaf1"]

    def test_unreachable_raises_typed_error(self):
        fabric = make_fabric(leaves=2, spines=1)
        fabric.set_link_state("leaf0", "spine0", up=False)
        with pytest.raises(LinkDownError):
            fabric.shortest_paths("leaf0", "leaf1")
        with pytest.raises(LinkDownError):
            place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 1))

    def test_forwarding_onto_downed_link_records_loss(self):
        fabric = make_fabric(leaves=2, spines=1)
        place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 1))
        fabric.set_link_state("leaf0", "spine0", up=False)
        pkt = calc.make_packet(1, calc.OP_ADD, 1, 2)
        result = serve(fabric, [("leaf0", pkt)])
        assert result.delivered == []
        assert result.lost == [(1, "leaf0:4—spine0:0")]

    def test_failure_does_not_affect_other_tenants_in_same_batch(self):
        # One tenant per spine; failing spine0's uplink loses the
        # first tenant's packet (recorded, not raised) while the
        # second tenant's packet in the same batch still delivers.
        fabric = make_fabric(leaves=2, spines=2)
        a = place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 0))
        b = place_calc(fabric, 2, ("leaf0", 1), ("leaf1", 1))
        assert a.routes[0][1] == "spine0"
        assert b.routes[0][1] == "spine1"
        fabric.set_link_state("leaf0", "spine0", up=False)
        result = serve(fabric,
                       [("leaf0", calc.make_packet(1, calc.OP_ADD, 1, 2)),
                        ("leaf0", calc.make_packet(2, calc.OP_ADD, 2, 3))])
        assert result.lost == [(1, "leaf0:4—spine0:0")]
        assert len(result.delivered_for(2)) == 1
        # and nothing lingers to poison the next batch
        follow_up = serve(
            fabric, [("leaf0", calc.make_packet(2, calc.OP_ADD, 4, 5))])
        assert len(follow_up.delivered_for(2)) == 1
        assert follow_up.lost == []

    def test_timeline_counts_mid_run_losses(self):
        from repro.sim import FabricTimelineExperiment
        from repro.traffic import TrafficMatrix
        fabric = make_fabric(leaves=2, spines=1)
        place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 1))
        fabric.set_link_state("leaf0", "spine0", up=False)
        matrix = TrafficMatrix()
        matrix.add(1, ("leaf0", 0), ("leaf1", 1), offered_bps=1e9,
                   packet_size=1000,
                   make_packet=lambda: calc.make_packet(
                       1, calc.OP_ADD, 1, 2, pad_to=1000))
        result = FabricTimelineExperiment(
            fabric, matrix, duration_s=0.0002).run()
        assert result.delivered.get(1, 0) == 0
        assert result.lost[1] > 0

    def test_linkdown_is_a_fabric_error(self):
        # Callers can catch the whole fabric sub-hierarchy at once.
        assert issubclass(LinkDownError, FabricError)
        assert issubclass(PlacementError, FabricError)


class TestPlacement:
    def test_place_spans_route_and_delivers(self):
        fabric = make_fabric()
        tenant = place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 2))
        assert tenant.switches() == ["leaf0", "spine0", "leaf1"]
        result = serve(
            fabric, [("leaf0", calc.make_packet(1, calc.OP_ADD, 20, 22))])
        outs = result.delivered_for(1)
        assert len(outs) == 1
        assert calc.read_result(outs[0]) == 42
        assert result.exits(1) == [("leaf1", 2)]

    def test_greedy_spreads_across_spines(self):
        fabric = make_fabric(leaves=2, spines=2)
        a = place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 0))
        b = place_calc(fabric, 2, ("leaf0", 1), ("leaf1", 1))
        # tie on first placement breaks lexicographically; the second
        # placement greedily avoids the now-busier spine0
        assert a.routes[0][1] == "spine0"
        assert b.routes[0][1] == "spine1"

    def test_pinned_route_overrides_greedy(self):
        fabric = make_fabric(leaves=2, spines=2)
        tenant = place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 0),
                            via=("spine1",))
        assert tenant.routes[0] == ["leaf0", "spine1", "leaf1"]

    def test_over_capacity_switch_rejected(self):
        # max_modules(2) -> exactly one tenant slot per switch
        fabric = make_fabric(
            make_builder=lambda: Switch.build().max_modules(2))
        place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 1))
        with pytest.raises(PlacementError):
            place_calc(fabric, 2, ("leaf0", 2), ("leaf1", 3))

    def test_rejection_happens_before_any_admission(self):
        fabric = make_fabric(
            make_builder=lambda: Switch.build().max_modules(2))
        place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 1))
        before = {m.name: m.free_module_slots()
                  for m in fabric.switches()}
        with pytest.raises(PlacementError):
            place_calc(fabric, 2, ("leaf0", 2), ("leaf1", 3))
        after = {m.name: m.free_module_slots()
                 for m in fabric.switches()}
        assert before == after

    def test_failed_admission_leaves_nothing_behind(self):
        # spine0 keeps free VID slots (passing the slot check) but its
        # CAM cannot take one more netcache, so admission fails *after*
        # leaf0 was already admitted. The placement must evict leaf0
        # again, record no steering, and let a retry elsewhere land.
        fabric = make_fabric(leaves=2, spines=2)
        spine0 = fabric.switch("spine0")
        for vid in range(1, 32):
            try:
                spine0.switch.admit(f"filler{vid}", netcache.P4_SOURCE,
                                    vid=vid)
            except AdmissionError:
                break  # CAM-bound before the VID slots run out
        assert spine0.free_module_slots() >= 20
        leaf0_slots = fabric.switch("leaf0").free_module_slots()
        tenant = fabric.tenant(
            "kv", netcache.P4_SOURCE, vid=30,
            installer=lambda t, port: netcache.install(t))
        with pytest.raises(AdmissionError):
            tenant.place(("leaf0", 0), ("leaf1", 0), via=("spine0",))
        assert 30 not in fabric.switch("leaf0").switch.controller.modules
        assert fabric.switch("leaf0").free_module_slots() == leaf0_slots
        assert tenant.switches() == []
        assert tenant.egress_ports() == {}
        assert tenant.routes == []
        assert tenant.place(("leaf0", 0), ("leaf1", 0),
                            via=("spine1",)) == \
            ["leaf0", "spine1", "leaf1"]

    def test_fabric_port_is_not_an_attachment_point(self):
        fabric = make_fabric()
        with pytest.raises(PlacementError):
            place_calc(fabric, 1, ("leaf0", 4), ("leaf1", 0))

    def test_second_placement_sharing_agreeing_switches_is_idempotent(self):
        # Same destination port, different source hosts: the routes
        # coincide and steer every shared switch the same way, so the
        # second placement reuses the installed entries.
        fabric = make_fabric()
        tenant = place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 2))
        occupancy = tenant.handle("leaf1").table(
            "calc_table").occupancy()
        assert tenant.place(("leaf0", 1), ("leaf1", 2)) == \
            tenant.routes[0]
        assert tenant.handle("leaf1").table(
            "calc_table").occupancy() == occupancy  # not re-installed
        result = serve(
            fabric, [("leaf0", calc.make_packet(1, calc.OP_ADD, 1, 2))])
        assert len(result.delivered_for(1)) == 1

    def test_conflicting_second_placement_rejected_atomically(self):
        # The reverse direction would need leaf1 to steer to the
        # uplink instead of the host port: typed rejection, and no
        # entries/admissions half-land anywhere.
        fabric = make_fabric()
        tenant = place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 2))
        occupancies = {
            name: tenant.handle(name).table("calc_table").occupancy()
            for name in tenant.switches()}
        with pytest.raises(PlacementError):
            tenant.place(("leaf1", 1), ("leaf0", 3))
        assert tenant.routes == [["leaf0", "spine0", "leaf1"]]
        for name, occupancy in occupancies.items():
            assert tenant.handle(name).table(
                "calc_table").occupancy() == occupancy

    def test_duplicate_vid_rejected(self):
        fabric = make_fabric()
        fabric.tenant("a", calc.P4_SOURCE, vid=1,
                      installer=calc_installer)
        with pytest.raises(TopologyError):
            fabric.tenant("b", calc.P4_SOURCE, vid=1,
                          installer=calc_installer)

    def test_handle_lookup_requires_placement(self):
        fabric = make_fabric(leaves=2, spines=2)
        tenant = place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 0))
        assert tenant.handle("leaf0").vid == 1
        with pytest.raises(PlacementError):
            tenant.handle("spine1")  # greedy route went via spine0


def looping_fabric():
    """Two switches whose entries both point back across their link, so
    a packet ping-pongs forever."""
    fabric = Fabric()
    fabric.add_switch("a")
    fabric.add_switch("b")
    fabric.connect("a", 0, "b", 0)
    for name in ("a", "b"):
        handle = fabric.switch(name).switch.admit(
            "calc", calc.P4_SOURCE, vid=1)
        calc.install(handle, port=0)   # 0 is the fabric port
    return fabric


class TestForwardingGuards:
    def test_forwarding_loop_raises_instead_of_spinning(self):
        fabric = looping_fabric()
        matrix = TrafficMatrix()
        matrix.add(1, ("a", 1), ("b", 1), offered_bps=1e6,
                   packet_size=100,
                   make_packet=lambda: calc.make_packet(
                       1, calc.OP_ADD, 1, 2))
        experiment = FabricTimelineExperiment(fabric, matrix,
                                              duration_s=1e-3)
        # One packet injected, one link crossing allowed per packet on
        # two switches: the second crossing, back toward "a", is the
        # loop — raised at once, not after the event list spins.
        with pytest.raises(FabricError,
                           match="forwarding loop: tenant 1's packet "
                                 "leaving 'b' toward 'a' is link "
                                 "crossing 2"):
            experiment.run()
        assert experiment.core.sim.events_processed <= 4

    def test_loop_bound_scales_with_the_packets_injected(self):
        # Three packets injected straight into "a" at t = 0 earn three
        # crossings on two switches; whichever packet comes back first,
        # the fourth crossing is the loop.
        packets = [calc.make_packet(1, calc.OP_ADD, i, i + 1)
                   for i in range(3)]
        with pytest.raises(FabricError,
                           match=r"is link crossing 4, .*\(3 injected\)"):
            serve(looping_fabric(), [("a", packet) for packet in packets])

    def test_adopted_switch_or_builder_not_both(self):
        fabric = Fabric()
        with pytest.raises(TopologyError):
            fabric.add_switch("a", switch=Switch.build().create(),
                              builder=Switch.build())

    def test_link_endpoint_queries(self):
        fabric = make_fabric()
        link = fabric.link_between("leaf0", "spine0")
        assert link.other_end("leaf0").switch == "spine0"
        assert link.other_end("spine0").switch == "leaf0"
        with pytest.raises(TopologyError):
            link.other_end("leaf1")
        with pytest.raises(TopologyError):
            fabric.link_between("leaf0", "leaf1")


class TestSchedulingAndStats:
    def test_weight_and_rate_fan_out_to_all_placed_switches(self):
        fabric = make_fabric()
        tenant = place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 1))
        tenant.set_weight(4.0)
        tenant.set_rate_limit(1e6)
        for name in tenant.switches():
            scheduler = fabric.switch(name).scheduler
            assert scheduler.weight_of(1) == 4.0
            assert scheduler.rate_limit_of(1) == 1e6

    def test_non_finite_weight_and_rate_refused_at_the_call(self):
        # A NaN weight used to pass the `<= 0` test, be stored, and make
        # a later place raise after leaf0 had admitted the tenant.
        fabric = make_fabric()
        tenant = fabric.tenant("calc1", calc.P4_SOURCE, vid=1,
                               installer=calc_installer)

        def refused():
            for bad in (math.nan, math.inf):
                with pytest.raises(ConfigError):
                    tenant.set_weight(bad)
                with pytest.raises(ConfigError):
                    tenant.set_rate_limit(bad)
                with pytest.raises(ConfigError):
                    tenant.set_rate_limit(1e6, bad)
            assert tenant.weight is None and tenant.rate_limit is None

        refused()
        tenant.place(("leaf0", 0), ("leaf1", 1))
        assert tenant.switches() == ["leaf0", "spine0", "leaf1"]
        assert tenant.routes == [["leaf0", "spine0", "leaf1"]]
        refused()
        for name in tenant.switches():
            scheduler = fabric.switch(name).scheduler
            assert scheduler.weight_of(1) == 1.0
            assert scheduler.rate_limit_of(1) is None

    def test_settings_apply_to_later_placements(self):
        fabric = make_fabric(leaves=2, spines=2)
        tenant = fabric.tenant("calc1", calc.P4_SOURCE, vid=1,
                               installer=calc_installer)
        tenant.set_weight(2.5)
        tenant.place(("leaf0", 0), ("leaf1", 0))
        for name in tenant.switches():
            assert fabric.switch(name).scheduler.weight_of(1) == 2.5

    def test_fabric_wide_counters_have_per_hop_semantics(self):
        fabric = make_fabric()
        tenant = place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 1))
        serve(fabric, [("leaf0", calc.make_packet(1, calc.OP_ADD, 1, 2))])
        counters = tenant.counters()
        assert counters.packets_in == 3       # one per hop
        assert counters.packets_out == 3
        assert counters.packets_dropped == 0

    def test_link_byte_accounting_per_tenant(self):
        fabric = make_fabric()
        tenant = place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 1))
        pkt = calc.make_packet(1, calc.OP_ADD, 1, 2, pad_to=100)
        serve(fabric, [("leaf0", pkt)])
        per_link = tenant.link_bytes()
        assert set(per_link) == {"leaf0:4—spine0:0", "leaf1:4—spine0:1"}
        assert all(v == 100 for v in per_link.values())
        spine_link = fabric.link_between("leaf0", "spine0")
        assert spine_link.bytes_carried == 100

    def test_unplaced_vid_dropped_as_unknown_module(self):
        fabric = make_fabric()
        place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 1))
        stray = calc.make_packet(9, calc.OP_ADD, 1, 2)
        result = serve(fabric, [("leaf0", stray)])
        assert result.delivered == []
        assert result.dropped == {9: 1}


class TestTrafficMatrix:
    def test_arrivals_are_deterministic_and_sorted(self):
        mk = lambda: calc.make_packet(1, calc.OP_ADD, 1, 2)
        matrix = TrafficMatrix()
        matrix.add(1, ("leaf0", 0), ("leaf1", 1), offered_bps=1e9,
                   packet_size=1000, make_packet=mk)
        matrix.add(2, ("leaf0", 1), ("leaf1", 2), offered_bps=2e9,
                   packet_size=1000, make_packet=mk)
        a = matrix.arrivals(0.001, scale=10.0)
        b = matrix.arrivals(0.001, scale=10.0)
        assert [(t, d.vid) for t, d in a] == [(t, d.vid) for t, d in b]
        assert a == sorted(a, key=lambda x: x[0])
        by_vid = {}
        for _, demand in a:
            by_vid[demand.vid] = by_vid.get(demand.vid, 0) + 1
        # 2x the offered rate -> 2x the arrivals
        assert by_vid[2] == 2 * by_vid[1]

    def test_invalid_demands_rejected(self):
        matrix = TrafficMatrix()
        mk = lambda: calc.make_packet(1, calc.OP_ADD, 1, 2)
        with pytest.raises(ConfigError):
            matrix.add(1, ("a", 0), ("b", 0), offered_bps=0,
                       packet_size=100, make_packet=mk)
        with pytest.raises(ConfigError):
            matrix.add(1, ("a", 0), ("b", 0), offered_bps=1e9,
                       packet_size=0, make_packet=mk)
        matrix.add(1, ("a", 0), ("b", 0), offered_bps=1e9,
                   packet_size=100, make_packet=mk)
        with pytest.raises(ConfigError):
            matrix.arrivals(0.0)


class TestFabricTimeline:
    def _experiment(self, link_delay_s=1e-6, offered_bps=1e9, **kwargs):
        fabric = make_fabric(link_delay_s=link_delay_s)
        tenant = place_calc(fabric, 1, ("leaf0", 0), ("leaf1", 1))
        matrix = TrafficMatrix()
        matrix.add(1, ("leaf0", 0), ("leaf1", 1),
                   offered_bps=offered_bps, packet_size=1000,
                   make_packet=lambda: calc.make_packet(
                       1, calc.OP_ADD, 1, 2, pad_to=1000))
        kwargs.setdefault("duration_s", 0.0005)
        return tenant, FabricTimelineExperiment(fabric, matrix,
                                                scale=1.0, **kwargs)

    def _run(self, **kwargs):
        tenant, exp = self._experiment(**kwargs)
        return tenant, exp.run()

    def test_delivers_offered_load_uncontended(self):
        _tenant, result = self._run()
        assert result.delivered[1] > 0
        assert result.drops.get(1, 0) == 0
        # delivered ~= offered when the path is uncontended
        assert result.delivered_gbps(1) == pytest.approx(
            result.offered_gbps[1], rel=0.1)

    def test_unknown_egress_port_drops_only_its_tenant(self):
        """A tenant whose entries steer to a port the switch does not
        have (port 40 on an 8-port leaf) loses every packet as a
        counted ``unknown_port`` drop at its first switch; the run
        goes on, and its neighbour delivers every packet."""
        fabric = make_fabric(link_delay_s=1e-6)
        fabric.tenant("lost", calc.P4_SOURCE, vid=1,
                      installer=lambda t, port: calc.install(t, port=40)
                      ).place(("leaf0", 0), ("leaf1", 0))
        place_calc(fabric, 2, ("leaf0", 1), ("leaf1", 1))
        matrix = TrafficMatrix()
        for vid in (1, 2):
            matrix.add(vid, ("leaf0", vid - 1), ("leaf1", vid - 1),
                       offered_bps=1e9, packet_size=1000,
                       make_packet=lambda vid=vid: calc.make_packet(
                           vid, calc.OP_ADD, 1, 2, pad_to=1000))
        result = FabricTimelineExperiment(fabric, matrix,
                                          duration_s=0.0005).run()
        arrivals = {1: 0, 2: 0}
        for _t, demand in matrix.arrivals(0.0005):
            arrivals[demand.vid] += 1
        assert arrivals[1] > 0 and arrivals[2] > 0
        assert result.drops == {1: arrivals[1]}
        assert result.delivered == {2: arrivals[2]}
        assert result.lost == {}
        stats = fabric.switch("leaf0").switch.pipeline.stats
        assert stats.drop_reasons["unknown_port"] == arrivals[1]
        assert stats.tenants[1].enqueued == 0

    def test_latency_includes_propagation_delay(self):
        _t, fast = self._run(link_delay_s=1e-6)
        _t, slow = self._run(link_delay_s=100e-6)
        # two fabric links on the route -> +2 x 99us, within jitter
        delta = slow.mean_latency_s(1) - fast.mean_latency_s(1)
        assert delta == pytest.approx(2 * 99e-6, rel=0.05)

    def test_link_utilization_reported(self):
        _tenant, result = self._run()
        spine = "leaf0:4—spine0:0"
        nbytes, util = result.link_utilization[spine]
        assert nbytes > 0
        assert 0.0 < util <= 1.0

    def test_link_utilization_counts_only_its_own_run(self):
        """A second run on the same fabric reports the bytes it carried,
        not the link's lifetime total; the link's own counter keeps
        accumulating."""
        _tenant, exp = self._experiment()
        spine = "leaf0:4—spine0:0"
        link = exp.fabric.link_between("leaf0", "spine0")
        first, second = exp.run(), exp.run()
        assert second.delivered == first.delivered
        for result in (first, second):
            nbytes, util = result.link_utilization[spine]
            assert nbytes == result.delivered[1] * 1000
            assert util == pytest.approx(
                nbytes * 8 / result.elapsed_s / link.capacity_bps)
        assert link.bytes_carried == 2 * first.delivered[1] * 1000

    @pytest.mark.parametrize("backend", ["gpu", "process"])
    def test_unknown_backend_rejected_at_construction(self, backend):
        """A bad name fails before the caller schedules churn, chaos
        or reconfigurations against the experiment — not inside
        ``run()``. The timeline runs in one process: ``"process"`` is
        as unknown as ``"gpu"``."""
        with pytest.raises(ValueError,
                           match=f"backend='{backend}' is not one of"):
            self._experiment(backend=backend)

    def test_serial_is_the_only_backend_and_the_default(self):
        _t, default = self._run()
        _t, serial = self._run(backend="serial")
        assert default == serial
        with pytest.raises(TypeError):
            self._experiment(workers=2)
        _t, exp = self._experiment()
        with pytest.raises(TypeError):
            exp.schedule_reconfig(1, 1e-4, op=object())

    @pytest.mark.parametrize("kwargs, message", [
        ({"bin_s": 0}, "bin width must be positive, got 0"),
        ({"bin_s": -1e-3}, "bin width must be positive, got -0.001"),
        ({"duration_s": 0.0}, "duration must be positive, got 0.0"),
    ], ids=["bin-zero", "bin-negative", "duration-zero"])
    def test_bad_duration_or_bin_rejected_at_construction(self, kwargs,
                                                          message):
        """Typed, and before the run is simulated: ``bin_s=0`` used to
        end the finished run in a raw ``ZeroDivisionError`` and a
        negative one returned negative throughput."""
        with pytest.raises(ConfigError, match=message):
            self._experiment(**kwargs)

    def test_bad_reconfig_times_rejected_where_given(self):
        """A negative start used to surface only inside ``run()`` (as
        the kernel's "cannot schedule into the past") and a negative
        duration silently meant "no window"."""
        _t, exp = self._experiment()
        with pytest.raises(ConfigError, match="time must be >= 0, got -0.0001"):
            exp.schedule_reconfig(1, start_s=-1e-4, duration_s=1e-4)
        with pytest.raises(ConfigError, match="window must be >= 0, got -0.0001"):
            exp.schedule_reconfig(1, start_s=1e-4, duration_s=-1e-4)
        assert exp.reconfigs == []
        # The chaos path: time 0, no window.
        event = exp.schedule_reconfig(0, start_s=0.0, duration_s=0.0)
        assert exp.reconfigs == [event]
