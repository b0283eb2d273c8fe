"""End-to-end tests for the ``repro.api`` tenant-session facade.

Covers the acceptance surface of the API redesign: builder
construction, multi-tenant admission, behavior isolation as an API
property (cross-VID access raises), typed entries, structured compile
diagnostics, transactional reconfiguration with rollback, deprecation
shims on the old entry points, and the pinned construction surface.
"""

import inspect
from dataclasses import replace

import pytest

from repro.api import (
    ActionCall,
    CompilationFailed,
    Match,
    Switch,
    SwitchBuilder,
    TableEntry,
    Tenant,
    TenantIsolationError,
    Ternary,
    TransactionError,
    compile,
)
from repro.core import MenshenPipeline, PacketFilter
from repro.errors import AdmissionError, ConfigError, RuntimeInterfaceError
from repro.modules import calc, firewall, netcache, netchain, qos
from repro.rmt import RmtPipeline
from repro.rmt.params import DEFAULT_PARAMS
from repro.runtime import MenshenController, SoftwareHardwareInterface
from repro.runtime.interface import T_SW_PER_ENTRY
from repro.sysmod import SYSTEM_P4_SOURCE


def two_tenant_switch():
    switch = Switch.build().create()
    fw = switch.admit("fw", firewall.P4_SOURCE, vid=1)
    nc = switch.admit("nc", netcache.P4_SOURCE, vid=2)
    return switch, fw, nc


class TestBuilder:
    def test_geometry_knobs(self):
        switch = (Switch.build().stages(7).max_modules(8).ports(4)
                  .create())
        assert switch.params.num_stages == 7
        assert switch.params.max_modules == 8
        assert switch.pipeline.traffic_manager.num_ports == 4
        # A fresh switch is born with its weighted-fair scheduler.
        assert switch.pipeline.traffic_manager is switch.egress_scheduler

    def test_ternary_personality(self):
        switch = Switch.build().ternary().create()
        assert switch.pipeline.match_mode == "ternary"

    def test_facade_insert_charges_the_cost_model(self):
        switch = Switch.build().create()
        tenant = switch.admit("calc", calc.P4_SOURCE)
        before = switch.interface.stats.modeled_time_s
        tenant.table("calc_table").insert(
            match={"hdr.calc.op": calc.OP_ECHO}, action="op_echo")
        assert switch.interface.stats.modeled_time_s >= \
            before + T_SW_PER_ENTRY

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            Switch.build().stages(0)
        with pytest.raises(ConfigError, match="unknown match mode"):
            MenshenPipeline(match_mode="lpm")

    @pytest.mark.parametrize("count", [33, 64])
    def test_more_tenants_than_bitmap_bits_refused(self, count):
        """§4.1: one update-bitmap bit per module, so a switch sized past
        the bitmap is refused whichever way the size arrives."""
        with pytest.raises(ValueError, match="bitmap"):
            Switch.build().max_modules(count)
        params = replace(DEFAULT_PARAMS, parser_table_depth=count,
                         key_extractor_depth=count, key_mask_depth=count,
                         segment_table_depth=count)
        with pytest.raises(ConfigError, match="bitmap"):
            Switch.build().params(params).create()
        with pytest.raises(ConfigError, match="bitmap"):
            MenshenPipeline(params=params)

    @pytest.mark.parametrize("field, value", [
        ("containers_per_type", 16),  # engine and oracle PHVs disagreed
        ("containers_per_type", 4),   # died on a VLIW payload width
        ("container_sizes", (2, 4, 8)),
        ("metadata_bytes", 64),
    ])
    def test_unaddressable_phv_geometry_refused(self, field, value):
        """§4.1: ALU operands are 5-bit (3 types x 8 containers), so a
        pipeline refuses any other PHV geometry, naming the field; the
        parameters alone stay free to vary for area and width models."""
        params = replace(DEFAULT_PARAMS, **{field: value})
        assert params.vliw_entry_bits > 0
        for build in (lambda: Switch.build().params(params).create(),
                      lambda: MenshenPipeline(params=params),
                      lambda: RmtPipeline(params=params)):
            with pytest.raises(ConfigError, match=field):
                build()

    def test_every_construction_knob_is_pinned(self):
        """The construction surface is exactly the sizes a non-test
        caller varies plus the paper's personalities; each name below
        carries the reason it stays, so a knob cannot come back
        unpinned."""
        def names(fn):
            return list(inspect.signature(fn).parameters)[1:]  # drop self

        setters = {
            # Sizes: perf's fabric_churn / leaf_spine set params and ports.
            "params": "a full HardwareParams design point",
            "stages": "pipeline depth",
            "max_modules": "overlay depth, bounded by the §4.1 bitmap",
            "ports": "egress ports",
            # Personalities: no argument, switched on or not at all.
            "ternary": "Appendix B TCAM stages",
            "default_actions": "the default-action miss path",
            "reconfig_from_dataplane": "§3.1 Corundum platform",
            # Control plane.
            "policy": "§3.4 admission policies",
        }
        public = {name for name, fn in vars(SwitchBuilder).items()
                  if callable(fn) and not name.startswith("_")}
        assert public == set(setters) | {"create"}
        for name in ("ternary", "default_actions",
                     "reconfig_from_dataplane"):
            assert names(getattr(SwitchBuilder, name)) == [], name

        assert names(Switch.__init__) == [
            "controller",     # adopt a controller built on the layered API
        ]
        assert names(MenshenController.__init__) == [
            "pipeline",       # the switch it drives
            "policy",         # §3.4 admission policies
        ]
        assert names(SoftwareHardwareInterface.__init__) == [
            "pipeline",       # the switch it writes to
        ]
        assert names(MenshenPipeline.__init__) == [
            "params",                   # sizes
            "num_ports",                # sizes
            "reconfig_from_dataplane",  # §3.1 NetFPGA vs. Corundum
            "match_mode",               # Appendix B ternary
            "enable_default_actions",   # default-action extension
        ]
        assert names(PacketFilter.__init__) == []

    def test_wrap_existing_controller(self):
        pipeline = MenshenPipeline()
        controller = MenshenController(pipeline)
        controller.load_module(3, calc.P4_SOURCE, "legacy")
        switch = Switch(controller=controller)
        tenant = switch.tenant(3)
        assert tenant.name == "legacy"
        assert "calc_table" in tenant.tables()


class TestTenantSessions:
    def test_two_tenants_isolated_tables(self):
        switch, fw, nc = two_tenant_switch()
        firewall.install(fw, blocked=[("10.0.0.66", 53)])
        netcache.install(nc, cached=[(0xFEED, 0, 77)])

        # Cross-VID access raises an isolation error (the acceptance
        # criterion): fw's handle cannot name nc's table and vice versa.
        with pytest.raises(TenantIsolationError):
            fw.table("cache")
        with pytest.raises(TenantIsolationError):
            nc.table("acl")
        # Registers too.
        with pytest.raises(TenantIsolationError):
            fw.register("values")
        # Unknown names are a plain error, not an isolation error.
        with pytest.raises(RuntimeInterfaceError):
            fw.table("nonexistent")

    def test_traffic_is_scoped(self):
        switch, fw, nc = two_tenant_switch()
        firewall.install(fw, blocked=[("10.0.0.66", 53)])
        netcache.install(nc, cached=[(0xFEED, 0, 77)])
        dropped = switch.process(firewall.make_packet(1, "10.0.0.66", 53))
        assert dropped.dropped
        hit = switch.process(netcache.make_get(2, 0xFEED))
        assert netcache.read_value(hit.packet) == 77
        assert fw.counters().packets_in == 1
        assert nc.counters().packets_out == 1

    def test_auto_vid_assignment(self):
        switch = Switch.build().create()
        t1 = switch.admit("a", calc.P4_SOURCE)
        t2 = switch.admit("b", calc.P4_SOURCE)
        assert (t1.vid, t2.vid) == (1, 2)
        t1.evict()
        t3 = switch.admit("c", calc.P4_SOURCE)
        assert t3.vid == 1  # lowest free VID is recycled

    def test_admission_error_when_full(self):
        switch = Switch.build().max_modules(2).create()
        switch.admit("only", calc.P4_SOURCE)  # VID 1 of [1]
        with pytest.raises(AdmissionError):
            switch.admit("overflow", calc.P4_SOURCE)

    def test_tenant_lookup_by_name(self):
        switch, fw, _nc = two_tenant_switch()
        assert switch.tenant("fw") is fw
        with pytest.raises(RuntimeInterfaceError):
            switch.tenant("stranger")

    def test_evict_releases_and_invalidates(self):
        switch, fw, nc = two_tenant_switch()
        handle = fw.table("acl")
        fw.evict()
        assert switch.controller.loaded_ids() == [2]
        with pytest.raises(RuntimeInterfaceError):
            handle.insert(match={"hdr.ipv4.srcAddr": 1,
                                 "hdr.udp.dstPort": 2}, action="block")
        # The other tenant is untouched.
        netcache.install(nc, cached=[(1, 0, 5)])

    def test_update_swaps_program(self):
        switch = Switch.build().create()
        tenant = switch.admit("t1", calc.P4_SOURCE, vid=1)
        calc.install(tenant)
        tenant.update(qos.P4_SOURCE)
        qos.install(tenant)
        result = switch.process(qos.make_packet(1, 5060))
        assert qos.read_dscp(result.packet) == qos.DSCP_EF

    def test_update_on_a_full_switch_keeps_the_tenant(self):
        # Twenty calc tenants fill stages 0-4; VID 5 sits in stage 4.
        # Its update cannot fit the whole-stage-map window (stage 0 is
        # full), so it must fall back to another window, not evict it.
        switch = Switch.build().create()
        for vid in range(1, 21):
            switch.admit(f"calc{vid}", calc.P4_SOURCE, vid=vid)
        modules = switch.controller.modules
        assert modules[5].compiled.stages_used() == [4]
        tenant = switch.tenant(5)
        tenant.update(calc.P4_SOURCE)
        assert 5 in modules
        assert modules[5].compiled.stages_used() == [4]
        calc.install(tenant, port=2)
        result = switch.process(calc.make_packet(5, calc.OP_ADD, 20, 22))
        assert result.egress_port == 2
        assert calc.read_result(result.packet) == 42

    def test_system_module_and_counters(self):
        switch = Switch.build().create()
        system = switch.install_system(
            vip_map={"10.99.0.5": "10.0.0.2"},
            routes={"10.0.0.2": 1},
            counter_index={"10.99.0.5": 3})
        tenant = switch.admit("chain", netchain.P4_SOURCE, vid=3)
        netchain.install(tenant, port=1)
        from repro.modules.base import common_packet
        packet = common_packet(3, netchain.OP_SEQ.to_bytes(2, "big")
                               + bytes(8), dst="10.99.0.5")
        result = switch.process(packet)
        assert result.forwarded
        assert system.register("tenant_counters").read(3) == 1
        assert switch.tenant("system") is system
        with pytest.raises(RuntimeInterfaceError):
            system.evict()


class TestTypedEntries:
    def test_insert_accepts_typed_entry(self):
        switch = Switch.build().create()
        tenant = switch.admit("calc", calc.P4_SOURCE, vid=4)
        entry = TableEntry(Match({"hdr.calc.op": calc.OP_ADD}),
                           ActionCall("op_add", {"port": 2}))
        tenant.table("calc_table").insert(entry=entry)
        result = switch.process(calc.make_packet(4, calc.OP_ADD, 20, 22))
        assert calc.read_result(result.packet) == 42
        assert result.egress_port == 2

    def test_ternary_specs_need_ternary_pipeline(self):
        switch = Switch.build().create()  # exact mode
        tenant = switch.admit("fw", firewall.P4_SOURCE, vid=1)
        with pytest.raises(RuntimeInterfaceError):
            tenant.table("acl").insert(
                match=Match({"hdr.ipv4.srcAddr": Ternary(0, 0),
                             "hdr.udp.dstPort": Ternary(0, 0)}),
                action="block")

    def test_ternary_priority_order(self):
        switch = Switch.build().ternary().create()
        tenant = switch.admit("fw", firewall.P4_SOURCE_TERNARY, vid=2)
        firewall.install_prefix(tenant,
                                blocked_prefixes=[("10.66.0.0", 16)],
                                default_port=1)
        blocked = switch.process(firewall.make_packet(2, "10.66.4.20", 443))
        allowed = switch.process(firewall.make_packet(2, "10.70.1.1", 443))
        assert blocked.dropped and allowed.forwarded

    def test_handle_bookkeeping(self):
        switch = Switch.build().create()
        tenant = switch.admit("calc", calc.P4_SOURCE, vid=1)
        table = tenant.table("calc_table")
        h = table.insert(match={"hdr.calc.op": calc.OP_ECHO},
                         action="op_echo")
        assert table.handles() == [h]
        assert table.occupancy() == 1
        assert table.capacity == 4
        table.delete(h)
        assert table.occupancy() == 0


class TestCompileDiagnostics:
    def test_success_carries_usage(self):
        result = compile(netcache.P4_SOURCE, "netcache")
        assert result.ok
        assert result.module is not None
        usage = result.stage_usage
        assert sum(u.match_entries for u in usage.values()) == 6
        assert sum(u.stateful_words for u in usage.values()) == 12
        assert result.unwrap() is result.module

    def test_static_check_finding_is_structured(self):
        bad = firewall.P4_SOURCE.replace(
            "action block() { mark_to_drop(); }",
            "action block() { recirculate(); }")
        result = compile(bad, "bad-fw")
        assert not result.ok
        assert result.module is None
        assert any(d.code == "static-check" for d in result.errors)
        with pytest.raises(CompilationFailed) as excinfo:
            result.unwrap()
        assert excinfo.value.findings == result.findings

    def test_parse_error_is_structured(self):
        result = compile("this is not P4 at all", "garbage")
        assert not result.ok
        assert result.errors
        assert str(result.errors[0].severity) == "error"

    def test_capacity_warning(self):
        big = calc.P4_SOURCE.replace("size = 4;", "size = 16;")
        result = compile(big, "big-calc")
        assert result.ok
        assert any(d.code == "capacity" for d in result.warnings)

    def test_switch_compile_uses_current_target(self):
        switch = Switch.build().create()
        switch.install_system(SYSTEM_P4_SOURCE)
        # After the system module loads, user stages exclude first/last.
        result = switch.compile(calc.P4_SOURCE, "calc")
        assert result.ok
        assert 0 not in result.module.stages_used()


class TestTransactions:
    def test_commit_applies_batch(self):
        switch = Switch.build().create()
        tenant = switch.admit("calc", calc.P4_SOURCE, vid=5)
        with tenant.transaction() as txn:
            pending = [txn.table(t).insert(entry=e)
                       for t, e in calc.entries(port=3)]
            assert all(p.handle is None for p in pending)  # queued only
        assert all(p.handle is not None for p in pending)
        result = switch.process(calc.make_packet(5, calc.OP_ADD, 1, 2))
        assert calc.read_result(result.packet) == 3

    def test_rollback_leaves_pipeline_untouched(self):
        switch, fw, nc = two_tenant_switch()
        firewall.install(fw, allowed=[("10.0.0.1", 80, 2)])
        stage = fw.table("acl")._tenant._loaded().table("acl").stage
        cam = switch.pipeline.stages[stage].match_table
        occupancy_before = cam.occupancy()
        nc.register("values").write(1, 111)
        with pytest.raises(TransactionError):
            with nc.transaction() as txn:
                txn.table("cache").insert(
                    match={"hdr.kv.kkey": 7},
                    action="cache_read", params={"idx": 1})
                txn.register("values").write(1, 222)
                # This one fails: no such action.
                txn.table("cache").insert(match={"hdr.kv.kkey": 8},
                                          action="no_such_action")
        # Everything rolled back: CAM occupancy, register value, and
        # the other tenant's rules all as before.
        assert cam.occupancy() == occupancy_before
        assert nc.table("cache").occupancy() == 0
        assert nc.register("values").read(1) == 111
        allowed = switch.process(firewall.make_packet(1, "10.0.0.1", 80))
        assert allowed.egress_port == 2

    def test_exception_in_block_discards_queue(self):
        switch = Switch.build().create()
        tenant = switch.admit("calc", calc.P4_SOURCE, vid=1)
        with pytest.raises(KeyboardInterrupt):
            with tenant.transaction() as txn:
                txn.table("calc_table").insert(
                    match={"hdr.calc.op": 1}, action="op_echo")
                raise KeyboardInterrupt()
        assert tenant.table("calc_table").occupancy() == 0

    def test_transactional_delete_restores_on_rollback(self):
        switch = Switch.build().create()
        tenant = switch.admit("calc", calc.P4_SOURCE, vid=1)
        table = tenant.table("calc_table")
        h = table.insert(match={"hdr.calc.op": calc.OP_ADD},
                         action="op_add", params={"port": 2})
        with pytest.raises(TransactionError):
            with tenant.transaction() as txn:
                txn.table("calc_table").delete(h)
                txn.table("calc_table").insert(match={"hdr.calc.op": 9},
                                               action="bogus")
        # The deleted entry is back (same content, maybe new handle).
        assert table.occupancy() == 1
        result = switch.process(calc.make_packet(1, calc.OP_ADD, 2, 3))
        assert calc.read_result(result.packet) == 5

    def test_foreign_table_rejected_at_queue_time(self):
        switch, fw, nc = two_tenant_switch()
        with pytest.raises(TenantIsolationError):
            with fw.transaction() as txn:
                txn.table("cache")

    def test_commit_preserves_enclosing_updating_window(self):
        switch = Switch.build().create()
        tenant = switch.admit("calc", calc.P4_SOURCE, vid=1)
        with tenant.updating():
            with tenant.transaction() as txn:
                txn.table("calc_table").insert(
                    match={"hdr.calc.op": calc.OP_ECHO}, action="op_echo")
            # Still inside the declared drop window: packets must drop.
            result = switch.process(calc.make_packet(1, calc.OP_ECHO, 1, 0))
            assert result.dropped
            assert result.drop_reason == "module_updating"
        result = switch.process(calc.make_packet(1, calc.OP_ECHO, 7, 0))
        assert result.forwarded

    def test_update_preserves_enclosing_updating_window(self):
        """An update nested in ``updating()`` must not end the outer
        window: the new program has no rules yet."""
        switch = Switch.build().create()
        tenant = switch.admit("calc", calc.P4_SOURCE, vid=1)
        calc.install(tenant, port=3)
        with tenant.updating():
            tenant.update(calc.P4_SOURCE)
            result = switch.process(calc.make_packet(1, calc.OP_ADD, 1, 1))
            assert result.dropped
            assert result.drop_reason == "module_updating"
        assert switch.pipeline.packet_filter.read_bitmap() == 0

    def test_attached_handle_deletes_and_restores_any_entry(self):
        """The controller's table book, not the handle object, knows
        what a delete must restore: a second handle on the same VID can
        delete transactionally, and a rollback re-inserts the entry."""
        switch = Switch.build().create()
        tenant = switch.admit("calc", calc.P4_SOURCE, vid=1)
        h = tenant.table("calc_table").insert(
            match={"hdr.calc.op": calc.OP_ADD}, action="op_add",
            params={"port": 2})
        other = Tenant.attach(switch.controller, 1)
        with pytest.raises(TransactionError,
                           match="1 prior operations rolled back"):
            with other.transaction() as txn:
                txn.table("calc_table").delete(h)
                txn.table("calc_table").insert(match={"hdr.calc.op": 9},
                                               action="bogus")
        result = switch.process(calc.make_packet(1, calc.OP_ADD, 2, 3))
        assert calc.read_result(result.packet) == 5
        [restored] = other.table("calc_table").handles()
        with other.transaction() as txn:
            txn.table("calc_table").delete(restored)
        assert tenant.table("calc_table").occupancy() == 0

    def test_positional_entry_with_action_rejected(self):
        switch = Switch.build().create()
        tenant = switch.admit("calc", calc.P4_SOURCE, vid=1)
        entry = TableEntry(Match({"hdr.calc.op": 1}), ActionCall("op_echo"))
        with pytest.raises(ValueError):
            tenant.table("calc_table").insert(entry, action="op_add",
                                              params={"port": 1})
        tenant.table("calc_table").insert(entry)  # bare positional is fine

    def test_other_tenants_flow_during_commit(self):
        switch, fw, nc = two_tenant_switch()
        netcache.install(nc, cached=[(0xFEED, 0, 9)])
        # Commit a transaction on fw and verify its bitmap window never
        # touched nc: nc traffic flows after, and fw's drop counter
        # shows nothing from nc's VID.
        with fw.transaction() as txn:
            txn.table("acl").insert(match={"hdr.ipv4.srcAddr": 1,
                                           "hdr.udp.dstPort": 1},
                                    action="block")
        hit = switch.process(netcache.make_get(2, 0xFEED))
        assert hit.forwarded
