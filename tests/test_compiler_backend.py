"""Tests for static checks, allocation, and backend emission."""

import copy
import pickle
from dataclasses import replace

import pytest

from repro.analysis.passes import find_loop
from repro.api import Switch
from repro.compiler import CompilerOptions, analyse, compile_module
from repro.compiler.target import (
    TargetDescription,
    system_target,
    user_target,
)
from repro.errors import (
    AllocationError,
    CompilerError,
    ResourceError,
    StaticCheckError,
)
from repro.modules.registry import ALL_MODULES
from repro.rmt.action import AluOp
from repro.rmt.key_extractor import CmpOp
from repro.rmt.phv import ContainerRef, ContainerType

from tests.test_compiler_frontend import SIMPLE_CONTROL, minimal_module


def compile_control(control: str, extra_headers: str = "",
                    extra_struct: str = "", options=None):
    src = minimal_module(control, extra_headers, extra_struct)
    return compile_module(src, "test", options)


class TestStaticChecker:
    def test_vid_write_rejected(self):
        control = """
    action evil() { hdr.vlan.tci = 99; }
    table t { key = { hdr.udp.dstPort: exact; } actions = { evil; } size = 2; }
    apply { t.apply(); }
"""
        with pytest.raises(StaticCheckError, match="VID"):
            compile_control(control)

    def test_stats_write_rejected(self):
        control = """
    action evil() { standard_metadata.link_utilization = 0; }
    table t { key = { hdr.udp.dstPort: exact; } actions = { evil; } size = 2; }
    apply { t.apply(); }
"""
        with pytest.raises(StaticCheckError, match="read-only"):
            compile_control(control)

    def test_recirculate_rejected(self):
        control = """
    action evil() { recirculate(); }
    table t { key = { hdr.udp.dstPort: exact; } actions = { evil; } size = 2; }
    apply { t.apply(); }
"""
        with pytest.raises(StaticCheckError, match="recirculate"):
            compile_control(control)

    def test_resubmit_rejected(self):
        control = """
    action evil() { resubmit(); }
    table t { key = { hdr.udp.dstPort: exact; } actions = { evil; } size = 2; }
    apply { t.apply(); }
"""
        with pytest.raises(StaticCheckError):
            compile_control(control)

    def test_legit_module_passes(self):
        module = compile_control(SIMPLE_CONTROL)
        assert module.table_order == ["t"]

    def test_loop_free_accepts_dag(self):
        assert find_loop({"a": "b", "b": "c"}) is None

    def test_loop_free_detects_cycle(self):
        assert find_loop({"a": "b", "b": "a"}) == ["a", "b", "a"]

    def test_loop_free_self_loop(self):
        assert find_loop({"a": "a"}) == ["a", "a"]


class TestAllocator:
    def test_container_classes(self):
        module = compile_control(SIMPLE_CONTROL)
        ref = module.field_alloc["hdr.ipv4.dstAddr"]
        assert ref.ctype == ContainerType.B4

    def test_zero_container_never_allocated(self):
        module = compile_control(SIMPLE_CONTROL)
        zero = module.target.zero_container
        assert zero not in module.field_alloc.values()

    def test_container_exhaustion(self):
        # 8 B4 containers exist, 1 is allocatable-free? no: zero container
        # is B2; so 8 4-byte fields fit, 9 do not.
        fields = "".join(f"bit<32> f{i};" for i in range(9))
        extra = f"header big_t {{ {fields} }}"
        control = """
    action touch() { hdr.big.f0 = hdr.big.f1 + hdr.big.f2; }
    table t { key = { hdr.big.f3: exact; hdr.big.f4: exact; }
              actions = { touch; } size = 2; }
    apply { t.apply(); }
"""
        # Use 9 fields across key+actions to exhaust B4.
        control = control.replace(
            "action touch() { hdr.big.f0 = hdr.big.f1 + hdr.big.f2; }",
            "action touch() { hdr.big.f0 = hdr.big.f1 + hdr.big.f2;"
            " hdr.big.f5 = hdr.big.f6 + hdr.big.f7;"
            " hdr.big.f8 = hdr.big.f8 + hdr.big.f8; }")
        src = minimal_module(control, extra_headers=extra,
                             extra_struct="big_t big;")
        src = src.replace("transition accept;", "transition parse_big;")
        src = src.replace(
            "control C(inout headers_t hdr) {",
            """state parse_big { packet.extract(hdr.big); transition accept; }
}
control C(inout headers_t hdr) {""")
        # The above produces an extra closing brace; rebuild cleanly:
        src = minimal_module(control, extra_headers=extra,
                             extra_struct="big_t big;").replace(
            "transition accept;\n    }",
            "transition parse_big;\n    }\n    state parse_big {"
            " packet.extract(hdr.big); transition accept; }")
        with pytest.raises(AllocationError, match="containers"):
            compile_module(src, "big")

    def test_too_many_tables_for_target(self):
        control = """
    action a() { hdr.ipv4.identification = 1; }
    table t1 { key = { hdr.ipv4.srcAddr: exact; } actions = { a; } size = 2; }
    table t2 { key = { hdr.ipv4.dstAddr: exact; } actions = { a; } size = 2; }
    table t3 { key = { hdr.udp.srcPort: exact; } actions = { a; } size = 2; }
    apply { t1.apply(); t2.apply(); t3.apply(); }
"""
        options = CompilerOptions(target=TargetDescription(stage_map=[1, 2]))
        with pytest.raises(AllocationError, match="stages"):
            compile_control(control, options=options)

    def test_stage_assignment_follows_apply_order(self):
        control = """
    action a() { hdr.ipv4.identification = 1; }
    table t1 { key = { hdr.ipv4.srcAddr: exact; } actions = { a; } size = 2; }
    table t2 { key = { hdr.ipv4.dstAddr: exact; } actions = { a; } size = 2; }
    apply { t1.apply(); t2.apply(); }
"""
        options = CompilerOptions(target=TargetDescription(stage_map=[1, 2, 3]))
        module = compile_control(control, options=options)
        assert module.tables["t1"].stage == 1
        assert module.tables["t2"].stage == 2

    def test_dependency_recorded(self):
        control = """
    action rewrite() { hdr.ipv4.dstAddr = hdr.ipv4.srcAddr; }
    action a() { hdr.ipv4.identification = 1; }
    table t1 { key = { hdr.udp.srcPort: exact; } actions = { rewrite; } size = 2; }
    table t2 { key = { hdr.ipv4.dstAddr: exact; } actions = { a; } size = 2; }
    apply { t1.apply(); t2.apply(); }
"""
        module = compile_control(control)
        assert module.dependencies["t2"] == {"t1"}

    def test_same_table_applied_twice_rejected(self):
        control = """
    action a() { hdr.ipv4.identification = 1; }
    table t { key = { hdr.udp.srcPort: exact; } actions = { a; } size = 2; }
    apply { t.apply(); t.apply(); }
"""
        with pytest.raises(AllocationError):
            compile_control(control)


class TestBackendEmission:
    def test_parse_actions_sorted_and_deduped(self):
        module = compile_control(SIMPLE_CONTROL)
        offsets = [a.bytes_from_head for a in module.parse_actions]
        assert offsets == sorted(offsets)

    def test_key_extractor_entry(self):
        module = compile_control(SIMPLE_CONTROL)
        table = module.tables["t"]
        ref = module.field_alloc["hdr.ipv4.dstAddr"]
        assert table.key_entry.idx_4b_1 == ref.index
        assert table.key_entry.cmp_op == CmpOp.DISABLED
        # mask covers only the 4b_1 slot
        assert table.key_mask == ((1 << 32) - 1) << 65

    def test_make_key_places_value(self):
        module = compile_control(SIMPLE_CONTROL)
        table = module.tables["t"]
        key = table.make_key({"hdr.ipv4.dstAddr": 0x0A000001})
        assert key == 0x0A000001 << 65

    def test_make_key_validates_fields(self):
        module = compile_control(SIMPLE_CONTROL)
        table = module.tables["t"]
        with pytest.raises(CompilerError):
            table.make_key({})
        with pytest.raises(CompilerError):
            table.make_key({"hdr.ipv4.dstAddr": 1, "hdr.udp.srcPort": 2})

    def test_action_parameter_to_immediate(self):
        module = compile_control(SIMPLE_CONTROL)
        action = module.tables["t"].actions["set_port"]
        vliw = action.make_vliw({"port": 6})
        ops = dict(vliw.non_nop())
        assert ops[24].opcode == AluOp.PORT
        assert ops[24].immediate == 6

    def test_missing_parameter_rejected(self):
        module = compile_control(SIMPLE_CONTROL)
        action = module.tables["t"].actions["set_port"]
        with pytest.raises(CompilerError):
            action.make_vliw({})

    def test_parameter_width_enforced(self):
        module = compile_control(SIMPLE_CONTROL)
        action = module.tables["t"].actions["set_port"]
        with pytest.raises(CompilerError):
            action.make_vliw({"port": 1 << 16})

    def test_predicate_table_emission(self):
        control = """
    action a() { hdr.ipv4.identification = 1; }
    action b() { hdr.ipv4.identification = 2; }
    table t1 { key = { hdr.udp.srcPort: exact; } actions = { a; } size = 2; }
    table t2 { key = { hdr.udp.dstPort: exact; } actions = { b; } size = 2; }
    apply {
        if (hdr.udp.length > 100) { t1.apply(); } else { t2.apply(); }
    }
"""
        module = compile_control(control)
        t1, t2 = module.tables["t1"], module.tables["t2"]
        assert t1.predicate_value is True
        assert t2.predicate_value is False
        assert t1.key_entry.cmp_op == CmpOp.GT
        assert t1.key_mask & 1  # flag bit matched
        # then-branch keys carry flag=1; else-branch flag=0
        assert t1.make_key({"hdr.udp.srcPort": 7}) & 1 == 1
        assert t2.make_key({"hdr.udp.dstPort": 7}) & 1 == 0

    def test_predicate_immediate_limit(self):
        control = """
    action a() { hdr.ipv4.identification = 1; }
    table t1 { key = { hdr.udp.srcPort: exact; } actions = { a; } size = 2; }
    apply { if (hdr.udp.length > 1000) { t1.apply(); } }
"""
        with pytest.raises(CompilerError, match="7-bit"):
            compile_control(control)

    def test_nested_if_rejected(self):
        control = """
    action a() { hdr.ipv4.identification = 1; }
    table t1 { key = { hdr.udp.srcPort: exact; } actions = { a; } size = 2; }
    apply {
        if (hdr.udp.length > 10) {
            if (hdr.udp.srcPort > 10) { t1.apply(); }
        }
    }
"""
        with pytest.raises(CompilerError, match="nested"):
            compile_control(control)

    def test_register_binding(self):
        control = """
    register<bit<32>>(8) seq;
    action bump() { seq.loadd(hdr.ipv4.identification, 0); }
    table t { key = { hdr.udp.dstPort: exact; } actions = { bump; } size = 2; }
    apply { t.apply(); }
"""
        module = compile_control(control)
        spec = module.registers["seq"]
        assert spec.size == 8
        assert spec.stage == module.tables["t"].stage
        action = module.tables["t"].actions["bump"]
        vliw = action.make_vliw({}, register_bases={"seq": 16})
        ops = dict(vliw.non_nop())
        slot = module.field_alloc["hdr.ipv4.identification"].flat_index
        assert ops[slot].opcode == AluOp.LOADD
        assert ops[slot].immediate == 16  # base + const addr 0

    def test_register_base_required(self):
        control = """
    register<bit<32>>(8) seq;
    action bump() { seq.loadd(hdr.ipv4.identification, 3); }
    table t { key = { hdr.udp.dstPort: exact; } actions = { bump; } size = 2; }
    apply { t.apply(); }
"""
        module = compile_control(control)
        action = module.tables["t"].actions["bump"]
        with pytest.raises(CompilerError):
            action.make_vliw({})  # no register base provided

    def test_register_address_out_of_bounds(self):
        control = """
    register<bit<32>>(8) seq;
    action bump() { seq.loadd(hdr.ipv4.identification, 8); }
    table t { key = { hdr.udp.dstPort: exact; } actions = { bump; } size = 2; }
    apply { t.apply(); }
"""
        with pytest.raises(CompilerError, match="out of register"):
            compile_control(control)

    def test_store_places_on_source_slot(self):
        control = """
    register<bit<32>>(8) mem;
    action save() { mem.write(2, hdr.ipv4.srcAddr); }
    table t { key = { hdr.udp.dstPort: exact; } actions = { save; } size = 2; }
    apply { t.apply(); }
"""
        module = compile_control(control)
        action = module.tables["t"].actions["save"]
        vliw = action.make_vliw({}, register_bases={"mem": 0})
        ops = dict(vliw.non_nop())
        slot = module.field_alloc["hdr.ipv4.srcAddr"].flat_index
        assert ops[slot].opcode == AluOp.STORE
        assert ops[slot].immediate == 2

    def test_mcast_action(self):
        control = """
    action flood() { standard_metadata.mcast_grp = 5; }
    table t { key = { hdr.ipv4.dstAddr: exact; } actions = { flood; } size = 2; }
    apply { t.apply(); }
"""
        module = compile_control(control)
        vliw = module.tables["t"].actions["flood"].make_vliw({})
        ops = dict(vliw.non_nop())
        assert ops[24].opcode == AluOp.MCAST
        assert ops[24].immediate == 5

    def test_two_metadata_ops_conflict(self):
        control = """
    action both() {
        standard_metadata.egress_spec = 1;
        standard_metadata.mcast_grp = 5;
    }
    table t { key = { hdr.ipv4.dstAddr: exact; } actions = { both; } size = 2; }
    apply { t.apply(); }
"""
        with pytest.raises(CompilerError, match="slot"):
            compile_control(control)

    def test_key_too_wide_for_class(self):
        control = """
    action a() { hdr.ipv4.identification = 1; }
    table t {
        key = {
            hdr.ipv4.srcAddr: exact;
            hdr.ipv4.dstAddr: exact;
            hdr.ipv4.totalLen: exact;
        }
        actions = { a; } size = 2;
    }
    apply { t.apply(); }
"""
        # 2x 32-bit + 1x 16-bit is fine; add a third 32-bit to overflow.
        module = compile_control(control)
        assert len(module.tables["t"].key_layout) == 3

        control_bad = control.replace(
            "hdr.ipv4.totalLen: exact;",
            "hdr.ipv4.totalLen: exact; hdr.calc_unused.x: exact;")
        # simpler: three 32-bit fields
        control_bad = """
    action a() { hdr.ipv4.identification = 1; }
    table t {
        key = {
            hdr.ipv4.srcAddr: exact;
            hdr.ipv4.dstAddr: exact;
            hdr.extra.f: exact;
        }
        actions = { a; } size = 2;
    }
    apply { t.apply(); }
"""
        extra = "header extra_t { bit<32> f; }"
        src = minimal_module(control_bad, extra_headers=extra,
                             extra_struct="extra_t extra;").replace(
            "transition accept;\n    }",
            "transition parse_extra;\n    }\n    state parse_extra {"
            " packet.extract(hdr.extra); transition accept; }")
        with pytest.raises(AllocationError, match="2 key fields"):
            compile_module(src, "wide")

    def test_system_target_stage_map(self):
        target = system_target()
        assert target.stage_map == [0, 4]

    def test_table_size_exceeding_cam_rejected(self):
        control = SIMPLE_CONTROL.replace("size = 4;", "size = 17;")
        with pytest.raises(ResourceError):
            compile_control(control)


class TestSharedFieldTarget:
    def test_shared_field_reuses_container(self):
        base = compile_control(SIMPLE_CONTROL)
        sys_fields = {"hdr.ipv4.dstAddr":
                      type("F", (), {"byte_offset": 34, "width_bits": 32})()}
        sys_alloc = {"hdr.ipv4.dstAddr": ContainerRef(ContainerType.B4, 5)}
        target = base.target.with_system_reservations(sys_alloc, sys_fields)
        module = compile_control(
            SIMPLE_CONTROL, options=CompilerOptions(target=target))
        assert module.field_alloc["hdr.ipv4.dstAddr"] == ContainerRef(
            ContainerType.B4, 5)

    def test_shared_parse_actions_merged(self):
        sys_fields = {"hdr.ipv4.srcAddr":
                      type("F", (), {"byte_offset": 30, "width_bits": 32})()}
        sys_alloc = {"hdr.ipv4.srcAddr": ContainerRef(ContainerType.B4, 6)}
        base = compile_control(SIMPLE_CONTROL)
        target = base.target.with_system_reservations(sys_alloc, sys_fields)
        module = compile_control(
            SIMPLE_CONTROL, options=CompilerOptions(target=target))
        offsets = [(a.bytes_from_head, a.container)
                   for a in module.parse_actions]
        assert (30, ContainerRef(ContainerType.B4, 6)) in offsets

    def test_user_target_stage_map(self):
        base = compile_control(SIMPLE_CONTROL)
        target = base.target.with_system_reservations({}, {})
        assert target.stage_map == [1, 2, 3]


def _system_derived_target() -> TargetDescription:
    switch = Switch.build().create()
    switch.install_system()
    return switch.controller.compile_target()


class TestAnalyseBackendSeam:
    """``compile_module`` is ``analyse`` + the per-target backend: one
    analysed program, compiled for many targets, gives what compiling
    the text afresh per target gives — and is only read, never
    written, so a control-plane fan-out may share it."""

    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.NAME)
    @pytest.mark.parametrize("base", [user_target(),
                                      _system_derived_target()],
                             ids=["user", "system-derived"])
    def test_shared_ir_compiles_like_fresh_source_in_every_window(
            self, module, base):
        ir = analyse(module.P4_SOURCE, module.NAME)
        before, pickled = copy.deepcopy(ir), pickle.dumps(ir)
        outcomes = set()
        for offset in range(len(base.stage_map)):
            options = CompilerOptions(
                target=replace(base, stage_map=base.stage_map[offset:]))

            def attempt(program):
                try:
                    return compile_module(program, module.NAME, options)
                except CompilerError as exc:
                    return type(exc), str(exc)

            fresh, shared = attempt(module.P4_SOURCE), attempt(ir)
            assert fresh == shared, f"window {offset}"
            if not isinstance(fresh, tuple):
                assert pickle.dumps(fresh) == pickle.dumps(shared)
            outcomes.add(isinstance(fresh, tuple))
        assert False in outcomes    # the full window always fits
        # The backend left the IR as it found it, by value and by
        # structure (same object, so the pickles are comparable).
        assert ir == before
        assert pickle.dumps(ir) == pickled

    def test_some_window_fails_and_fails_identically(self):
        # Guard the parametrised test's failing-window half against
        # vacuity: netcache's two tables do not fit a one-stage window.
        from repro.modules import netcache
        base = user_target()
        options = CompilerOptions(
            target=replace(base, stage_map=base.stage_map[-1:]))
        ir = analyse(netcache.P4_SOURCE, "netcache")
        with pytest.raises(AllocationError) as shared:
            compile_module(ir, "netcache", options)
        with pytest.raises(AllocationError) as fresh:
            compile_module(netcache.P4_SOURCE, "netcache", options)
        assert str(shared.value) == str(fresh.value)

    def test_analyse_is_the_identity_on_an_analysed_program(self):
        src = minimal_module(SIMPLE_CONTROL)
        ir = analyse(src, "once")
        assert analyse(ir, "ignored") is ir
        assert compile_module(ir).name == "once"

    def test_static_checks_belong_to_analyse(self):
        evil = minimal_module("""
    action evil() { hdr.vlan.tci = 99; }
    table t { key = { hdr.udp.dstPort: exact; } actions = { evil; } size = 2; }
    apply { t.apply(); }
""")
        with pytest.raises(StaticCheckError, match="VID"):
            analyse(evil, "evil")
        ir = analyse(evil, "evil", run_static_checks=False)
        assert compile_module(ir).name == "evil"
