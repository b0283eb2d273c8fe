"""Tests for multi-module tenants (§3.4 compiler extension)."""

import pytest

from repro.api import TableEntry, Tenant
from repro.compiler import CompilerOptions, compile_module_group
from repro.compiler.target import TargetDescription
from repro.core import MenshenPipeline
from repro.errors import AllocationError, CompilerError
from repro.modules import calc, qos
from repro.runtime import MenshenController


def group_sources():
    # QoS's table is named "classify" and calc's "calc_table": no clash.
    return [("calc", calc.P4_SOURCE), ("qos", qos.P4_SOURCE)]


class TestCompileGroup:
    def test_members_get_disjoint_stages(self):
        merged = compile_module_group(group_sources())
        calc_stage = merged.tables["calc_table"].stage
        qos_stage = merged.tables["classify"].stage
        assert calc_stage != qos_stage
        assert calc_stage < qos_stage  # apply order preserved

    def test_same_offset_fields_share_containers(self):
        merged = compile_module_group(group_sources())
        # Both members key on hdr.udp.dstPort (offset 40, 16 bits): one
        # container, parsed once.
        refs = {ref.encode5() for dotted, ref in merged.field_alloc.items()
                if dotted == "hdr.udp.dstPort"}
        assert len(refs) == 1
        offsets = [a.bytes_from_head for a in merged.parse_actions]
        assert offsets.count(40) == 1

    def test_stage_budget_enforced(self):
        target = TargetDescription(stage_map=[0])  # one stage only
        with pytest.raises(AllocationError, match="stages"):
            compile_module_group(group_sources(),
                                 CompilerOptions(target=target))

    def test_table_name_collision_rejected(self):
        with pytest.raises(CompilerError, match="table name"):
            compile_module_group([("a", calc.P4_SOURCE),
                                  ("b", calc.P4_SOURCE)])

    def test_merged_name(self):
        merged = compile_module_group(group_sources())
        assert merged.name == "calc+qos"

    def test_empty_group_rejected(self):
        with pytest.raises(CompilerError):
            compile_module_group([])


class TestGroupEndToEnd:
    def test_packet_flows_through_both_members(self):
        pipe = MenshenPipeline()
        ctl = MenshenController(pipe)
        merged = compile_module_group(group_sources())
        ctl.load_compiled(5, merged, "tenant5-group")

        # Entries for both members under ONE module id.
        ctl.insert_entry(5, "calc_table", TableEntry.of(
            {"hdr.calc.op": calc.OP_ADD}, "op_add", {"port": 2}))
        ctl.insert_entry(5, "classify", TableEntry.of(
            {"hdr.udp.dstPort": 20000}, "set_tos",
            {"tos": qos.tos_word(qos.DSCP_EF)}))

        packet = calc.make_packet(5, calc.OP_ADD, 30, 12)
        result = pipe.process(packet)
        # calc's stage computed the sum...
        assert calc.read_result(result.packet) == 42
        # ...and qos's stage marked the DSCP, same packet, same pass.
        assert qos.read_dscp(result.packet) == qos.DSCP_EF
        assert result.egress_port == 2

    def test_group_isolated_from_other_modules(self):
        pipe = MenshenPipeline()
        ctl = MenshenController(pipe)
        merged = compile_module_group(group_sources())
        ctl.load_compiled(5, merged, "tenant5-group")
        ctl.insert_entry(5, "calc_table", TableEntry.of(
            {"hdr.calc.op": calc.OP_ADD}, "op_add", {"port": 2}))
        # Another plain calc tenant shares the pipeline.
        ctl.load_module(6, calc.P4_SOURCE, "tenant6")
        calc.install(Tenant.attach(ctl, 6), port=3)

        r5 = pipe.process(calc.make_packet(5, calc.OP_ADD, 1, 1))
        r6 = pipe.process(calc.make_packet(6, calc.OP_ADD, 1, 1))
        assert r5.egress_port == 2 and r6.egress_port == 3
        assert calc.read_result(r5.packet) == 2
        assert calc.read_result(r6.packet) == 2
        # Tenant 6 has no QoS member: its DSCP stays 0 even for the
        # dport tenant 5 classifies.
        assert qos.read_dscp(r6.packet) == 0
