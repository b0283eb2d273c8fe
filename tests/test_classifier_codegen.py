"""The compiled classifier's generated code, and its per-shape memo.

``engine/classifier.py`` derives one Python function per plan shape
and one per leaf shape, and binds each to a tenant epoch's tables and
immediates. Two groups of checks:

* **Generated code ≡ the references.** Every compiled op code, at
  every container width where it can wrap, gives what the scalar ALU
  (``ActionEngine.execute``) and the certifier's replay
  (``certify._apply_leaf``) give, with VLIW read-before-write; every
  ``CmpOp`` predicate, on an exact and a ternary stage, selects the
  leaf the scalar stage (``Stage.process``) does.
* **The memo is per shape, counted.** Two VIDs of one program, a
  rebind at an unchanged shape and a fabric update of the same program
  build no source (``cache_info().misses`` unchanged); 64 entries that
  differ only in immediates share one leaf function.
"""

import itertools
from dataclasses import replace

import pytest

from fabric_serve import serve
from repro.analysis.equiv.certify import _apply_leaf, _stage_key
from repro.api import Switch
from repro.engine import compile_classifier
from repro.engine.classifier import (
    _ADD,
    _ADDI,
    _DISCARD,
    _MCAST,
    _PORT,
    _SET,
    _SUB,
    _SUBI,
    _WRAP,
    CompiledClassifier,
    _bind_leaf,
    _classify_factory,
    _compile_ops,
    _compile_stage,
    _leaf_factory,
)
from repro.fabric import leaf_spine
from repro.modules import calc, firewall
from repro.net.packet import Packet
from repro.rmt.action import AluAction, AluOp, VliwInstruction
from repro.rmt.action_engine import ActionEngine
from repro.rmt.key_extractor import CmpOp, KeyExtractEntry
from repro.rmt.params import DEFAULT_PARAMS
from repro.rmt.phv import PHV, ContainerRef
from repro.rmt.stage import Stage
from repro.traffic import workload

VID = 2

#: One ALU slot per container width: B2, B4, B6.
WIDTH_SLOTS = {"b2": 1, "b4": 9, "b6": 17}

ref = ContainerRef.from_flat


def _vals():
    """Odd containers sit just under their width's top, even ones near
    zero: a sum of two odd ones, or an odd one plus an immediate,
    overflows; an even one minus anything large underflows."""
    return [_WRAP[flat] - flat if flat % 2 else flat for flat in range(24)]


def _three_ways(instruction):
    """The containers and metadata after ``instruction`` by the
    generated leaf, the scalar ALU and the certifier's replay."""
    ops = _compile_ops(instruction)
    v, m = _vals(), bytearray(32)
    assert _bind_leaf(ops)(v, m) is None
    scalar = ActionEngine().execute(
        instruction, PHV.from_container_values(_vals()), VID)
    replayed = _vals()
    _apply_leaf(ops, replayed)
    return (v, m), (scalar.data, scalar.metadata.buf), replayed


def _write_case(op, slot):
    """(compiled op code, action writing ``slot``, unwrapped result)."""
    vals = _vals()
    low = slot + 1
    if op is AluOp.ADD:
        return (_ADD, AluAction(op, ref(slot), ref(slot + 2)),
                vals[slot] + vals[slot + 2])
    if op is AluOp.SUB:
        return (_SUB, AluAction(op, ref(low), ref(slot)),
                vals[low] - vals[slot])
    if op is AluOp.ADDI:
        return (_ADDI, AluAction(op, ref(slot), immediate=0xFFFF),
                vals[slot] + 0xFFFF)
    if op is AluOp.SUBI:
        return (_SUBI, AluAction(op, ref(low), immediate=1000),
                vals[low] - 1000)
    return _SET, AluAction(op, immediate=0xABCD), 0xABCD


class TestGeneratedLeaf:
    @pytest.mark.parametrize("width", sorted(WIDTH_SLOTS))
    @pytest.mark.parametrize("op", [AluOp.ADD, AluOp.SUB, AluOp.ADDI,
                                    AluOp.SUBI, AluOp.SET],
                             ids=lambda op: op.name)
    def test_write_op_matches_scalar_alu_and_replay(self, op, width):
        slot = WIDTH_SLOTS[width]
        code, action, raw = _write_case(op, slot)
        instruction = VliwInstruction.from_sparse({slot: action})
        assert _compile_ops(instruction)[0][0] == code
        if op is not AluOp.SET:
            assert not 0 <= raw <= _WRAP[slot]  # the case wraps
        (v, m), (data, meta), replayed = _three_ways(instruction)
        assert v[slot] == raw & _WRAP[slot]
        assert v == data == replayed
        assert m == meta == bytearray(32)

    @pytest.mark.parametrize("op,code,offset", [
        (AluOp.PORT, _PORT, 2), (AluOp.MCAST, _MCAST, 8)],
        ids=["PORT", "MCAST"])
    def test_egress_op_writes_its_metadata_bytes(self, op, code, offset):
        action = AluAction(op, ref(9), immediate=0xFFFF)
        instruction = VliwInstruction.from_sparse({24: action})
        assert _compile_ops(instruction)[0][0] == code
        (v, m), (data, meta), replayed = _three_ways(instruction)
        wrapped = (_vals()[9] + 0xFFFF) & 0xFFFF
        assert m[offset:offset + 2] == wrapped.to_bytes(2, "big")
        assert m == meta
        assert v == data == replayed == _vals()

    def test_discard_sets_the_flag_only(self):
        instruction = VliwInstruction.from_sparse(
            {24: AluAction(AluOp.DISCARD)})
        assert _compile_ops(instruction)[0][0] == _DISCARD
        (v, m), (data, meta), replayed = _three_ways(instruction)
        assert m == meta == bytearray([1]) + bytearray(31)
        assert v == data == replayed == _vals()

    def test_every_op_reads_the_incoming_values(self):
        """Slot 1 reads c3, which slot 3 writes; slot 3 reads c1, which
        slot 1 writes; PORT reads c3. Each sees the value before the
        instruction, as one VLIW word does."""
        instruction = VliwInstruction.from_sparse({
            1: AluAction(AluOp.ADD, ref(3), ref(5)),
            3: AluAction(AluOp.ADDI, ref(1), immediate=7),
            24: AluAction(AluOp.PORT, ref(3), immediate=1)})
        (v, m), (data, meta), replayed = _three_ways(instruction)
        old = _vals()
        assert v[1] == (old[3] + old[5]) & 0xFFFF
        assert v[3] == (old[1] + 7) & 0xFFFF
        assert int.from_bytes(m[2:4], "big") == (old[3] + 1) & 0xFFFF
        assert v == data == replayed
        assert m == meta


def _predicate_stage(kind, op, a, b):
    """A bare stage whose one entry (key = the predicate flag) sets c3
    to 7, with a default action setting it to 9."""
    stage = Stage(0, match_mode=kind, enable_default_actions=True)
    stage.key_extractor.install(
        VID, KeyExtractEntry(cmp_op=op, cmp_a=a, cmp_b=b), mask=1)
    if kind == "exact":
        stage.match_table.write(0, 1, VID)
    else:
        stage.match_table.write(0, 1, 1, VID)

    def set_c3(value):
        return VliwInstruction.from_sparse(
            {3: AluAction(AluOp.SET, immediate=value)})
    stage.install_vliw(0, set_c3(7))
    stage.default_vliw_table.write(VID, set_c3(9).encode())
    return stage


class TestGeneratedStage:
    @pytest.mark.parametrize("kind", ["exact", "ternary"])
    @pytest.mark.parametrize("operands", ["container-imm", "imm-container",
                                          "containers"])
    @pytest.mark.parametrize("op", list(CmpOp), ids=[o.name for o in CmpOp])
    def test_predicate_selects_what_the_scalar_stage_does(self, op,
                                                          operands, kind):
        a, b = {"container-imm": (ref(0), 50),
                "imm-container": (50, ref(2)),
                "containers": (ref(0), ref(2))}[operands]
        stage = _predicate_stage(kind, op, a, b)
        plan = _compile_stage(stage, VID)
        clf = CompiledClassifier(VID, 0, ok=True)
        clf._parse = ((0, 2, 0), (2, 4, 2))
        clf.max_end = 4
        clf._stages = (plan,)
        clf.generate()
        picked = set()
        for x, y in itertools.product((49, 50, 51), repeat=2):
            merged, phv = clf.classify(
                Packet(x.to_bytes(2, "big") + y.to_bytes(2, "big")), 0)
            scalar = PHV()
            scalar.data[0], scalar.data[2] = x, y
            flag = op.evaluate(x if isinstance(a, ContainerRef) else a,
                               y if isinstance(b, ContainerRef) else b)
            assert stage.process(scalar, VID).data == phv.data
            assert _stage_key(plan, scalar.data) == flag
            assert phv.data[3] == (7 if flag else 9)
            picked.add(phv.data[3])
        if op in (CmpOp.DISABLED, CmpOp.ALWAYS):
            assert picked == {7 if op is CmpOp.ALWAYS else 9}
        else:
            assert picked == {7, 9}


def _misses():
    return (_classify_factory.cache_info().misses,
            _leaf_factory.cache_info().misses)


class TestShapeMemo:
    def test_two_vids_of_one_program_share_one_entry(self):
        switch = Switch.build().create()
        workload("firewall").admit(switch, vid=3)
        workload("firewall").admit(switch, vid=4)
        first = compile_classifier(switch.pipeline, 3)
        before = _misses()
        second = compile_classifier(switch.pipeline, 4)
        assert _misses() == before
        assert first._run is not second._run
        assert first._run.__code__ is second._run.__code__
        packet = workload("firewall").flow_packet(4, 1)
        _merged, phv = second.classify(packet, 0)
        assert phv.metadata.module_id == 4

    def test_a_rebind_at_an_unchanged_shape_builds_no_source(self):
        switch = Switch.build().create()
        tenant = switch.admit("fw", firewall.P4_SOURCE, vid=3)
        firewall.install(tenant, allowed=[("10.0.0.1", 80, 1)])
        engine = switch.engine()
        packet = firewall.make_packet(3, "10.0.0.2", 80)
        engine.process(packet.copy())
        before = _misses()
        firewall.install(tenant, allowed=[("10.0.0.2", 80, 2)])
        result = engine.process(packet.copy())
        assert engine.counters.compile_rebuilds == 2
        assert _misses() == before
        assert result.egress_port == 2

    def test_a_fabric_update_of_the_same_program_builds_no_source(self):
        fabric = leaf_spine(leaves=2, spines=2, hosts_per_leaf=4)
        tenant = fabric.tenant(
            "calc1", calc.P4_SOURCE, vid=1,
            installer=lambda handle, port: calc.install(handle, port=port))
        tenant.place(("leaf0", 0), ("leaf1", 0))

        def rebuilds():
            return sum(member.switch.pipeline.stats.total("compile_rebuilds")
                       for member in fabric.switches())

        def hop():
            packet = calc.make_packet(1, calc.OP_ADD, 1, 2)
            assert serve(fabric, [("leaf0", packet)]).exits(1) == \
                [("leaf1", 0)]

        hop()
        bound, before = rebuilds(), _misses()
        tenant.update(calc.P4_SOURCE)
        hop()
        assert rebuilds() == bound + 3  # one per switch on the route
        assert _misses() == before

    def test_entries_differing_in_immediates_share_one_leaf(self):
        params = replace(DEFAULT_PARAMS, match_entries_per_stage=128,
                         vliw_entries_per_stage=128)
        switch = Switch.build().params(params).create()
        tenant = switch.admit(
            "fw", firewall.P4_SOURCE.replace("size = 4;", "size = 64;"),
            vid=3)
        firewall.install(tenant, allowed=[(f"10.0.1.{i}", 80, 100 + i)
                                          for i in range(64)])
        before = _leaf_factory.cache_info()
        clf = compile_classifier(switch.pipeline, 3)
        after = _leaf_factory.cache_info()
        (plan,) = clf._stages
        assert len(set(plan.exact.values())) == 64
        assert after.misses - before.misses <= 1
        assert after.hits + after.misses - before.hits - before.misses == 64
        assert after.currsize - before.currsize <= 1
        for i in (0, 63):
            _merged, phv = clf.classify(
                firewall.make_packet(3, f"10.0.1.{i}", 80), 0)
            assert phv.metadata.dst_port == 100 + i
