"""Tests for the action engine (VLIW semantics) and full stages."""

import pytest

from repro.errors import ConfigError, EncodingError
from repro.rmt import (
    ActionEngine,
    AluAction,
    AluOp,
    ExactMatchTable,
    KeyExtractEntry,
    StatefulAccess,
    StatefulMemory,
    VliwInstruction,
)
from repro.rmt.key_extractor import build_mask
from repro.rmt.encodings import encode_key
from repro.rmt.phv import PHV, ContainerRef, ContainerType
from repro.rmt.stage import Stage

B2 = lambda i: ContainerRef(ContainerType.B2, i)
B4 = lambda i: ContainerRef(ContainerType.B4, i)
B6 = lambda i: ContainerRef(ContainerType.B6, i)


def engine_with_memory(words=16):
    mem = StatefulMemory(words=words)
    return ActionEngine(StatefulAccess(mem)), mem


class TestActionEngineArithmetic:
    def test_add(self):
        engine, _ = engine_with_memory()
        phv = PHV()
        phv.set(B2(1), 10)
        phv.set(B2(2), 32)
        instr = VliwInstruction.from_sparse({
            0: AluAction(AluOp.ADD, c1=B2(1), c2=B2(2)),
        })
        out = engine.execute(instr, phv, 0)
        assert out.get(B2(0)) == 42
        assert phv.get(B2(0)) == 0  # input not mutated

    def test_sub_wraps(self):
        engine, _ = engine_with_memory()
        phv = PHV()
        phv.set(B2(1), 1)
        phv.set(B2(2), 2)
        instr = VliwInstruction.from_sparse({
            0: AluAction(AluOp.SUB, c1=B2(1), c2=B2(2)),
        })
        assert engine.execute(instr, phv, 0).get(B2(0)) == 0xFFFF

    def test_addi_subi_set(self):
        engine, _ = engine_with_memory()
        phv = PHV()
        phv.set(B4(0), 100)
        instr = VliwInstruction.from_sparse({
            8: AluAction(AluOp.ADDI, c1=B4(0), immediate=5),
            9: AluAction(AluOp.SUBI, c1=B4(0), immediate=1),
            10: AluAction(AluOp.SET, immediate=77),
        })
        out = engine.execute(instr, phv, 0)
        assert out.get(B4(0)) == 105
        assert out.get(B4(1)) == 99
        assert out.get(B4(2)) == 77

    def test_add_wraps_at_output_width(self):
        engine, _ = engine_with_memory()
        phv = PHV()
        phv.set(B4(1), 0xFFFFFFFF)  # wide source
        instr = VliwInstruction.from_sparse({
            0: AluAction(AluOp.ADD, c1=B4(1), c2=B4(1)),  # into 2-byte slot
        })
        assert engine.execute(instr, phv, 0).get(B2(0)) == 0xFFFE

    def test_parallel_vliw_semantics(self):
        # Both ALUs must read the PRE-instruction PHV: classic swap test.
        engine, _ = engine_with_memory()
        phv = PHV()
        phv.set(B2(0), 1)
        phv.set(B2(1), 2)
        instr = VliwInstruction.from_sparse({
            0: AluAction(AluOp.ADD, c1=B2(1), c2=B2(7)),  # c0 <- c1 + 0
            1: AluAction(AluOp.ADD, c1=B2(0), c2=B2(7)),  # c1 <- c0 + 0
        })
        out = engine.execute(instr, phv, 0)
        assert out.get(B2(0)) == 2
        assert out.get(B2(1)) == 1  # swapped, not 2 (sequential would give 2)


class TestActionEngineStateful:
    def test_store_then_load(self):
        engine, mem = engine_with_memory()
        phv = PHV()
        phv.set(B2(0), 0xAB)  # ALU 0's own value gets stored
        store = VliwInstruction.from_sparse({
            0: AluAction(AluOp.STORE, c1=B2(7), immediate=3),
        })
        engine.execute(store, phv, 0)
        assert mem.read(3) == 0xAB
        load = VliwInstruction.from_sparse({
            1: AluAction(AluOp.LOAD, c1=B2(7), immediate=3),
        })
        out = engine.execute(load, PHV(), 0)
        assert out.get(B2(1)) == 0xAB

    def test_container_indexed_address(self):
        engine, mem = engine_with_memory()
        mem.write(9, 1234)
        phv = PHV()
        phv.set(B2(5), 4)  # addr = phv[c1] + imm = 4 + 5 = 9
        instr = VliwInstruction.from_sparse({
            0: AluAction(AluOp.LOAD, c1=B2(5), immediate=5),
        })
        assert engine.execute(instr, phv, 0).get(B2(0)) == 1234

    def test_loadd_sequencer(self):
        engine, mem = engine_with_memory()
        instr = VliwInstruction.from_sparse({
            0: AluAction(AluOp.LOADD, c1=B2(7), immediate=0),
        })
        seqs = [engine.execute(instr, PHV(), 0).get(B2(0)) for _ in range(3)]
        assert seqs == [1, 2, 3]
        assert mem.read(0) == 3

    def test_stateful_without_memory_raises(self):
        engine = ActionEngine(stateful=None)
        instr = VliwInstruction.from_sparse({
            0: AluAction(AluOp.LOAD, c1=B2(0), immediate=0),
        })
        with pytest.raises(ConfigError):
            engine.execute(instr, PHV(), 0)


class TestActionEngineMetadata:
    def test_port_immediate(self):
        engine, _ = engine_with_memory()
        instr = VliwInstruction.from_sparse({
            24: AluAction(AluOp.PORT, c1=B2(7), immediate=6),
        })
        out = engine.execute(instr, PHV(), 0)
        assert out.metadata.dst_port == 6

    def test_port_from_container(self):
        engine, _ = engine_with_memory()
        phv = PHV()
        phv.set(B2(3), 11)
        instr = VliwInstruction.from_sparse({
            24: AluAction(AluOp.PORT, c1=B2(3), immediate=0),
        })
        assert engine.execute(instr, phv, 0).metadata.dst_port == 11

    def test_discard(self):
        engine, _ = engine_with_memory()
        instr = VliwInstruction.from_sparse({24: AluAction(AluOp.DISCARD)})
        assert engine.execute(instr, PHV(), 0).metadata.discard

    def test_writes_to_metadata_slot_rejected_for_arith(self):
        engine, _ = engine_with_memory()
        instr = VliwInstruction.from_sparse({
            24: AluAction(AluOp.SET, immediate=1),
        })
        with pytest.raises(ConfigError):
            engine.execute(instr, PHV(), 0)


class TestStage:
    def stage(self):
        return Stage(0, config_depth=32)

    def install_match(self, stage, module_id, key_value, vliw, index=0):
        """Install a minimal match path: key = B2[0], entry at `index`."""
        stage.key_extractor.install(
            module_id, KeyExtractEntry(idx_2b_1=0),
            mask=build_mask(use_2b=(True, False)))
        key = encode_key([0, 0, 0, 0, key_value, 0], 0)
        stage.match_table.write(index, key=key, module_id=module_id)
        stage.install_vliw(index, vliw)

    def test_hit_executes_action(self):
        stage = self.stage()
        vliw = VliwInstruction.from_sparse({
            1: AluAction(AluOp.SET, immediate=99),
        })
        self.install_match(stage, 4, 0x1234, vliw)
        phv = PHV()
        phv.set(B2(0), 0x1234)
        out = stage.process(phv, 4)
        assert out.get(B2(1)) == 99

    def test_miss_is_identity(self):
        stage = self.stage()
        self.install_match(stage, 4, 0x1234, VliwInstruction())
        phv = PHV()
        phv.set(B2(0), 0x9999)  # no matching entry
        out = stage.process(phv, 4)
        assert out == phv
        assert stage.misses == 1

    def test_cross_module_no_hit(self):
        stage = self.stage()
        vliw = VliwInstruction.from_sparse({
            1: AluAction(AluOp.SET, immediate=1),
        })
        self.install_match(stage, 4, 0x42, vliw)
        # Module 5 uses the same key layout and key value...
        stage.key_extractor.install(
            5, KeyExtractEntry(idx_2b_1=0),
            mask=build_mask(use_2b=(True, False)))
        phv = PHV()
        phv.set(B2(0), 0x42)
        out = stage.process(phv, 5)
        # ...but cannot hit module 4's entry.
        assert out.get(B2(1)) == 0

    def test_decoded_vliw_row_follows_every_write(self):
        """The row's decoded view is what the hit path executes; both
        write paths replace it, and a packet in between sees the new
        instruction, never the one decoded before."""
        stage = self.stage()
        vliws = [VliwInstruction.from_sparse({
            1: AluAction(AluOp.SET, immediate=value),
        }) for value in (1, 2, 3)]
        self.install_match(stage, 4, 0x42, vliws[0])
        phv = PHV()
        phv.set(B2(0), 0x42)
        assert stage.process(phv, 4).get(B2(1)) == 1
        first = stage.vliw_table.read_decoded(0)
        assert first == vliws[0]
        assert stage.vliw_table.read_decoded(0) is first   # decoded once

        stage.install_vliw(0, vliws[1])
        assert stage.vliw_table.read_decoded(0) == vliws[1]
        assert stage.process(phv, 4).get(B2(1)) == 2

        stage.write_vliw_word(0, vliws[2].encode())
        assert stage.process(phv, 4).get(B2(1)) == 3
        assert stage.vliw_table.read_decoded(0) == vliws[2]

        # The raw path takes any word of the width; it faults when read.
        stage.write_vliw_word(0, 15 << 21)
        for _ in range(2):
            with pytest.raises(EncodingError, match="unknown ALU opcode"):
                stage.process(phv, 4)
        stage.write_vliw_word(0, vliws[0].encode())
        assert stage.process(phv, 4).get(B2(1)) == 1

    def test_predicate_differentiates_entries(self):
        # Same container key, two entries distinguished by the flag bit:
        # the hardware realization of if/else.
        stage = self.stage()
        module = 6
        stage.key_extractor.install(
            module,
            KeyExtractEntry(idx_2b_1=0, cmp_op=CmpOpGT(), cmp_a=B2(1),
                            cmp_b=50),
            mask=build_mask(use_2b=(True, False), use_flag=True))
        key_true = encode_key([0, 0, 0, 0, 7, 0], 1)
        key_false = encode_key([0, 0, 0, 0, 7, 0], 0)
        stage.match_table.write(0, key=key_true, module_id=module)
        stage.match_table.write(1, key=key_false, module_id=module)
        stage.install_vliw(0, VliwInstruction.from_sparse({
            2: AluAction(AluOp.SET, immediate=111)}))
        stage.install_vliw(1, VliwInstruction.from_sparse({
            2: AluAction(AluOp.SET, immediate=222)}))

        hot = PHV()
        hot.set(B2(0), 7)
        hot.set(B2(1), 99)
        cold = PHV()
        cold.set(B2(0), 7)
        cold.set(B2(1), 3)
        assert stage.process(hot, module).get(B2(2)) == 111
        assert stage.process(cold, module).get(B2(2)) == 222


def CmpOpGT():
    from repro.rmt import CmpOp
    return CmpOp.GT
