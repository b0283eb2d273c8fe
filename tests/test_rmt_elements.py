"""Tests for parser, deparser, key extractor, match tables, and memory."""

import pytest

from repro.errors import ConfigError, FieldRangeError, PacketError
from repro.net import PacketBuilder
from repro.net.packet import Packet
from repro.rmt import (
    CmpOp,
    ExactMatchTable,
    KeyExtractEntry,
    KeyExtractor,
    ParseAction,
    ProgrammableParser,
    StatefulMemory,
    TernaryMatchTable,
    TrafficManager,
)
from repro.rmt.config_table import ConfigTable
from repro.rmt.deparser import Deparser
from repro.rmt.encodings import FULL_KEY_MASK, encode_key
from repro.rmt.key_extractor import build_mask
from repro.rmt.parser import decode_parse_program, extract_module_id
from repro.rmt.params import DEFAULT_PARAMS
from repro.rmt.phv import PHV, ContainerRef, ContainerType


def make_packet(vid=7, payload=b"\x00" * 16, **kw):
    return (PacketBuilder()
            .ethernet(src="02:00:00:00:00:01", dst="02:00:00:00:00:02")
            .vlan(vid=vid)
            .ipv4(src="10.0.0.1", dst="10.0.0.2")
            .udp(sport=5000, dport=5001)
            .payload(payload)
            .build(**kw))


class TestConfigTable:
    def test_read_write(self):
        table = ConfigTable("t", 16, 4)
        table.write(2, 0xABCD)
        assert table.read(2) == 0xABCD

    def test_width_enforced(self):
        table = ConfigTable("t", 8, 4)
        with pytest.raises(ConfigError):
            table.write(0, 256)

    def test_index_bounds(self):
        table = ConfigTable("t", 8, 4)
        with pytest.raises(ConfigError):
            table.read(4)
        with pytest.raises(ConfigError):
            table.write(-1, 0)

    def test_bad_geometry(self):
        with pytest.raises(ConfigError):
            ConfigTable("t", 8, 0)
        with pytest.raises(ConfigError):
            ConfigTable("t", 0, 8)

    def test_clear(self):
        table = ConfigTable("t", 8, 4)
        table.write(0, 1)
        table.clear(0)
        assert table.read(0) == 0

    def test_read_decoded_follows_the_word(self):
        calls = []

        def decode(word):
            calls.append(word)
            if word == 0xBAD:
                raise FieldRangeError("bad row")
            return ("row", word)

        table = ConfigTable("t", 12, 4, decode=decode)
        assert table.read_decoded(1) == ("row", 0)
        table.write(1, 7)                      # nothing decodes at a write
        assert calls == [0]
        first = table.read_decoded(1)
        assert first == ("row", 7) and table.read_decoded(1) is first
        table.write(2, 9)                      # a neighbour's write
        assert table.read_decoded(1) is first and calls == [0, 7]
        table.write(1, 0xBAD)                  # accepted; faults where read
        for _ in range(2):                     # ... every time: not memoised
            with pytest.raises(FieldRangeError, match="bad row"):
                table.read_decoded(1)
        assert calls == [0, 7, 0xBAD, 0xBAD] and table.read(1) == 0xBAD
        table.clear(1)
        assert table.read_decoded(1) == ("row", 0)
        with pytest.raises(ConfigError):
            table.read_decoded(4)
        with pytest.raises(ConfigError, match="no row decoder"):
            ConfigTable("plain", 8, 4).read_decoded(0)


class TestModuleIdExtraction:
    def test_vid_from_tci(self):
        pkt = make_packet(vid=0x123)
        assert extract_module_id(pkt) == 0x123

    def test_short_packet_raises(self):
        with pytest.raises(PacketError):
            extract_module_id(Packet(b"\x00" * 10))


class TestParser:
    def parser(self):
        table = ConfigTable("parser", DEFAULT_PARAMS.parser_entry_bits, 32,
                            decode=decode_parse_program)
        return ProgrammableParser(table)

    def test_extracts_fields_into_containers(self):
        parser = self.parser()
        # Extract the IPv4 dst (offset 14+4+16=34, 4 bytes) into B4[0]
        parser.install_program(7, [
            ParseAction(34, ContainerRef(ContainerType.B4, 0)),
        ])
        pkt = make_packet(vid=7)
        phv = parser.parse(pkt, 7)
        assert phv.get(ContainerRef(ContainerType.B4, 0)) == int(
            __import__("repro.net", fromlist=["Ipv4Address"]).Ipv4Address("10.0.0.2"))

    def test_metadata_populated(self):
        parser = self.parser()
        parser.install_program(3, [])
        pkt = make_packet(vid=3)
        pkt.ingress_port = 2
        phv = parser.parse(pkt, 3)
        assert phv.metadata.pkt_len == len(pkt)
        assert phv.metadata.src_port == 2
        assert phv.metadata.module_id == 3

    def test_unparsed_containers_are_zero(self):
        parser = self.parser()
        parser.install_program(1, [
            ParseAction(0, ContainerRef(ContainerType.B2, 0)),
        ])
        phv = parser.parse(make_packet(vid=1), 1)
        assert phv.get(ContainerRef(ContainerType.B2, 1)) == 0
        assert phv.get(ContainerRef(ContainerType.B6, 5)) == 0

    def test_parse_window_enforced(self):
        parser = self.parser()
        parser.install_program(1, [
            ParseAction(127, ContainerRef(ContainerType.B4, 0)),
        ])
        big = make_packet(vid=1, payload=b"\x00" * 200)
        with pytest.raises(PacketError):
            parser.parse(big, 1)

    def test_parse_past_packet_end(self):
        parser = self.parser()
        parser.install_program(1, [
            ParseAction(60, ContainerRef(ContainerType.B6, 0)),
        ])
        short = make_packet(vid=1, payload=b"")  # 46 bytes
        with pytest.raises(PacketError):
            parser.parse(short, 1)

    def test_too_many_actions(self):
        parser = self.parser()
        actions = [ParseAction(i, ContainerRef(ContainerType.B2, i % 8))
                   for i in range(11)]
        with pytest.raises(ConfigError):
            parser.install_program(0, actions)

    def test_program_roundtrip(self):
        parser = self.parser()
        actions = [ParseAction(46, ContainerRef(ContainerType.B2, 1)),
                   ParseAction(48, ContainerRef(ContainerType.B4, 2))]
        parser.install_program(9, actions)
        assert list(parser.read_program(9)) == actions


class TestDeparser:
    def build(self):
        ptable = ConfigTable("parser", DEFAULT_PARAMS.parser_entry_bits, 32,
                             decode=decode_parse_program)
        dtable = ConfigTable("deparser", DEFAULT_PARAMS.parser_entry_bits, 32,
                             decode=decode_parse_program)
        return (ProgrammableParser(ptable), Deparser(dtable))

    def test_writeback_modified_container(self):
        parser, deparser = self.build()
        ref = ContainerRef(ContainerType.B4, 0)
        actions = [ParseAction(34, ref)]  # IPv4 dst
        parser.install_program(7, actions)
        deparser.install_program(7, actions)
        pkt = make_packet(vid=7)
        buffered = pkt.copy()
        phv = parser.parse(pkt, 7)
        phv.set(ref, 0x0A000063)  # 10.0.0.99
        out = deparser.deparse(phv, buffered, 7)
        assert out is not None
        assert out.read_int(34, 4) == 0x0A000063

    def test_untouched_bytes_preserved(self):
        parser, deparser = self.build()
        ref = ContainerRef(ContainerType.B2, 0)
        actions = [ParseAction(46, ref)]
        parser.install_program(7, actions)
        deparser.install_program(7, actions)
        pkt = make_packet(vid=7, payload=b"\xaa\xbb\xcc\xdd")
        buffered = pkt.copy()
        phv = parser.parse(pkt, 7)
        out = deparser.deparse(phv, buffered, 7)
        # payload bytes beyond the rewritten ones unchanged
        assert out.read_bytes(48, 2) == b"\xcc\xdd"

    def test_discard_drops(self):
        parser, deparser = self.build()
        parser.install_program(7, [])
        deparser.install_program(7, [])
        pkt = make_packet(vid=7)
        phv = parser.parse(pkt, 7)
        phv.metadata.discard = True
        assert deparser.deparse(phv, pkt.copy(), 7) is None

    def deparse_with(self, action, pkt):
        """Deparse an all-ones PHV into ``pkt`` through a one-action
        program."""
        _parser, deparser = self.build()
        deparser.install_program(7, [action])
        phv = PHV.from_container_values(
            [0xFFFF] * 8 + [0xFFFFFFFF] * 8 + [(1 << 48) - 1] * 8)
        deparser.deparse(phv, pkt, 7)

    def test_write_past_parse_window_raises(self):
        pkt = make_packet(vid=7, payload=b"\x00" * 200)
        assert len(pkt) > DEFAULT_PARAMS.parse_window_bytes
        with pytest.raises(PacketError, match="past the 128-byte window"):
            self.deparse_with(ParseAction(127, ContainerRef(ContainerType.B4, 0)),
                              pkt)
        assert pkt.read_bytes(127, 4) == b"\x00" * 4    # nothing written

    def test_write_past_packet_end_raises(self):
        pkt = make_packet(vid=7, payload=b"")  # 46 bytes
        before = pkt.tobytes()
        with pytest.raises(PacketError, match=r"\[60:66\) past the 46-byte"):
            self.deparse_with(ParseAction(60, ContainerRef(ContainerType.B6, 0)),
                              pkt)
        assert pkt.tobytes() == before

    def test_metadata_target_raises_before_the_window_check(self):
        # Offset 120 is also past the window: the target check fires first.
        for offset in (0, 120):
            pkt = make_packet(vid=7)
            before = pkt.tobytes()
            with pytest.raises(ConfigError, match="cannot target metadata"):
                self.deparse_with(
                    ParseAction(offset, ContainerRef(ContainerType.META, 0)),
                    pkt)
            assert pkt.tobytes() == before


class TestKeyExtractor:
    def extractor(self):
        et = ConfigTable("ke", DEFAULT_PARAMS.key_extractor_entry_bits, 32,
                         decode=KeyExtractEntry.decode)
        mt = ConfigTable("km", DEFAULT_PARAMS.key_bits, 32)
        return KeyExtractor(et, mt)

    def phv_with(self, values):
        phv = PHV()
        for (ctype, index), value in values.items():
            phv.set(ContainerRef(ctype, index), value)
        return phv

    def test_key_assembly_order(self):
        ke = self.extractor()
        ke.install(5, KeyExtractEntry(idx_6b_1=0, idx_4b_1=0, idx_2b_1=0))
        phv = self.phv_with({
            (ContainerType.B6, 0): 0x0102030405,
            (ContainerType.B4, 0): 0xAABBCCDD,
            (ContainerType.B2, 0): 0x1234,
        })
        key = ke.extract(phv, 5)
        # Both slots of each type default to container 0, so each selected
        # value appears twice in the key.
        expected = encode_key(
            [0x0102030405, 0x0102030405, 0xAABBCCDD, 0xAABBCCDD,
             0x1234, 0x1234], 0)
        assert key == expected

    def test_mask_zeroes_unused_slots(self):
        ke = self.extractor()
        mask = build_mask(use_2b=(True, False))
        ke.install(5, KeyExtractEntry(idx_2b_1=3), mask=mask)
        phv = self.phv_with({
            (ContainerType.B2, 3): 0xBEEF,
            (ContainerType.B6, 0): 0xFFFFFFFFFFFF,  # must be masked away
        })
        key = ke.extract(phv, 5)
        assert key == encode_key([0, 0, 0, 0, 0xBEEF, 0], 0)

    def test_predicate_sets_flag_bit(self):
        ke = self.extractor()
        entry = KeyExtractEntry(
            cmp_op=CmpOp.GT,
            cmp_a=ContainerRef(ContainerType.B2, 0),
            cmp_b=10,
        )
        ke.install(1, entry, mask=build_mask(use_flag=True))
        low = self.phv_with({(ContainerType.B2, 0): 5})
        high = self.phv_with({(ContainerType.B2, 0): 50})
        assert ke.extract(low, 1) == 0
        assert ke.extract(high, 1) == 1

    def test_all_cmp_ops(self):
        cases = [
            (CmpOp.EQ, 5, 5, True), (CmpOp.EQ, 5, 6, False),
            (CmpOp.NE, 5, 6, True), (CmpOp.NE, 5, 5, False),
            (CmpOp.GT, 6, 5, True), (CmpOp.GT, 5, 5, False),
            (CmpOp.LT, 4, 5, True), (CmpOp.LT, 5, 5, False),
            (CmpOp.GE, 5, 5, True), (CmpOp.GE, 4, 5, False),
            (CmpOp.LE, 5, 5, True), (CmpOp.LE, 6, 5, False),
            (CmpOp.ALWAYS, 0, 0, True), (CmpOp.DISABLED, 0, 0, False),
        ]
        for op, a, b, expected in cases:
            assert op.evaluate(a, b) is expected, (op, a, b)

    def test_container_vs_container_predicate(self):
        ke = self.extractor()
        entry = KeyExtractEntry(
            cmp_op=CmpOp.EQ,
            cmp_a=ContainerRef(ContainerType.B2, 0),
            cmp_b=ContainerRef(ContainerType.B2, 1),
        )
        ke.install(2, entry, mask=build_mask(use_flag=True))
        same = self.phv_with({(ContainerType.B2, 0): 9,
                              (ContainerType.B2, 1): 9})
        diff = self.phv_with({(ContainerType.B2, 0): 9,
                              (ContainerType.B2, 1): 8})
        assert ke.extract(same, 2) == 1
        assert ke.extract(diff, 2) == 0

    def test_per_module_entries_independent(self):
        ke = self.extractor()
        ke.install(1, KeyExtractEntry(idx_2b_1=0),
                   mask=build_mask(use_2b=(True, False)))
        ke.install(2, KeyExtractEntry(idx_2b_1=1),
                   mask=build_mask(use_2b=(True, False)))
        phv = self.phv_with({(ContainerType.B2, 0): 0x1111,
                             (ContainerType.B2, 1): 0x2222})
        assert ke.extract(phv, 1) == encode_key([0, 0, 0, 0, 0x1111, 0], 0)
        assert ke.extract(phv, 2) == encode_key([0, 0, 0, 0, 0x2222, 0], 0)


class TestExactMatchTable:
    def test_lookup_requires_module_match(self):
        cam = ExactMatchTable()
        cam.write(0, key=0xAB, module_id=1)
        assert cam.lookup(0xAB, 1) == 0
        assert cam.lookup(0xAB, 2) is None  # other module can't hit it

    def test_miss_returns_none(self):
        cam = ExactMatchTable()
        assert cam.lookup(0x1, 0) is None

    def test_duplicate_rejected(self):
        cam = ExactMatchTable()
        cam.write(0, key=5, module_id=1)
        with pytest.raises(ConfigError):
            cam.write(3, key=5, module_id=1)

    def test_same_key_different_modules_ok(self):
        cam = ExactMatchTable()
        cam.write(0, key=5, module_id=1)
        cam.write(1, key=5, module_id=2)
        assert cam.lookup(5, 1) == 0
        assert cam.lookup(5, 2) == 1

    def test_overwrite_same_slot(self):
        cam = ExactMatchTable()
        cam.write(0, key=5, module_id=1)
        cam.write(0, key=6, module_id=1)
        assert cam.lookup(5, 1) is None
        assert cam.lookup(6, 1) == 0

    def test_invalidate(self):
        cam = ExactMatchTable()
        cam.write(2, key=9, module_id=3)
        cam.invalidate(2)
        assert cam.lookup(9, 3) is None
        assert cam.occupancy() == 0

    def test_word_roundtrip(self):
        cam = ExactMatchTable()
        from repro.rmt.encodings import encode_cam_entry
        cam.write_word(1, encode_cam_entry(0x77, 9))
        assert cam.lookup(0x77, 9) == 1

    def test_entries_of(self):
        cam = ExactMatchTable()
        cam.write(0, key=1, module_id=1)
        cam.write(5, key=2, module_id=1)
        cam.write(3, key=3, module_id=2)
        assert cam.entries_of(1) == [0, 5]
        assert cam.entries_of(2) == [3]

    def test_index_bounds(self):
        cam = ExactMatchTable(depth=4)
        with pytest.raises(ConfigError):
            cam.write(4, key=0, module_id=0)

    def test_hit_counters(self):
        cam = ExactMatchTable()
        cam.write(0, key=1, module_id=1)
        cam.lookup(1, 1)
        cam.lookup(2, 1)
        assert cam.lookup_count == 2
        assert cam.hit_count == 1


class TestTernaryMatchTable:
    def test_masked_match(self):
        tcam = TernaryMatchTable()
        tcam.write(0, key=0xAB00, mask=0xFF00, module_id=1)
        assert tcam.lookup(0xABCD, 1) == 0
        assert tcam.lookup(0xAC00, 1) is None

    def test_lowest_address_priority(self):
        tcam = TernaryMatchTable()
        tcam.write(3, key=0x0, mask=0x0, module_id=1)      # match-all
        tcam.write(1, key=0xAB, mask=0xFF, module_id=1)    # specific
        assert tcam.lookup(0xAB, 1) == 1   # specific wins by address
        assert tcam.lookup(0xCD, 1) == 3   # falls through to match-all

    def test_module_isolation(self):
        tcam = TernaryMatchTable()
        tcam.write(0, key=0, mask=0, module_id=1)  # module 1 match-all
        assert tcam.lookup(0x123, 2) is None

    def test_contiguous_blocks_do_not_interfere(self):
        # Module 1 owns addresses 0-3, module 2 owns 4-7. Updating module
        # 1's rules cannot change module 2's lookup results.
        tcam = TernaryMatchTable(depth=8)
        tcam.write(4, key=0x10, mask=0xFF, module_id=2)
        before = tcam.lookup(0x10, 2)
        tcam.write(0, key=0x10, mask=0xFF, module_id=1)
        tcam.write(1, key=0x0, mask=0x0, module_id=1)
        assert tcam.lookup(0x10, 2) == before


class TestStatefulMemory:
    def test_read_write(self):
        mem = StatefulMemory(words=8)
        mem.write(3, 0xCAFE)
        assert mem.read(3) == 0xCAFE

    def test_bounds(self):
        mem = StatefulMemory(words=8)
        with pytest.raises(FieldRangeError):
            mem.read(8)
        with pytest.raises(FieldRangeError):
            mem.write(-1, 0)

    def test_word_width(self):
        mem = StatefulMemory(words=4, word_bits=16)
        with pytest.raises(FieldRangeError):
            mem.write(0, 1 << 16)

    def test_loadd_increments_and_wraps(self):
        mem = StatefulMemory(words=2, word_bits=8)
        assert mem.load_add_store(0) == 1
        assert mem.load_add_store(0) == 2
        mem.write(1, 255)
        assert mem.load_add_store(1) == 0  # wraps at word width

    def test_region_and_fill(self):
        mem = StatefulMemory(words=16)
        mem.fill(4, 4, 7)
        assert mem.region(4, 4) == [7, 7, 7, 7]
        assert mem.region(0, 4) == [0, 0, 0, 0]


class TestTrafficManager:
    def test_unicast(self):
        tm = TrafficManager(num_ports=4)
        pkt = make_packet()
        assert tm.enqueue(pkt, 2) == 1
        assert tm.queue_len(2) == 1
        assert tm.dequeue(2) is pkt
        assert tm.dequeue(2) is None

    def test_multicast_replication(self):
        tm = TrafficManager(num_ports=4)
        tm.set_mcast_group(5, [0, 1, 3])
        pkt = make_packet()
        assert tm.enqueue(pkt, 0, mcast_group=5) == 3
        for port in (0, 1, 3):
            out = tm.dequeue(port)
            assert out == pkt and out is not pkt  # replicas are copies
        assert tm.queue_len(2) == 0

    def test_unknown_mcast_group_drops(self):
        tm = TrafficManager()
        assert tm.enqueue(make_packet(), 0, mcast_group=99) == 0
        assert tm.dropped == 1

    def test_queue_capacity(self):
        tm = TrafficManager(num_ports=1, queue_capacity=2)
        assert tm.enqueue(make_packet(), 0) == 1
        assert tm.enqueue(make_packet(), 0) == 1
        assert tm.enqueue(make_packet(), 0) == 0
        assert tm.dropped == 1

    def test_group_zero_reserved(self):
        tm = TrafficManager()
        with pytest.raises(ConfigError):
            tm.set_mcast_group(0, [1])

    def test_port_bounds(self):
        tm = TrafficManager(num_ports=2)
        with pytest.raises(ConfigError):
            tm.enqueue(make_packet(), 2)

    def test_drain_all(self):
        tm = TrafficManager(num_ports=2)
        tm.enqueue(make_packet(), 0)
        tm.enqueue(make_packet(), 1)
        drained = tm.drain_all()
        assert len(drained[0]) == 1 and len(drained[1]) == 1
        assert tm.total_queued() == 0
