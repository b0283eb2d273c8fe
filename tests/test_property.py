"""Property-based tests (hypothesis) on core data structures and the
isolation invariants."""

from contextlib import nullcontext

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Tenant
from repro import bits
from repro.core import OverlayTable, SegmentTable, SegmentedAccess
from repro.core.reconfig import (
    ResourceId,
    ResourceType,
    build_reconfig_packet,
    entry_payload_bytes,
    parse_reconfig_packet,
)
from repro.core.packet_filter import PacketFilter
from repro.errors import ConfigError, FieldRangeError, ReconfigurationError, \
    SegmentFaultError
from repro.net import PacketBuilder, parse_layers
from repro.net.checksum import internet_checksum, pseudo_header_ipv4, \
    verify_checksum
from repro.net.udp_ import MENSHEN_RECONFIG_DPORT
from repro.rmt import (
    AluAction,
    AluOp,
    CmpOp,
    ExactMatchTable,
    KeyExtractEntry,
    KeyExtractor,
    StatefulMemory,
    VliwInstruction,
)
from repro.rmt.action_engine import ActionEngine, StatefulAccess
from repro.rmt.config_table import ConfigTable
from repro.rmt.encodings import (
    FULL_KEY_MASK,
    decode_cam_entry,
    decode_key,
    decode_parse_action,
    decode_parser_entry,
    encode_cam_entry,
    encode_key,
    encode_parse_action,
    encode_parser_entry,
)
from repro.rmt.match_table import CamEntry
from repro.rmt.params import DEFAULT_PARAMS
from repro.rmt.phv import PHV, ContainerRef, ContainerType

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

container_refs = st.builds(
    ContainerRef,
    st.sampled_from([ContainerType.B2, ContainerType.B4, ContainerType.B6]),
    st.integers(0, 7))

key_parts = st.tuples(
    st.integers(0, (1 << 48) - 1), st.integers(0, (1 << 48) - 1),
    st.integers(0, (1 << 32) - 1), st.integers(0, (1 << 32) - 1),
    st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))

#: One value per data container, each inside its width (B2, B4, B6 order).
phv_values = st.tuples(*(
    st.integers(0, (1 << (8 * ctype.size_bytes)) - 1)
    for ctype in (ContainerType.B2, ContainerType.B4, ContainerType.B6)
    for _ in range(8)))

#: A predicate operand: a data container or a 7-bit immediate.
cmp_operands = st.one_of(container_refs, st.integers(0, 0x7F))

key_extract_entries = st.builds(
    KeyExtractEntry,
    idx_6b_1=st.integers(0, 7), idx_6b_2=st.integers(0, 7),
    idx_4b_1=st.integers(0, 7), idx_4b_2=st.integers(0, 7),
    idx_2b_1=st.integers(0, 7), idx_2b_2=st.integers(0, 7),
    cmp_op=st.sampled_from(list(CmpOp)),
    cmp_a=cmp_operands, cmp_b=cmp_operands)


# ---------------------------------------------------------------------------
# bit packing
# ---------------------------------------------------------------------------

class TestBitsProperties:
    @given(st.integers(0, (1 << 193) - 1), st.integers(1, 205))
    def test_bytes_roundtrip(self, value, width):
        if value < (1 << width):
            assert bits.from_bytes(bits.to_bytes(value, width),
                                   width) == value

    @given(st.lists(st.tuples(st.integers(0, 255), st.just(8)),
                    min_size=1, max_size=20))
    def test_concat_split_inverse(self, fields):
        word = bits.concat_fields(fields)
        assert bits.split_fields(word, [w for _v, w in fields]) \
            == [v for v, _w in fields]

    @given(st.integers(0, (1 << 16) - 1), st.integers(0, 15),
           st.integers(1, 8))
    def test_set_get_bits(self, word, offset, width):
        value = word & bits.mask(width)
        updated = bits.set_bits(word, offset, width, value)
        assert bits.get_bits(updated, offset, width) == value


# ---------------------------------------------------------------------------
# encodings
# ---------------------------------------------------------------------------

class TestEncodingProperties:
    @given(st.integers(0, 127), st.integers(0, 2), st.integers(0, 7),
           st.integers(0, 1))
    def test_parse_action_roundtrip(self, offset, ctype, cindex, valid):
        word = encode_parse_action(offset, ctype, cindex, valid)
        fields = decode_parse_action(word)
        assert (fields["bytes_from_head"], fields["container_type"],
                fields["container_index"], fields["valid"]) == \
            (offset, ctype, cindex, valid)

    @given(st.lists(st.integers(0, (1 << 16) - 1), min_size=0, max_size=10))
    def test_parser_entry_roundtrip(self, actions):
        entry = encode_parser_entry(actions)
        decoded = decode_parser_entry(entry)
        assert decoded[:len(actions)] == actions
        assert all(w == 0 for w in decoded[len(actions):])

    @given(key_parts, st.integers(0, 1))
    def test_key_roundtrip(self, parts, flag):
        key = encode_key(list(parts), flag)
        back, back_flag = decode_key(key)
        assert tuple(back) == parts and back_flag == flag

    @given(key_parts, st.integers(0, 1), st.integers(0, 0xFFF))
    def test_cam_entry_roundtrip(self, parts, flag, module_id):
        key = encode_key(list(parts), flag)
        entry = encode_cam_entry(key, module_id)
        assert decode_cam_entry(entry) == (key, module_id)

    @given(container_refs, container_refs)
    def test_two_operand_alu_roundtrip(self, c1, c2):
        for op in (AluOp.ADD, AluOp.SUB):
            action = AluAction(op, c1=c1, c2=c2)
            assert AluAction.decode(action.encode()) == action

    @given(container_refs, st.integers(0, (1 << 16) - 1),
           st.sampled_from([AluOp.ADDI, AluOp.SUBI, AluOp.LOAD,
                            AluOp.STORE, AluOp.LOADD, AluOp.PORT,
                            AluOp.MCAST]))
    def test_immediate_alu_roundtrip(self, c1, imm, op):
        action = AluAction(op, c1=c1, immediate=imm)
        assert AluAction.decode(action.encode()) == action

    @given(st.dictionaries(st.integers(0, 23),
                           st.builds(lambda i: AluAction(AluOp.SET,
                                                         immediate=i),
                                     st.integers(0, 0xFFFF)),
                           max_size=10))
    def test_vliw_roundtrip(self, sparse):
        instr = VliwInstruction.from_sparse(sparse)
        assert VliwInstruction.decode(instr.encode()) == instr


# ---------------------------------------------------------------------------
# checksum
# ---------------------------------------------------------------------------

class TestChecksumProperties:
    @given(st.binary(min_size=0, max_size=256).filter(
        lambda d: len(d) % 2 == 0))
    def test_data_plus_checksum_verifies(self, data):
        # The verification identity holds when the checksum slot is
        # 16-bit aligned, which is how every real header lays it out.
        checksum = internet_checksum(data)
        assert internet_checksum(data + checksum.to_bytes(2, "big")) == 0

    @given(st.binary(min_size=2, max_size=64))
    def test_checksum_detects_single_bit_flips(self, data):
        checksum = internet_checksum(data)
        flipped = bytearray(data)
        flipped[0] ^= 0x01
        if bytes(flipped) != data:
            assert internet_checksum(bytes(flipped)) != checksum


# ---------------------------------------------------------------------------
# isolation invariants
# ---------------------------------------------------------------------------

class TestIsolationProperties:
    @given(st.lists(st.tuples(st.integers(0, 31),
                              st.integers(0, (1 << 16) - 1)),
                    min_size=1, max_size=50))
    def test_overlay_rows_independent(self, writes):
        """Writing any sequence of rows never changes other rows."""
        table = OverlayTable("t", 16, 32)
        shadow = {}
        for module_id, value in writes:
            table.write(module_id, value)
            shadow[module_id] = value
            for m in range(32):
                assert table.lookup(m) == shadow.get(m, 0)

    @given(st.integers(0, 255), st.integers(1, 255), st.integers(0, 300))
    def test_segment_translation_bounds(self, offset, range_, addr):
        seg = SegmentTable("seg", 32)
        seg.set_segment(5, offset=offset, range_=range_)
        if 0 <= addr < range_:
            phys = seg.translate(5, addr)
            assert offset <= phys < offset + range_
        else:
            try:
                seg.translate(5, addr)
                assert False, "expected a segment fault"
            except SegmentFaultError:
                pass

    @given(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 15),
                              st.integers(0, (1 << 32) - 1)),
                    min_size=1, max_size=40))
    def test_segmented_memory_never_crosses(self, ops):
        """Random per-module writes only land in the owner's segment."""
        mem = StatefulMemory(words=64)
        seg = SegmentTable("seg", 32)
        bases = {1: 0, 2: 16, 3: 32, 4: 48}
        for module_id, base in bases.items():
            seg.set_segment(module_id, offset=base, range_=16)
        access = SegmentedAccess(mem, seg)
        shadow = {m: [0] * 16 for m in bases}
        for module_id, addr, value in ops:
            access.write(module_id, addr, value)
            shadow[module_id][addr] = value
        for module_id, base in bases.items():
            assert mem.region(base, 16) == shadow[module_id]

    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 0xFF),
                              st.integers(1, 4)),
                    min_size=1, max_size=16,
                    unique_by=lambda t: t[0]))
    def test_cam_module_id_is_hard_boundary(self, entries):
        """A module's lookups only ever hit its own entries."""
        cam = ExactMatchTable()
        seen = set()
        installed = []
        for index, key, module_id in entries:
            if (key, module_id) in seen:
                continue
            seen.add((key, module_id))
            cam.write(index, key=key, module_id=module_id)
            installed.append((index, key, module_id))
        for index, key, module_id in installed:
            for other in range(1, 5):
                hit = cam.lookup(key, other)
                if hit is not None:
                    entry = cam.read(hit)
                    assert entry.module_id == other


# ---------------------------------------------------------------------------
# content-addressed CAM
# ---------------------------------------------------------------------------

#: One CAM control-plane step over a depth-8 table. Keys 0..3 and
#: module IDs 1..3 make rewrites of occupied rows, duplicate words and
#: repeated invalidations common.
cam_steps = st.one_of(
    st.tuples(st.sampled_from(["write_entry", "write", "write_word"]),
              st.integers(0, 7), st.integers(0, 3), st.integers(1, 3)),
    st.tuples(st.just("invalidate"), st.integers(0, 7)))


class TestCamIndexProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(cam_steps, max_size=30),
           st.lists(st.tuples(st.integers(0, (1 << 193) - 1),
                              st.integers(0, (1 << 12) - 1)), max_size=4))
    def test_lookup_equals_a_scan_of_the_rows(self, steps, misses):
        """After every write, raw-word write, refused duplicate and
        invalidation, ``lookup`` answers what a lowest-address scan of
        ``read(i)`` answers, for every pair that could be installed and
        for random misses, and each lookup moves ``lookup_count`` by one
        and ``hit_count`` by one exactly when it hits. The rows follow a
        plain model, so a refused duplicate changes nothing."""
        cam = ExactMatchTable(depth=8)
        model = [None] * 8
        lookups = hits = 0
        for step in steps:
            name, index = step[0], step[1]
            if name == "invalidate":
                cam.invalidate(index)
                model[index] = None
            else:
                pair = step[2:]
                holder = next((i for i, row in enumerate(model)
                               if row == pair and i != index), None)
                with (pytest.raises(ConfigError, match=(
                        f"duplicate CAM word at addresses {holder} "
                        f"and {index}$"))
                      if holder is not None else nullcontext()):
                    if name == "write_entry":
                        cam.write_entry(index, CamEntry(*pair))
                    elif name == "write":
                        cam.write(index, *pair)
                    else:
                        cam.write_word(index, encode_cam_entry(*pair))
                if holder is None:
                    model[index] = pair
            rows = [cam.read(i) for i in range(8)]
            assert [None if row is None else (row.key, row.module_id)
                    for row in rows] == model
            probes = [(k, m) for k in range(4) for m in range(4)] + misses
            for key, module_id in probes:
                expected = next(
                    (i for i, row in enumerate(rows) if row is not None
                     and (row.key, row.module_id) == (key, module_id)),
                    None)
                assert cam.lookup(key, module_id) == expected
                lookups += 1
                hits += expected is not None
                assert (cam.lookup_count, cam.hit_count) == (lookups, hits)


# ---------------------------------------------------------------------------
# key extractor
# ---------------------------------------------------------------------------

def _key_extractor(entry, mask=FULL_KEY_MASK):
    extractor = KeyExtractor(
        ConfigTable("ke", DEFAULT_PARAMS.key_extractor_entry_bits, 1,
                    decode=KeyExtractEntry.decode),
        ConfigTable("km", DEFAULT_PARAMS.key_bits, 1))
    extractor.install(0, entry, mask)
    return extractor


def _reference_key(phv, entry, mask):
    """The key as ``encode_key`` packs it, slot by slot through
    ``PHV.get``, with the flag from ``CmpOp.evaluate``."""
    slots = ((ContainerType.B6, entry.idx_6b_1),
             (ContainerType.B6, entry.idx_6b_2),
             (ContainerType.B4, entry.idx_4b_1),
             (ContainerType.B4, entry.idx_4b_2),
             (ContainerType.B2, entry.idx_2b_1),
             (ContainerType.B2, entry.idx_2b_2))
    parts = [phv.get(ContainerRef(ctype, index)) for ctype, index in slots]

    def operand(value):
        return phv.get(value) if isinstance(value, ContainerRef) else value
    flag = entry.cmp_op.evaluate(operand(entry.cmp_a), operand(entry.cmp_b))
    return encode_key(parts, int(flag)) & mask


class TestKeyExtractorProperties:
    @given(phv_values, key_extract_entries, st.integers(0, FULL_KEY_MASK))
    def test_shift_or_key_equals_encode_key(self, values, entry, mask):
        phv = PHV()
        for flat, value in enumerate(values):
            phv.set(ContainerRef(ContainerType(flat // 8), flat % 8), value)
        expected = _reference_key(phv, entry, mask)
        assert _key_extractor(entry, mask).extract(phv, 0) == expected
        # and with every key bit kept, so no slot hides under the mask
        assert _key_extractor(entry).extract(phv, 0) == \
            _reference_key(phv, entry, FULL_KEY_MASK)

    @pytest.mark.parametrize("op", list(CmpOp))
    def test_metadata_operand_is_a_config_error_under_every_op(self, op):
        meta = ContainerRef(ContainerType.META, 0)
        for cmp_a, cmp_b in ((meta, 3), (3, meta), (meta, meta)):
            extractor = _key_extractor(
                KeyExtractEntry(cmp_op=op, cmp_a=cmp_a, cmp_b=cmp_b))
            with pytest.raises(ConfigError, match="not directly readable"):
                extractor.extract(PHV(), 0)


# ---------------------------------------------------------------------------
# action engine
# ---------------------------------------------------------------------------

class TestEngineProperties:
    @given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
    def test_add_matches_wrapping_arithmetic(self, a, b):
        engine = ActionEngine(StatefulAccess(StatefulMemory(4)))
        phv = PHV()
        phv.set(ContainerRef(ContainerType.B2, 1), a)
        phv.set(ContainerRef(ContainerType.B2, 2), b)
        instr = VliwInstruction.from_sparse({
            0: AluAction(AluOp.ADD, c1=ContainerRef(ContainerType.B2, 1),
                         c2=ContainerRef(ContainerType.B2, 2)),
        })
        out = engine.execute(instr, phv, 0)
        assert out.get(ContainerRef(ContainerType.B2, 0)) \
            == (a + b) % (1 << 16)

    @given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
    def test_execution_is_deterministic(self, a, imm):
        engine = ActionEngine(StatefulAccess(StatefulMemory(4)))
        phv = PHV()
        phv.set(ContainerRef(ContainerType.B2, 0), a)
        instr = VliwInstruction.from_sparse({
            1: AluAction(AluOp.ADDI, c1=ContainerRef(ContainerType.B2, 0),
                         immediate=imm),
        })
        out1 = engine.execute(instr, phv, 0)
        out2 = engine.execute(instr, phv, 0)
        assert out1 == out2

    @given(st.integers(0, 0xFFFF))
    def test_all_nop_is_identity(self, value):
        engine = ActionEngine(StatefulAccess(StatefulMemory(4)))
        phv = PHV()
        phv.set(ContainerRef(ContainerType.B2, 3), value)
        out = engine.execute(VliwInstruction(), phv, 0)
        assert out == phv


# ---------------------------------------------------------------------------
# reconfiguration packets
# ---------------------------------------------------------------------------

class TestReconfigProperties:
    @given(st.sampled_from(list(ResourceType)), st.integers(0, 4),
           st.integers(0, 255), st.data())
    @settings(max_examples=60)
    def test_reconfig_packet_roundtrip(self, rtype, stage, index, data):
        nbytes = entry_payload_bytes(rtype)
        entry = data.draw(st.integers(0, (1 << (8 * nbytes)) - 1)) \
            if nbytes else 0
        resource = ResourceId(rtype, stage)
        packet = build_reconfig_packet(resource, index, entry)
        payload = parse_reconfig_packet(packet)
        assert payload.resource == resource
        assert payload.index == index
        assert payload.entry == entry

    @given(st.sampled_from(list(ResourceType)), st.integers(0, 255),
           st.integers(0, 255), st.sampled_from([0, 1, 17, 4095]),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_reconfig_packet_is_byte_identical_to_packet_builder(
            self, rtype, stage, index, vid, data):
        # build_reconfig_packet frames from a constant header; the
        # fluent PacketBuilder chain it replaced stays here as the
        # reference, so the bytes stay Fig. 7's.
        nbytes = entry_payload_bytes(rtype)
        entry = data.draw(st.one_of(
            st.integers(0, (1 << (8 * nbytes)) - 1),
            st.sampled_from([0, (1 << (8 * nbytes)) - 1]))) if nbytes else 0
        resource = ResourceId(rtype, stage)
        packet = build_reconfig_packet(resource, index, entry, vid=vid)
        reference = _packet_builder_reconfig_packet(resource, index, entry,
                                                    vid=vid)
        assert packet.tobytes() == reference.tobytes()
        assert (packet.ingress_port, packet.arrival_time) == \
            (reference.ingress_port, reference.arrival_time)
        assert parse_reconfig_packet(packet) == parse_reconfig_packet(
            reference)
        assert parse_reconfig_packet(packet).entry == entry
        assert PacketFilter.is_reconfig_packet(packet)
        layers = parse_layers(packet)
        assert layers["vlan"].vid == vid
        ip, udp = layers["ipv4"], layers["udp"]
        assert ip.total_length == len(packet) - ip.offset
        assert udp.length == len(packet) - udp.offset
        assert verify_checksum(packet.read_bytes(ip.offset, ip.HEADER_LEN))
        assert verify_checksum(
            pseudo_header_ipv4(int(ip.src), int(ip.dst), 17, udp.length)
            + packet.read_bytes(udp.offset, udp.length))

    @pytest.mark.parametrize("rtype, index, entry, vid, error", [
        (ResourceType.SEGMENT, 256, 0, 0, ReconfigurationError),
        (ResourceType.SEGMENT, -1, 0, 0, ReconfigurationError),
        (ResourceType.SEGMENT, 0, 1 << 16, 0, ReconfigurationError),
        (ResourceType.SEGMENT, 0, -1, 0, ReconfigurationError),
        (ResourceType.CAM_INVALIDATE, 0, 5, 0, ReconfigurationError),
        (ResourceType.SEGMENT, 0, 0, 4096, FieldRangeError),
        (ResourceType.SEGMENT, 0, 0, -1, FieldRangeError),
        # several bad at once: the first check in order reports
        (ResourceType.SEGMENT, 256, 1 << 16, 4096, ReconfigurationError),
    ])
    def test_reconfig_packet_errors_match_packet_builder(
            self, rtype, index, entry, vid, error):
        resource = ResourceId(rtype, 0)
        with pytest.raises(error) as got:
            build_reconfig_packet(resource, index, entry, vid=vid)
        with pytest.raises(error) as want:
            _packet_builder_reconfig_packet(resource, index, entry, vid=vid)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    def test_payload_width_table_matches_the_named_widths(self):
        # The per-params tuple is indexed by the resource-type code;
        # pin it to widths looked up by *name*, on the prototype and on
        # a geometry where every width differs from it.
        for params in (DEFAULT_PARAMS, DEFAULT_PARAMS.with_overrides(
                containers_per_type=6, key_containers_per_type=1,
                parse_actions_per_entry=7, key_extractor_entry_bits=41,
                segment_entry_bits=24, stateful_word_bits=64,
                module_id_bits=9)):
            bits = {
                "PARSER_TABLE": params.parser_entry_bits,
                "DEPARSER_TABLE": params.parser_entry_bits,
                "KEY_EXTRACTOR": params.key_extractor_entry_bits,
                "KEY_MASK": params.key_bits,
                "CAM": params.cam_entry_bits,
                "VLIW": params.vliw_entry_bits,
                "SEGMENT": params.segment_entry_bits,
                "CAM_INVALIDATE": 0,
                "STATEFUL_WORD": params.stateful_word_bits,
                "TCAM": 2 * params.key_bits + params.module_id_bits,
                "DEFAULT_VLIW": params.vliw_entry_bits,
            }
            assert sorted(bits) == sorted(r.name for r in ResourceType)
            for rtype in ResourceType:
                assert entry_payload_bytes(rtype, params) == \
                    (bits[rtype.name] + 7) // 8, (rtype, params)
            assert len(params.reconfig_entry_bytes) == \
                max(ResourceType) + 1


def _packet_builder_reconfig_packet(resource, index, entry,
                                    params=DEFAULT_PARAMS, vid=0):
    """How reconfiguration packets were framed before the constant
    header: every layer through the fluent builder, per packet."""
    if not 0 <= index < 256:
        raise ReconfigurationError(f"index {index} exceeds 1 byte")
    nbytes = entry_payload_bytes(resource.rtype, params)
    if entry < 0 or (nbytes and entry >= (1 << (8 * nbytes))):
        raise ReconfigurationError(
            f"entry {entry:#x} does not fit {nbytes} payload bytes for "
            f"{resource.rtype.name}")
    if nbytes == 0 and entry:
        raise ReconfigurationError(
            f"{resource.rtype.name} carries no payload, got entry {entry:#x}")
    payload = bytearray()
    payload += (resource.encode() << 4).to_bytes(2, "big")
    payload.append(index)
    payload += b"\x00" * 15
    if nbytes:
        payload += entry.to_bytes(nbytes, "big")
    return (PacketBuilder()
            .ethernet(src="02:00:00:00:00:10", dst="02:00:00:00:00:11")
            .vlan(vid=vid)
            .ipv4(src="10.255.0.1", dst="10.255.0.2")
            .udp(sport=0xF1F1, dport=MENSHEN_RECONFIG_DPORT)
            .payload(bytes(payload))
            .build())


# ---------------------------------------------------------------------------
# end-to-end: CALC vs its golden model
# ---------------------------------------------------------------------------

class TestEndToEndProperty:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([1, 2, 3]), st.integers(0, (1 << 32) - 1),
           st.integers(0, (1 << 32) - 1))
    def test_calc_matches_reference(self, op, a, b):
        from repro.core import MenshenPipeline
        from repro.modules import calc
        from repro.runtime import MenshenController

        pipe = MenshenPipeline()
        ctl = MenshenController(pipe)
        ctl.load_module(1, calc.P4_SOURCE, "calc")
        calc.install(Tenant.attach(ctl, 1))
        result = pipe.process(calc.make_packet(1, op, a, b))
        assert calc.read_result(result.packet) == \
            calc.reference_result(op, a, b)
