"""Configuration-word codecs: the shift-or encoders and decoders equal
their declared layouts, value for value and error for error.

``WordLayout``, ``concat_fields`` / ``split_fields``, the ALU-action and
VLIW codecs, the reconfiguration packet and the internet checksum move
fields by precomputed shifts and masks. Each is compared here with a
reference that walks the declaration the slow way — one
``BitField.insert`` / ``check_fits`` per field, the RFC 1071 word loop —
on random valid values, and on every class of invalid input, where the
error type and message must be the reference's. A count gate then pins
that a live update of a loaded tenant takes none of the checked
helpers' paths.
"""

import hashlib

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import bits
from repro.api import Switch
from repro.bits import BitField, WordLayout
from repro.errors import EncodingError
from repro.modules import calc
from repro.net.checksum import internet_checksum
from repro.net.packet import Packet
from repro.rmt import encodings as enc
from repro.rmt.action import NOP_ACTION, AluAction, AluOp, VliwInstruction
from repro.rmt.key_extractor import CmpOp, KeyExtractEntry
from repro.rmt.parser import ParseAction, decode_parse_program
from repro.rmt.phv import ContainerRef, ContainerType

#: Every layout ``repro.rmt.encodings`` declares, by name.
LAYOUTS = {name: value for name, value in vars(enc).items()
           if isinstance(value, WordLayout)}


def outcome(fn, *args, **kwargs):
    """``("ok", value)`` or ``("raised", error type, message)``."""
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return ("raised", type(exc), str(exc))


# ---------------------------------------------------------------------------
# references: the declared layouts, walked one checked field at a time
# ---------------------------------------------------------------------------

def reference_pack(layout, **values):
    word = 0
    for name, value in values.items():
        if name not in layout.fields:
            raise EncodingError(f"unknown field {name!r}")
        word = layout.fields[name].insert(word, value)
    return word


def reference_unpack(layout, word):
    bits.check_fits(word, layout.total_width, "word")
    return {name: field.extract(word) for name, field in layout.fields.items()}


def reference_repack(layout, word, **updates):
    bits.check_fits(word, layout.total_width, "word")
    for name, value in updates.items():
        if name not in layout.fields:
            raise EncodingError(f"unknown field {name!r}")
        word = layout.fields[name].insert(word, value)
    return word


def reference_concat(fields):
    word = 0
    for value, width in fields:
        bits.check_fits(value, width, "field")
        word = (word << width) | value
    return word


def reference_split(word, widths):
    bits.check_fits(word, sum(widths), "word")
    out, remaining = [], sum(widths)
    for width in widths:
        remaining -= width
        out.append(bits.get_bits(word, remaining, width))
    return out


def reference_alu_encode(action):
    c1 = action.c1.encode5() if action.c1 is not None else 0
    if action.opcode.uses_immediate:
        return reference_pack(enc.ALU_IMMEDIATE_LAYOUT,
                              opcode=int(action.opcode), container_1=c1,
                              immediate=action.immediate)
    c2 = action.c2.encode5() if action.c2 is not None else 0
    return reference_pack(enc.ALU_TWO_OPERAND_LAYOUT,
                          opcode=int(action.opcode), container_1=c1,
                          container_2=c2)


def reference_alu_decode(word):
    if not word:
        return NOP_ACTION
    try:
        op = AluOp((word >> 21) & 0xF)
    except ValueError as exc:
        raise EncodingError(f"unknown ALU opcode in word {word:#x}") from exc
    if op.uses_immediate:
        f = reference_unpack(enc.ALU_IMMEDIATE_LAYOUT, word)
        c1 = ContainerRef.decode5(f["container_1"]) if op.needs_c1 else None
        return AluAction(opcode=op, c1=c1, immediate=f["immediate"])
    f = reference_unpack(enc.ALU_TWO_OPERAND_LAYOUT, word)
    if f["reserved"]:
        raise EncodingError(
            f"{op.name}: reserved bits must be zero, got {f['reserved']:#x}")
    c1 = ContainerRef.decode5(f["container_1"]) if op.needs_c1 else None
    c2 = ContainerRef.decode5(f["container_2"]) if op.needs_c2 else None
    return AluAction(opcode=op, c1=c1, c2=c2)


def reference_vliw_encode(instruction):
    return enc.encode_vliw_entry(
        [reference_alu_encode(a) for a in instruction.actions])


def reference_vliw_decode(word):
    return VliwInstruction(
        [reference_alu_decode(w) for w in enc.decode_vliw_entry(word)])


def rfc1071(data):
    """The RFC 1071 loop: 16-bit words summed, carries folded back."""
    total = 0
    for i in range(0, len(data) - 1, 2):
        total += (data[i] << 8) | data[i + 1]
    if len(data) % 2:
        total += data[-1] << 8
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

containers = st.integers(0, 24).map(ContainerRef.from_flat)


@st.composite
def alu_actions(draw, canonical=False):
    """A valid action. ``canonical``: operands exactly where the opcode
    reads them, so that it decodes back to itself; otherwise an operand
    the opcode ignores may be set too (it is still encoded)."""
    op = draw(st.sampled_from(list(AluOp)))
    maybe = st.none() if canonical else st.one_of(st.none(), containers)
    c1 = draw(containers if op.needs_c1 else maybe)
    if op.uses_immediate:
        return AluAction(op, c1=c1, immediate=draw(st.integers(0, 0xFFFF)))
    return AluAction(op, c1=c1, c2=draw(containers if op.needs_c2 else maybe))


def vliw_instructions(canonical=False):
    slot = st.one_of(st.just(NOP_ACTION), alu_actions(canonical=canonical))
    return st.lists(slot, min_size=enc.NUM_ALUS,
                    max_size=enc.NUM_ALUS).map(VliwInstruction)


#: 25-bit action words of every kind: valid, unknown opcode (12..15),
#: nonzero reserved bits, a bad container code (25..31).
alu_words = st.one_of(
    st.integers(0, (1 << 25) - 1),
    st.builds(lambda op, c1, c2: op << 21 | c1 << 16 | c2 << 11,
              st.integers(0, 15), st.integers(0, 31), st.integers(0, 31)))


@st.composite
def layout_values(draw, valid=True):
    layout = draw(st.sampled_from(sorted(LAYOUTS)))
    fields = LAYOUTS[layout].fields
    names = draw(st.lists(st.sampled_from(sorted(fields)), unique=True))
    values = {}
    for name in names:
        width = fields[name].width
        values[name] = draw(st.integers(0, (1 << width) - 1) if valid else
                            st.one_of(st.integers(0, (1 << width) - 1),
                                      st.integers(1 << width, 1 << (width + 3)),
                                      st.integers(-8, -1)))
    return layout, values


# ---------------------------------------------------------------------------
# bits: WordLayout and the field splicers
# ---------------------------------------------------------------------------

class TestWordLayoutEqualsItsDeclaration:
    @given(layout_values(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_pack_unpack_repack(self, drawn, data):
        name, values = drawn
        layout = LAYOUTS[name]
        word = layout.pack(**values)
        assert word == reference_pack(layout, **values)
        assert layout.unpack(word) == reference_unpack(layout, word)
        other = data.draw(st.integers(0, (1 << layout.total_width) - 1))
        assert layout.repack(other, **values) == \
            reference_repack(layout, other, **values)

    @given(layout_values(valid=False),
           st.one_of(st.integers(-4, -1), st.integers(0, 1 << 400)))
    @example(("ALU_IMMEDIATE_LAYOUT", {"immediate": 1 << 16}), 1 << 25)
    @example(("SEGMENT_LAYOUT", {"offset": -1}), -1)
    @settings(max_examples=300, deadline=None)
    def test_every_error_is_the_declarations(self, drawn, word):
        name, values = drawn
        layout = LAYOUTS[name]
        assert outcome(layout.pack, **values) == \
            outcome(reference_pack, layout, **values)
        assert outcome(layout.unpack, word) == \
            outcome(reference_unpack, layout, word)
        assert outcome(layout.repack, word, **values) == \
            outcome(reference_repack, layout, word, **values)

    def test_odd_arguments_keep_their_errors(self):
        layout = enc.SEGMENT_LAYOUT
        for values in ({"bogus": 1}, {"offset": 1.0}, {"offset": None},
                       {"offset": True}, {"range": ContainerType.B6}):
            assert outcome(layout.pack, **values) == \
                outcome(reference_pack, layout, **values)
            assert outcome(layout.repack, 0, **values) == \
                outcome(reference_repack, layout, 0, **values)
        for word in (1.0, None, True, ContainerType.B6, "0"):
            assert outcome(layout.unpack, word) == \
                outcome(reference_unpack, layout, word)

    @given(st.lists(st.tuples(st.integers(-2, 1 << 70), st.integers(0, 64)),
                    max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_concat_and_split_fields(self, fields):
        assert outcome(bits.concat_fields, fields) == \
            outcome(reference_concat, fields)
        widths = [width for _value, width in fields]
        word = sum(value for value, _width in fields)
        assert outcome(bits.split_fields, word, widths) == \
            outcome(reference_split, word, widths)

    def test_a_negative_width_keeps_its_error(self):
        assert outcome(bits.concat_fields, [(0, -1)]) == \
            outcome(reference_concat, [(0, -1)])
        assert outcome(bits.split_fields, 0, [-1]) == \
            outcome(reference_split, 0, [-1])


# ---------------------------------------------------------------------------
# rmt: ALU actions, VLIW instructions, key extractor and parse words
# ---------------------------------------------------------------------------

class TestAluAndVliwCodecs:
    @given(alu_actions())
    @settings(max_examples=300, deadline=None)
    def test_action_encode_is_the_layout_pack(self, action):
        assert action.encode() == reference_alu_encode(action)

    @given(vliw_instructions())
    @settings(max_examples=100, deadline=None)
    def test_vliw_encode_is_encode_vliw_entry(self, instruction):
        assert instruction.encode() == reference_vliw_encode(instruction)

    @given(vliw_instructions(canonical=True))
    @settings(max_examples=100, deadline=None)
    def test_vliw_round_trips(self, instruction):
        word = instruction.encode()
        assert VliwInstruction.decode(word) == instruction
        assert VliwInstruction.decode(word).encode() == word

    @given(alu_words)
    @example(12 << 21)                              # unknown opcode
    @example(int(AluOp.ADD) << 21 | 1)              # lowest reserved bit
    @example(int(AluOp.ADD) << 21 | 1 << 10)        # highest reserved bit
    @example(int(AluOp.ADD) << 21 | 25 << 16)       # bad c1 code
    @example(int(AluOp.SUB) << 21 | 1 << 16 | 31 << 11)   # bad c2 code
    @example(int(AluOp.ADDI) << 21 | 30 << 16)      # bad c1, immediate form
    @example(1 << 25)                               # too wide
    @example(int(AluOp.ADD) << 21 | 1 << 30)        # too wide, valid opcode
    @example(-1)
    @settings(max_examples=400, deadline=None)
    def test_action_decode_equals_the_layout_decode(self, word):
        assert outcome(AluAction.decode, word) == \
            outcome(reference_alu_decode, word)

    @given(st.lists(st.one_of(st.just(0), alu_words), min_size=25,
                    max_size=25), st.sampled_from([0, 0, 1 << 625, -1]))
    @settings(max_examples=200, deadline=None)
    def test_vliw_decode_equals_the_layout_decode(self, slots, spill):
        word = enc.encode_vliw_entry(slots) | spill
        assert outcome(VliwInstruction.decode, word) == \
            outcome(reference_vliw_decode, word)


key_entries = st.builds(
    KeyExtractEntry,
    *[st.integers(0, 7)] * 6,
    cmp_op=st.sampled_from(list(CmpOp)),
    cmp_a=st.one_of(st.integers(0, 127), containers),
    cmp_b=st.one_of(st.integers(0, 127), containers))

parse_actions = st.builds(
    ParseAction, st.integers(0, 127),
    st.builds(ContainerRef, st.sampled_from([ContainerType.B2,
                                             ContainerType.B4,
                                             ContainerType.B6]),
              st.integers(0, 7)),
    st.booleans())


class TestKeyExtractAndParseCodecs:
    @given(key_entries)
    @settings(max_examples=200, deadline=None)
    def test_key_extract_round_trips(self, entry):
        assert KeyExtractEntry.decode(entry.encode()) == entry

    @pytest.mark.parametrize("code", range(8, 16))
    def test_unknown_comparison_opcode_is_a_typed_error(self, code):
        """``CmpOp`` defines codes 0..7; a word carrying 8..15 is an
        ``EncodingError`` naming the word, as an unknown ALU opcode is —
        not the raw ``ValueError`` of the enum lookup."""
        word = enc.KEY_EXTRACT_LAYOUT.pack(cmp_op=code, idx_2b_1=3)
        with pytest.raises(EncodingError) as info:
            KeyExtractEntry.decode(word)
        assert str(info.value) == f"unknown comparison opcode in word {word:#x}"

    def test_a_too_wide_key_extract_word_keeps_its_error(self):
        word = 1 << 38
        assert outcome(KeyExtractEntry.decode, word) == \
            outcome(reference_unpack, enc.KEY_EXTRACT_LAYOUT, word)

    @given(st.lists(parse_actions, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_parse_program_round_trips(self, actions):
        entry = enc.encode_parser_entry([a.encode() for a in actions])
        assert decode_parse_program(entry) == \
            tuple(a for a in actions if a.valid)
        for action in actions:
            assert ParseAction.decode(action.encode()) == action


# ---------------------------------------------------------------------------
# net: the internet checksum
# ---------------------------------------------------------------------------

class TestInternetChecksum:
    @given(st.binary(max_size=1500))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_rfc1071_loop(self, data):
        assert internet_checksum(data) == rfc1071(data)

    def test_every_length_of_all_zero_and_all_ones(self):
        """The two inputs whose sums sit on the fold's edge: zero (the
        only input whose folded sum is 0) and all-0xFF (a nonzero
        multiple of 0xFFFF, folding to one's-complement zero)."""
        for length in range(1501):
            for fill in (b"\x00", b"\xff"):
                data = fill * length
                assert internet_checksum(data) == rfc1071(data), \
                    (fill, length)


# ---------------------------------------------------------------------------
# count gate: a live update takes none of the checked helpers' paths
# ---------------------------------------------------------------------------

def test_update_and_install_take_no_checked_field_path(monkeypatch):
    """Counts only (no wall clock): one ``Tenant.update`` of a loaded
    ``calc`` tenant plus ``calc.install`` runs no ``WordLayout.pack`` on
    an ALU layout, no ``BitField.insert``, no ``bits.set_bits``, and
    neither ``Packet.write_int`` nor ``Packet.read_int``. The same
    update used to make 75 ALU-layout ``pack`` calls (25 per VLIW row),
    254 ``BitField.insert`` and ``set_bits`` calls, 110 ``write_int``
    and 80 ``read_int`` (five patches per reconfiguration packet built,
    four reads per one parsed). The reconfiguration packets sent (count
    and bytes) and the packet served after the update are the ones that
    code produced, so the bound cannot be met by writing less."""
    switch = Switch.build().create()
    tenant = switch.admit("calc", calc.P4_SOURCE, vid=1)
    calc.install(tenant)

    calls = {}

    def count(key):
        calls[key] = calls.get(key, 0) + 1

    layout_names = {id(layout): name for name, layout in LAYOUTS.items()}
    pack = WordLayout.pack

    def counted_pack(self, **values):
        count(f"pack:{layout_names.get(id(self), '?')}")
        return pack(self, **values)
    monkeypatch.setattr(WordLayout, "pack", counted_pack)
    for owner, name in ((BitField, "insert"), (Packet, "write_int"),
                        (Packet, "read_int")):
        def counted(*args, _inner=getattr(owner, name), _name=name, **kw):
            count(_name)
            return _inner(*args, **kw)
        monkeypatch.setattr(owner, name, counted)
    set_bits = bits.set_bits

    def counted_set_bits(*args):
        count("set_bits")
        return set_bits(*args)
    monkeypatch.setattr(bits, "set_bits", counted_set_bits)

    sent = []
    inject = switch.pipeline.inject_reconfig

    def recorded(packet):
        sent.append(packet.tobytes())
        return inject(packet)
    monkeypatch.setattr(switch.pipeline, "inject_reconfig", recorded)

    tenant.update(calc.P4_SOURCE)
    calc.install(tenant)

    # The counter is live: the parse-action and key-extractor words still
    # go through their layouts' ``pack``, on its shift-or path.
    assert calls == {"pack:PARSE_ACTION_LAYOUT": 5,
                     "pack:KEY_EXTRACT_LAYOUT": 1}

    assert len(sent) == 22
    assert hashlib.sha256(b"".join(sent)).hexdigest() == (
        "4eaa708bb282b2dd619bbdb943b602d32f7bd941ac78a2e4056b99682f1bf2af")
    result = switch.process(calc.make_packet(1, calc.OP_ADD, 7, 5))
    assert (result.dropped, result.egress_port) == (False, 1)
    assert result.packet.tobytes().hex() == (
        "0200000000020200000000018100000108004500002a00000000401166c1"
        "0a0000010a00000227104e2000167682000100000007000000050000000c")
