"""Tests for the compiler frontend: lexer, parser, typecheck."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.lexer import KEYWORDS, PUNCT1, PUNCT2, Token, \
    TokenKind, parse_number, tokenize
from repro.compiler.parser import parse_source
from repro.compiler.typecheck import typecheck
from repro.errors import LexerError, ParseError, TypeCheckError
from repro.modules.registry import ALL_MODULES
from repro.sysmod.system_module import SYSTEM_P4_SOURCE

COMMON_HEADERS = """
header ethernet_t { bit<48> dstAddr; bit<48> srcAddr; bit<16> etherType; }
header vlan_t { bit<16> tci; bit<16> etherType; }
header ipv4_t {
    bit<16> ver_ihl_tos; bit<16> totalLen; bit<16> identification;
    bit<16> flags_frag; bit<8> ttl; bit<8> protocol; bit<16> checksum;
    bit<32> srcAddr; bit<32> dstAddr;
}
header udp_t { bit<16> srcPort; bit<16> dstPort; bit<16> length; bit<16> checksum; }
"""

COMMON_PARSE = """
parser P(packet_in packet, out headers_t hdr) {
    state start {
        packet.extract(hdr.ethernet);
        packet.extract(hdr.vlan);
        packet.extract(hdr.ipv4);
        packet.extract(hdr.udp);
        transition accept;
    }
}
"""


def minimal_module(control_body: str, extra_headers: str = "",
                   extra_struct: str = "") -> str:
    return (COMMON_HEADERS + extra_headers + f"""
struct headers_t {{
    ethernet_t ethernet; vlan_t vlan; ipv4_t ipv4; udp_t udp; {extra_struct}
}}
""" + COMMON_PARSE + f"""
control C(inout headers_t hdr) {{
{control_body}
}}
""")


SIMPLE_CONTROL = """
    action set_port(bit<16> port) { standard_metadata.egress_spec = port; }
    table t { key = { hdr.ipv4.dstAddr: exact; } actions = { set_port; } size = 4; }
    apply { t.apply(); }
"""


class TestLexer:
    def test_token_kinds(self):
        tokens = tokenize("header foo { bit<16> x; } // comment")
        kinds = [t.kind for t in tokens]
        assert kinds[0] == TokenKind.KEYWORD
        assert kinds[1] == TokenKind.IDENT
        assert kinds[-1] == TokenKind.EOF

    def test_numbers(self):
        assert parse_number(tokenize("42")[0]) == 42
        assert parse_number(tokenize("0x2A")[0]) == 42
        assert parse_number(tokenize("8w42")[0]) == 42
        assert parse_number(tokenize("16w0xF1F2")[0]) == 0xF1F2
        assert parse_number(tokenize("4w0x3")[0]) == 3
        assert parse_number(tokenize("8w255")[0]) == 255
        assert parse_number(tokenize("1w0")[0]) == 0

    def test_block_comment(self):
        tokens = tokenize("a /* multi\nline */ b")
        assert [t.value for t in tokens[:-1]] == ["a", "b"]

    def test_unterminated_comment(self):
        with pytest.raises(LexerError):
            tokenize("a /* never ends")

    def test_bad_character(self):
        with pytest.raises(LexerError):
            tokenize("a @ b")

    def test_two_char_punct(self):
        tokens = tokenize("a == b != c >= d")
        punct = [t.value for t in tokens if t.kind == TokenKind.PUNCT]
        assert punct == ["==", "!=", ">="]

    def test_non_ascii_digits_in_a_width_are_refused(self):
        header = "header h_t { bit<\u0661\u0666> f; }"   # Arabic-Indic 16
        source = minimal_module(SIMPLE_CONTROL, extra_headers=header)
        with pytest.raises(LexerError, match="unexpected character") as exc:
            parse_source(source)
        assert (exc.value.line, exc.value.column) == \
            _line_and_column(source, source.index("\u0661"))

    def test_a_non_ascii_digit_is_not_a_number(self):
        with pytest.raises(LexerError, match="unexpected character") as exc:
            tokenize("size = \u0663;")
        assert (exc.value.line, exc.value.column) == (1, 8)

    def test_non_ascii_letters_in_a_field_name_are_refused(self):
        header = "header h_t {\n  bit<8> caf\u00e9; }"
        source = minimal_module(SIMPLE_CONTROL, extra_headers=header)
        with pytest.raises(LexerError, match="unexpected character") as exc:
            parse_source(source)
        assert (exc.value.line, exc.value.column) == \
            _line_and_column(source, source.index("\u00e9"))

    @pytest.mark.parametrize("literal, message", [
        ("0w4", "zero-width"), ("2w4", "does not fit in 2 bits"),
        ("8w256", "does not fit in 8 bits"), ("4w0x10", "does not fit"),
        ("0x8w4", "bad number literal"),
    ])
    def test_width_prefixed_literal_must_fit_its_width(self, literal,
                                                       message):
        token = tokenize(f"\n  {literal}")[0]
        with pytest.raises(LexerError, match=message) as exc:
            parse_number(token)
        assert (exc.value.line, exc.value.column) == (2, 3)

    def test_a_table_size_wider_than_its_literal_is_refused(self):
        control = SIMPLE_CONTROL.replace("size = 4;", "size = 2w4;")
        with pytest.raises(LexerError, match="does not fit in 2 bits"):
            parse_source(minimal_module(control))

    def test_line_numbers(self):
        tokens = tokenize("a\nb\n  c")
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[2].line == 3
        assert tokens[2].column == 3


def _line_and_column(source, index):
    """1-based line and column of ``source[index]``."""
    line_start = source.rfind("\n", 0, index) + 1
    return source.count("\n", 0, index) + 1, index - line_start + 1


def _ascii_word_char(ch):
    return ch.isascii() and (ch.isalnum() or ch == "_")


def _reference_tokenize(source):
    """The character-at-a-time tokenizer the master regex replaced,
    kept as the golden reference: ``(kind, value, line, column)`` per
    token. Identifiers and numbers are ASCII, as in P4-16."""
    tokens = []
    i, line, col, n = 0, 1, 1, len(source)

    def advance(count):
        nonlocal i, line, col
        for _ in range(count):
            if i < n and source[i] == "\n":
                line, col = line + 1, 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(1)
        elif source.startswith("//", i):
            while i < n and source[i] != "\n":
                advance(1)
        elif source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end == -1:
                raise LexerError("unterminated block comment", line, col)
            advance(end + 2 - i)
        elif _ascii_word_char(ch):
            j = i
            while j < n and _ascii_word_char(source[j]):
                j += 1
            text = source[i:j]
            kind = (TokenKind.NUMBER if ch.isdigit() else
                    TokenKind.KEYWORD if text in KEYWORDS else
                    TokenKind.IDENT)
            tokens.append((kind, text, line, col))
            advance(j - i)
        else:
            for punct in PUNCT2 + PUNCT1:
                if source.startswith(punct, i):
                    tokens.append((TokenKind.PUNCT, punct, line, col))
                    advance(len(punct))
                    break
            else:
                raise LexerError(f"unexpected character {ch!r}", line, col)
    tokens.append((TokenKind.EOF, "", line, col))
    return tokens


def _outcome(tokenizer, source):
    """The token tuples, or the LexerError's text and position."""
    try:
        return [tuple(token) for token in tokenizer(source)]
    except LexerError as exc:
        return str(exc), exc.line, exc.column


def _agree(source):
    got = _outcome(tokenize, source)
    assert got == _outcome(_reference_tokenize, source)
    return got


class TestLexerGolden:
    SOURCES = {m.NAME: m.P4_SOURCE for m in ALL_MODULES}
    SOURCES["system"] = SYSTEM_P4_SOURCE

    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_stock_sources_tokenize_identically(self, name):
        source = self.SOURCES[name]
        assert len(_agree(source)) > 100

    @pytest.mark.parametrize("source", [
        "", "\n", "a", "a\n", "a /* never ends", "/*", "/*/", "/**/",
        "a\n  /* x\n*/ /* y", "a @ b", "a\n\n  @", "a // c @", "a // c\n@",
        "a\r\nb\tc", "x\f", "x\v", "\u00bd", "a\u00bd", "1\u00bd",
        "\u00b2", "\u0663", "_x 9_ 0x1F 8w42 16w0xF1F2", "a==b<=c&&d||e",
        "a = = b", "a/b//c\n/d", "/ * */", "hdr.x\"", "\\",
    ])
    def test_edges_and_errors_match_the_reference(self, source):
        _agree(source)

    @given(st.sampled_from(sorted(SOURCES)), st.data())
    @settings(max_examples=150, deadline=None)
    def test_mutated_sources_match_the_reference(self, name, data):
        source = self.SOURCES[name]
        splice = st.sampled_from(
            ["/*", "*/", "//", "\n", "\r", "\t", "\f", " ", "@", "#", "$",
             "\u00bd", "\u00b2", "_", "0", "9w", "x", "==", "=", "!", "|",
             "/", "*", "\"", "\\"])
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, len(source)))
            kind = data.draw(st.sampled_from(["insert", "delete", "cut"]))
            if kind == "insert":
                source = source[:at] + data.draw(splice) + source[at:]
            elif kind == "delete":
                source = source[:at] + source[at + data.draw(
                    st.integers(1, 5)):]
            else:
                source = source[:at]
        _agree(source)

    def test_token_is_a_plain_tuple_with_named_fields(self):
        token = tokenize("x")[0]
        assert token == (TokenKind.IDENT, "x", 1, 1)
        assert (token.kind, token.value, token.line, token.column) == token
        assert repr(token) == "Token(IDENT, 'x', L1)"


class TestParser:
    def test_full_module_parses(self):
        program = parse_source(minimal_module(SIMPLE_CONTROL))
        assert "ethernet_t" in program.headers
        assert program.parser is not None
        assert program.control is not None
        assert len(program.control.tables) == 1
        assert program.control.tables[0].size == 4

    def test_header_fields(self):
        program = parse_source(minimal_module(SIMPLE_CONTROL))
        eth = program.headers["ethernet_t"]
        assert [f.name for f in eth.fields] == ["dstAddr", "srcAddr",
                                                "etherType"]
        assert eth.width_bytes == 14

    def test_const_declaration(self):
        src = "const bit<16> MAGIC = 0xBEEF;" + minimal_module(SIMPLE_CONTROL)
        program = parse_source(src)
        assert program.consts["MAGIC"].value == 0xBEEF

    def test_select_transition(self):
        src = minimal_module(SIMPLE_CONTROL).replace(
            "transition accept;",
            """transition select(hdr.ethernet.etherType) {
                0x8100: accept;
                default: accept;
            }""")
        program = parse_source(src)
        start = program.parser.states[0]
        assert start.transition.select_expr is not None
        assert len(start.transition.cases) == 2

    def test_register_declaration(self):
        control = """
    register<bit<32>>(16) counters;
""" + SIMPLE_CONTROL
        program = parse_source(minimal_module(control))
        reg = program.control.registers[0]
        assert reg.name == "counters"
        assert reg.width_bits == 32
        assert reg.size == 16

    def test_if_else_in_apply(self):
        control = """
    action a() { hdr.ipv4.identification = 1; }
    table t1 { key = { hdr.ipv4.srcAddr: exact; } actions = { a; } size = 2; }
    table t2 { key = { hdr.ipv4.dstAddr: exact; } actions = { a; } size = 2; }
    apply {
        if (hdr.udp.srcPort > 1024) { t1.apply(); } else { t2.apply(); }
    }
"""
        program = parse_source(minimal_module(control))
        from repro.compiler.ast_nodes import IfStmt
        stmt = program.control.apply_body[0]
        assert isinstance(stmt, IfStmt)
        assert stmt.condition.op == ">"
        assert len(stmt.then_body) == 1 and len(stmt.else_body) == 1

    def test_action_params(self):
        program = parse_source(minimal_module(SIMPLE_CONTROL))
        action = program.control.actions[0]
        assert action.params[0].name == "port"
        assert action.params[0].type_name == "bit<16>"

    def test_syntax_errors(self):
        for bad in [
            "header x {",                       # unterminated
            "header x { bit<16> f }",           # missing semicolon
            "control C() { apply { } } banana", # trailing garbage
            "parser P() { state start { } }",   # state without transition
        ]:
            with pytest.raises(ParseError):
                parse_source(bad)

    def test_duplicate_header_rejected(self):
        src = "header a_t { bit<16> x; } header a_t { bit<16> y; }"
        with pytest.raises(ParseError):
            parse_source(src)

    def test_default_action_clause(self):
        control = """
    action nop() { hdr.ipv4.identification = 0; }
    table t {
        key = { hdr.ipv4.dstAddr: exact; }
        actions = { nop; }
        size = 2;
        default_action = nop();
    }
    apply { t.apply(); }
"""
        program = parse_source(minimal_module(control))
        assert program.control.tables[0].default_action == "nop"


class TestTypecheck:
    def test_field_offsets(self):
        env = typecheck(parse_source(minimal_module(SIMPLE_CONTROL)))
        # eth(14) + vlan(4) = 18 -> ipv4 base; dstAddr at +16
        assert env.fields["hdr.ipv4.dstAddr"].byte_offset == 34
        assert env.fields["hdr.udp.dstPort"].byte_offset == 40
        assert env.fields["hdr.ethernet.dstAddr"].byte_offset == 0
        assert env.header_offsets["hdr.udp"] == 38

    def test_extract_order(self):
        env = typecheck(parse_source(minimal_module(SIMPLE_CONTROL)))
        assert env.extract_order == ["hdr.ethernet", "hdr.vlan", "hdr.ipv4",
                                     "hdr.udp"]

    def test_select_single_target_ok(self):
        src = minimal_module(SIMPLE_CONTROL).replace(
            "transition accept;",
            """transition select(hdr.udp.dstPort) {
                100: accept;
                default: reject;
            }""")
        env = typecheck(parse_source(src))
        assert env.extract_order[-1] == "hdr.udp"

    def test_branching_select_rejected(self):
        extra = "header a_t { bit<16> x; }"
        src = minimal_module(SIMPLE_CONTROL, extra_headers=extra,
                             extra_struct="a_t a;")
        src = src.replace(
            "transition accept;",
            """transition select(hdr.udp.dstPort) {
                1: parse_a;
                default: accept;
            }
        }
        state parse_a { packet.extract(hdr.a); transition accept;""")
        # one non-default case: allowed, follows parse_a
        env = typecheck(parse_source(src))
        assert "hdr.a" in env.extract_order

    def test_truly_branching_select_rejected(self):
        extra = "header a_t { bit<16> x; } header b_t { bit<16> y; }"
        src = minimal_module(SIMPLE_CONTROL, extra_headers=extra,
                             extra_struct="a_t a; b_t b;")
        src = src.replace(
            "transition accept;",
            """transition select(hdr.udp.dstPort) {
                1: parse_a;
                2: parse_b;
            }
        }
        state parse_a { packet.extract(hdr.a); transition accept; }
        state parse_b { packet.extract(hdr.b); transition accept;""")
        with pytest.raises(TypeCheckError):
            typecheck(parse_source(src))

    def test_parser_loop_detected(self):
        src = minimal_module(SIMPLE_CONTROL).replace(
            "transition accept;", "transition start;")
        with pytest.raises(TypeCheckError):
            typecheck(parse_source(src))

    def test_unknown_key_field(self):
        control = SIMPLE_CONTROL.replace("hdr.ipv4.dstAddr", "hdr.ipv4.nope")
        with pytest.raises(TypeCheckError):
            typecheck(parse_source(minimal_module(control)))

    def test_unknown_action_in_table(self):
        control = SIMPLE_CONTROL.replace("actions = { set_port; }",
                                         "actions = { missing; }")
        with pytest.raises(TypeCheckError):
            typecheck(parse_source(minimal_module(control)))

    def test_unaligned_key_field_rejected(self):
        # ttl is 8 bits: not container-mappable.
        control = SIMPLE_CONTROL.replace("hdr.ipv4.dstAddr: exact;",
                                         "hdr.ipv4.ttl: exact;")
        with pytest.raises(TypeCheckError):
            typecheck(parse_source(minimal_module(control)))

    def test_metadata_key_rejected(self):
        control = SIMPLE_CONTROL.replace(
            "hdr.ipv4.dstAddr: exact;",
            "standard_metadata.ingress_port: exact;")
        with pytest.raises(TypeCheckError):
            typecheck(parse_source(minimal_module(control)))

    def test_unknown_metadata_field(self):
        control = SIMPLE_CONTROL.replace("egress_spec", "banana")
        with pytest.raises(TypeCheckError):
            typecheck(parse_source(minimal_module(control)))

    def test_register_ops_checked(self):
        control = """
    register<bit<32>>(8) reg;
    action load_it() { reg.read(hdr.ipv4.identification, 0); }
    table t { key = { hdr.udp.dstPort: exact; } actions = { load_it; } size = 2; }
    apply { t.apply(); }
"""
        env = typecheck(parse_source(minimal_module(control)))
        assert "reg" in env.registers

    def test_unknown_register_rejected(self):
        control = """
    action load_it() { ghost.read(hdr.ipv4.identification, 0); }
    table t { key = { hdr.udp.dstPort: exact; } actions = { load_it; } size = 2; }
    apply { t.apply(); }
"""
        with pytest.raises(TypeCheckError):
            typecheck(parse_source(minimal_module(control)))

    def test_apply_of_unknown_table(self):
        control = """
    action a() { hdr.ipv4.identification = 1; }
    table t { key = { hdr.udp.dstPort: exact; } actions = { a; } size = 2; }
    apply { ghost.apply(); }
"""
        with pytest.raises(TypeCheckError):
            typecheck(parse_source(minimal_module(control)))

    def test_table_without_key_rejected(self):
        control = """
    action a() { hdr.ipv4.identification = 1; }
    table t { actions = { a; } size = 2; }
    apply { t.apply(); }
"""
        with pytest.raises(TypeCheckError):
            typecheck(parse_source(minimal_module(control)))
