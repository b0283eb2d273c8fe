"""Recursive-descent parser for the P4-16 subset.

The accepted grammar covers what the eight evaluated modules and the
system-level module need: header/struct/const declarations, a parser
with extract/transition(select) states, and a control with registers,
actions, exact-match tables, and an apply block with table applies and
if/else on simple comparisons.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import ParseError
from .ast_nodes import (
    ActionDecl,
    ActionStmt,
    ApplyStmt,
    AssignStmt,
    BinOp,
    Const,
    ConstDecl,
    ControlDecl,
    Expr,
    ExtractStmt,
    FieldDecl,
    FieldRef,
    HeaderDecl,
    IfStmt,
    KeyElement,
    Param,
    ParserDecl,
    ParserState,
    PrimitiveCall,
    Program,
    RegisterDecl,
    SelectCase,
    StructDecl,
    StructMember,
    TableApply,
    TableDecl,
    Transition,
)
from .lexer import Token, TokenKind, parse_number, tokenize

_RELOPS = {"==", "!=", "<", ">", "<=", ">="}
_ADDOPS = {"+", "-"}
_IDENT, _KEYWORD, _NUMBER, _EOF = (TokenKind.IDENT, TokenKind.KEYWORD,
                                   TokenKind.NUMBER, TokenKind.EOF)


class Parser:
    """One-token-lookahead recursive descent over the token stream."""

    def __init__(self, tokens: List[Token], source_name: str = "<module>"):
        self.tokens = tokens
        self.pos = 0
        self.source_name = source_name

    # -- token helpers ---------------------------------------------------------
    #
    # The helpers index the token list directly (``tokens[pos]``, and a
    # token's ``[0]`` kind / ``[1]`` text): they run for every token of
    # every analysed program. A literal they compare against is always
    # a keyword or punctuation, whose text no IDENT, NUMBER or EOF token
    # can carry, so comparing the text alone is the kind-and-text test.

    def _error(self, message: str) -> ParseError:
        tok = self.tokens[self.pos]
        shown = tok.value or "<eof>"
        return ParseError(f"{message}, found {shown!r}", tok.line, tok.column)

    def accept(self, value: str) -> bool:
        if self.tokens[self.pos][1] == value:
            self.pos += 1
            return True
        return False

    def expect(self, value: str) -> Token:
        tok = self.tokens[self.pos]
        if tok[1] != value:
            raise self._error(f"expected {value!r}")
        self.pos += 1
        return tok

    def expect_name(self) -> Token:
        """An identifier (keywords allowed as member names after dots)."""
        tok = self.tokens[self.pos]
        if tok[0] is _IDENT or tok[0] is _KEYWORD:
            self.pos += 1
            return tok
        raise self._error("expected identifier")

    def expect_ident(self) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] is _IDENT:
            self.pos += 1
            return tok
        raise self._error("expected identifier")

    def expect_number(self) -> int:
        tok = self.tokens[self.pos]
        if tok[0] is not _NUMBER:
            raise self._error("expected number")
        self.pos += 1
        return parse_number(tok)

    # -- program ------------------------------------------------------------------

    def parse_program(self) -> Program:
        headers = {}
        structs = {}
        consts = {}
        parser_decl: Optional[ParserDecl] = None
        control_decl: Optional[ControlDecl] = None

        while self.tokens[self.pos][0] is not _EOF:
            word = self.tokens[self.pos][1]
            if word == "header":
                decl = self.parse_header()
                if decl.name in headers:
                    raise ParseError(f"duplicate header {decl.name!r}",
                                     decl.line)
                headers[decl.name] = decl
            elif word == "struct":
                decl = self.parse_struct()
                if decl.name in structs:
                    raise ParseError(f"duplicate struct {decl.name!r}",
                                     decl.line)
                structs[decl.name] = decl
            elif word == "const":
                decl = self.parse_const()
                if decl.name in consts:
                    raise ParseError(f"duplicate const {decl.name!r}",
                                     decl.line)
                consts[decl.name] = decl
            elif word == "parser":
                if parser_decl is not None:
                    raise self._error("multiple parser declarations")
                parser_decl = self.parse_parser()
            elif word == "control":
                if control_decl is not None:
                    raise self._error("multiple control declarations")
                control_decl = self.parse_control()
            else:
                raise self._error(
                    "expected header/struct/const/parser/control")

        return Program(headers=headers, structs=structs, consts=consts,
                       parser=parser_decl, control=control_decl,
                       source_name=self.source_name)

    # -- declarations ----------------------------------------------------------

    def parse_bit_width(self) -> int:
        self.expect("bit")
        self.expect("<")
        width = self.expect_number()
        self.expect(">")
        if width <= 0 or width > 64:
            raise self._error(f"unsupported bit width {width}")
        return width

    def parse_header(self) -> HeaderDecl:
        line = self.expect("header").line
        name = self.expect_ident().value
        self.expect("{")
        fields = []
        while not self.accept("}"):
            fline = self.tokens[self.pos].line
            width = self.parse_bit_width()
            fname = self.expect_ident().value
            self.expect(";")
            fields.append(FieldDecl(fname, width, fline))
        return HeaderDecl(name, fields, line)

    def parse_struct(self) -> StructDecl:
        line = self.expect("struct").line
        name = self.expect_ident().value
        self.expect("{")
        members = []
        while not self.accept("}"):
            mline = self.tokens[self.pos].line
            type_name = self.expect_ident().value
            member_name = self.expect_ident().value
            self.expect(";")
            members.append(StructMember(type_name, member_name, mline))
        return StructDecl(name, members, line)

    def parse_const(self) -> ConstDecl:
        line = self.expect("const").line
        width = self.parse_bit_width()
        name = self.expect_ident().value
        self.expect("=")
        value = self.expect_number()
        self.expect(";")
        return ConstDecl(name, width, value, line)

    def parse_params(self) -> List[Param]:
        self.expect("(")
        params: List[Param] = []
        if self.accept(")"):
            return params
        while True:
            pline = self.tokens[self.pos].line
            direction = ""
            tok = self.tokens[self.pos]
            if tok[1] in ("in", "out", "inout"):
                direction = tok[1]
                self.pos += 1
            if self.tokens[self.pos][1] == "bit":
                width = self.parse_bit_width()
                type_name = f"bit<{width}>"
            else:
                type_name = self.expect_name().value
            pname = self.expect_ident().value
            params.append(Param(direction, type_name, pname, pline))
            if self.accept(")"):
                return params
            self.expect(",")

    # -- parser section ------------------------------------------------------------

    def parse_parser(self) -> ParserDecl:
        line = self.expect("parser").line
        name = self.expect_ident().value
        params = self.parse_params()
        self.expect("{")
        states = []
        while not self.accept("}"):
            states.append(self.parse_state())
        return ParserDecl(name, params, states, line)

    def parse_state(self) -> ParserState:
        line = self.expect("state").line
        name = self.expect_name().value
        self.expect("{")
        extracts = []
        transition = None
        while not self.accept("}"):
            if self.tokens[self.pos][1] == "transition":
                transition = self.parse_transition()
            else:
                extracts.append(self.parse_extract())
        if transition is None:
            raise ParseError(f"state {name!r} has no transition", line)
        return ParserState(name, extracts, transition, line)

    def parse_extract(self) -> ExtractStmt:
        line = self.tokens[self.pos].line
        ref = self.parse_field_ref()
        if len(ref.parts) < 2 or ref.parts[-1] != "extract":
            raise ParseError("expected packet.extract(...)", line)
        self.expect("(")
        header_ref = self.parse_field_ref()
        self.expect(")")
        self.expect(";")
        return ExtractStmt(header_ref, line)

    def parse_transition(self) -> Transition:
        line = self.expect("transition").line
        if self.accept("select"):
            self.expect("(")
            expr = self.parse_expr()
            self.expect(")")
            self.expect("{")
            cases = []
            while not self.accept("}"):
                cline = self.tokens[self.pos].line
                if self.accept("default"):
                    value = None
                else:
                    value = self.expect_number()
                self.expect(":")
                next_state = self.expect_name().value
                self.expect(";")
                cases.append(SelectCase(value, next_state, cline))
            return Transition(select_expr=expr, cases=cases, line=line)
        next_state = self.expect_name().value
        self.expect(";")
        return Transition(next_state=next_state, line=line)

    # -- control section -------------------------------------------------------------

    def parse_control(self) -> ControlDecl:
        line = self.expect("control").line
        name = self.expect_ident().value
        params = self.parse_params()
        self.expect("{")
        registers: List[RegisterDecl] = []
        actions: List[ActionDecl] = []
        tables: List[TableDecl] = []
        apply_body: Optional[List[ApplyStmt]] = None
        while not self.accept("}"):
            word = self.tokens[self.pos][1]
            if word == "register":
                registers.append(self.parse_register())
            elif word == "action":
                actions.append(self.parse_action())
            elif word == "table":
                tables.append(self.parse_table())
            elif word == "apply":
                if apply_body is not None:
                    raise self._error("multiple apply blocks")
                self.pos += 1
                apply_body = self.parse_apply_block()
            else:
                raise self._error(
                    "expected register/action/table/apply in control")
        if apply_body is None:
            raise ParseError(f"control {name!r} has no apply block", line)
        return ControlDecl(name, params, registers, actions, tables,
                           apply_body, line)

    def parse_register(self) -> RegisterDecl:
        line = self.expect("register").line
        self.expect("<")
        width = self.parse_bit_width()
        self.expect(">")
        self.expect("(")
        size = self.expect_number()
        self.expect(")")
        name = self.expect_ident().value
        self.expect(";")
        return RegisterDecl(name, width, size, line)

    def parse_action(self) -> ActionDecl:
        line = self.expect("action").line
        name = self.expect_ident().value
        params = self.parse_params()
        self.expect("{")
        body: List[ActionStmt] = []
        while not self.accept("}"):
            body.append(self.parse_action_stmt())
        return ActionDecl(name, params, body, line)

    def parse_action_stmt(self) -> ActionStmt:
        line = self.tokens[self.pos].line
        ref = self.parse_field_ref()
        if self.accept("("):
            args: List[Expr] = []
            if not self.accept(")"):
                while True:
                    args.append(self.parse_expr())
                    if self.accept(")"):
                        break
                    self.expect(",")
            self.expect(";")
            return PrimitiveCall(ref, args, line)
        self.expect("=")
        expr = self.parse_expr()
        self.expect(";")
        return AssignStmt(ref, expr, line)

    def parse_table(self) -> TableDecl:
        line = self.expect("table").line
        name = self.expect_ident().value
        self.expect("{")
        keys: List[KeyElement] = []
        action_names: List[str] = []
        size = 0
        default_action: Optional[str] = None
        while not self.accept("}"):
            if self.accept("key"):
                self.expect("=")
                self.expect("{")
                while not self.accept("}"):
                    kline = self.tokens[self.pos].line
                    ref = self.parse_field_ref()
                    self.expect(":")
                    kind = self.tokens[self.pos][1]
                    if kind == "exact" or kind == "ternary":
                        self.pos += 1
                    else:
                        raise self._error("expected match kind exact/ternary")
                    self.expect(";")
                    keys.append(KeyElement(ref, kind, kline))
            elif self.accept("actions"):
                self.expect("=")
                self.expect("{")
                while not self.accept("}"):
                    action_names.append(self.expect_ident().value)
                    self.expect(";")
            elif self.accept("size"):
                self.expect("=")
                size = self.expect_number()
                self.expect(";")
            elif self.accept("default_action"):
                self.expect("=")
                default_action = self.expect_ident().value
                if self.accept("("):
                    self.expect(")")
                self.expect(";")
            else:
                raise self._error(
                    "expected key/actions/size/default_action in table")
        return TableDecl(name, keys, action_names, size, default_action, line)

    def parse_apply_block(self) -> List[ApplyStmt]:
        self.expect("{")
        body: List[ApplyStmt] = []
        while not self.accept("}"):
            body.append(self.parse_apply_stmt())
        return body

    def parse_apply_stmt(self) -> ApplyStmt:
        line = self.tokens[self.pos].line
        if self.accept("if"):
            self.expect("(")
            condition = self.parse_condition()
            self.expect(")")
            then_body = self.parse_apply_block()
            else_body: List[ApplyStmt] = []
            if self.accept("else"):
                else_body = self.parse_apply_block()
            return IfStmt(condition, then_body, else_body, line)
        ref = self.parse_field_ref()
        if len(ref.parts) != 2 or ref.parts[1] != "apply":
            raise ParseError("expected table.apply() or if", line)
        self.expect("(")
        self.expect(")")
        self.expect(";")
        return TableApply(ref.parts[0], line)

    # -- expressions --------------------------------------------------------------

    def parse_field_ref(self) -> FieldRef:
        line = self.tokens[self.pos].line
        parts = [self.expect_name().value]
        while self.accept("."):
            parts.append(self.expect_name().value)
        return FieldRef(tuple(parts), line)

    def parse_primary(self) -> Expr:
        line = self.tokens[self.pos].line
        if self.tokens[self.pos][0] is _NUMBER:
            return Const(self.expect_number(), line)
        if self.accept("true"):
            return Const(1, line)
        if self.accept("false"):
            return Const(0, line)
        return self.parse_field_ref()

    def parse_expr(self) -> Expr:
        """``primary (('+'|'-') primary)*`` — left-associative."""
        line = self.tokens[self.pos].line
        expr = self.parse_primary()
        while self.tokens[self.pos][1] in _ADDOPS:
            op = self.tokens[self.pos][1]
            self.pos += 1
            right = self.parse_primary()
            expr = BinOp(op, expr, right, line)
        return expr

    def parse_condition(self) -> BinOp:
        line = self.tokens[self.pos].line
        left = self.parse_expr()
        op = self.tokens[self.pos][1]
        if op not in _RELOPS:
            raise self._error("expected comparison operator")
        self.pos += 1
        right = self.parse_expr()
        return BinOp(op, left, right, line)


def parse_source(source: str, source_name: str = "<module>") -> Program:
    """Tokenize and parse P4 source into a :class:`Program`."""
    return Parser(tokenize(source), source_name).parse_program()
