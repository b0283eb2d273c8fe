"""Tokenizer for the P4-16 subset.

Recognizes identifiers, decimal and hexadecimal integers (including P4
width-prefixed literals like ``8w42`` and ``0x1F``), punctuation,
operators, and keywords; skips ``//`` and ``/* */`` comments.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import List, NamedTuple

from ..errors import LexerError


class TokenKind(Enum):
    IDENT = auto()
    NUMBER = auto()
    KEYWORD = auto()
    PUNCT = auto()
    EOF = auto()


KEYWORDS = {
    "header", "struct", "parser", "control", "state", "transition",
    "select", "default", "table", "key", "actions", "action", "size",
    "apply", "if", "else", "exact", "ternary", "register", "bit",
    "in", "out", "inout", "const", "typedef", "accept", "reject",
    "default_action", "true", "false", "packet_in", "return", "exit",
}

#: Multi-character punctuation, longest first.
PUNCT2 = ["==", "!=", ">=", "<=", "&&", "||"]
PUNCT1 = list("{}()[]<>;:,.=+-*/!&|")

#: One alternative per lexeme class, tried in this order at each offset:
#: whitespace and comments (``skip``), a ``/*`` no ``*/`` follows
#: (``open``), a run of word characters (``word`` — a number, an
#: identifier or a keyword, told apart by its first character), then
#: punctuation, two-character operators first.
_LEXEME = re.compile(
    r"(?P<skip>[ \t\r\n]+|//[^\n]*|/\*.*?\*/)"
    r"|(?P<open>/\*)"
    r"|(?P<word>\w+)"
    r"|(?P<punct>" + "|".join(map(re.escape, PUNCT2 + PUNCT1)) + ")",
    re.DOTALL)


class Token(NamedTuple):
    kind: TokenKind
    value: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.value!r}, L{self.line})"


def tokenize(source: str) -> List[Token]:
    """Tokenize P4 source; raises :class:`LexerError` on bad input."""
    tokens: List[Token] = []
    line = 1
    line_start = 0   # offset of the first character of ``line``
    pos = 0          # every offset before this one has been consumed
    for match in _LEXEME.finditer(source):
        start, end = match.span()
        if start != pos:
            break    # finditer skipped a character no alternative takes
        pos = end
        group = match.lastgroup
        if group == "skip":
            newlines = source.count("\n", start, end)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", start, end) + 1
            continue
        column = start - line_start + 1
        text = match.group()
        if group == "punct":
            kind = TokenKind.PUNCT
        elif group == "open":
            raise LexerError("unterminated block comment", line, column)
        elif text[0].isdigit():
            # hex, width-prefixed (8w255, 4w0x3), decimal
            kind = TokenKind.NUMBER
        elif text[0].isalpha() or text[0] == "_":
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        else:
            pos = start   # a word character that can start no token
            break
        tokens.append(Token(kind, text, line, column))
    column = pos - line_start + 1
    if pos != len(source):
        raise LexerError(f"unexpected character {source[pos]!r}",
                         line, column)
    tokens.append(Token(TokenKind.EOF, "", line, column))
    return tokens


def parse_number(token: Token) -> int:
    """Evaluate a NUMBER token: ``42``, ``0x2A``, ``8w42``, ``16w0xF1F2``."""
    text = token.value
    if "w" in text:
        # width-prefixed literal: the width part is validated elsewhere
        _width, _, rest = text.partition("w")
        text = rest
    try:
        if text.lower().startswith("0x"):
            return int(text, 16)
        if text.lower().startswith("0b"):
            return int(text, 2)
        return int(text, 10)
    except ValueError as exc:
        raise LexerError(f"bad number literal {token.value!r}",
                         token.line, token.column) from exc
