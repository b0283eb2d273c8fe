"""Tokenizer for the P4-16 subset.

Recognizes identifiers, decimal and hexadecimal integers (including P4
width-prefixed literals like ``8w42`` and ``0x1F``), punctuation,
operators, and keywords; skips ``//`` and ``/* */`` comments.
Identifiers and literals are ASCII, as in P4-16: the first character
outside every lexeme class (a non-ASCII letter or digit included) is
an ``unexpected character`` error at its own line and column.

One master regex cuts the whole source into lexemes in a single
``findall``. Each lexeme carries the blanks before it, and the last
alternative takes any other character, so the lexemes tile the source
up to its trailing blanks and every token's offset is the running sum
of the lengths before it. The Python loop only classifies each lexeme
and tracks the line; :func:`parse_number` evaluates a NUMBER token's
text.
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

#: The blanks on the line before a lexeme (``blanks``), then one group
#: per lexeme class, tried in this order: line breaks and comments with
#: any whitespace after a break (``skip``), a run of ASCII word
#: characters (``word`` — a number, an identifier or a keyword, told
#: apart by its first character), punctuation (two-character operators
#: first; a ``/`` that opens a comment is not one), then any other
#: non-blank character (``bad``: an error, or a ``/*`` no ``*/``
#: follows). Blanks that no lexeme follows end the source.
_LEXEME = re.compile(
    r"([ \t\r]*)"
    r"(?:(\n[ \t\r\n]*|//[^\n]*|/\*.*?\*/)"
    r"|(\w+)"
    r"|(" + "|".join(r"/(?!\*)" if p == "/" else re.escape(p)
                     for p in PUNCT2 + PUNCT1) + ")"
    r"|([^ \t\r]))",
    re.DOTALL | re.ASCII)


class Token(NamedTuple):
    kind: TokenKind
    value: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.value!r}, L{self.line})"


def tokenize(source: str) -> List[Token]:
    """Tokenize P4 source; raises :class:`LexerError` on bad input."""
    # Hoisted: this loop runs once per lexeme of every analysed program.
    ident, number, keyword, punct_kind = (
        TokenKind.IDENT, TokenKind.NUMBER, TokenKind.KEYWORD,
        TokenKind.PUNCT)
    keywords = KEYWORDS
    new = tuple.__new__
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    line_start = 0   # offset of the first character of ``line``
    pos = 0          # offset of the lexeme at hand
    for blanks, skip, word, punct, bad in _LEXEME.findall(source):
        pos += len(blanks)
        if word:
            # hex, width-prefixed (8w255, 4w0x3), decimal; else a name
            kind = (number if word[0] <= "9" else
                    keyword if word in keywords else ident)
            append(new(Token, (kind, word, line, pos - line_start + 1)))
            pos += len(word)
        elif punct:
            append(new(Token, (punct_kind, punct, line,
                               pos - line_start + 1)))
            pos += len(punct)
        elif skip:
            newline = skip.rfind("\n")
            if newline >= 0:
                line += skip.count("\n")
                line_start = pos + newline + 1
            pos += len(skip)
        elif source.startswith("/*", pos):
            raise LexerError("unterminated block comment",
                             line, pos - line_start + 1)
        else:
            raise LexerError(f"unexpected character {bad!r}",
                             line, pos - line_start + 1)
    pos = len(source)   # past the trailing blanks
    append(new(Token, (TokenKind.EOF, "", line, pos - line_start + 1)))
    return tokens


def parse_number(token: Token) -> int:
    """Evaluate a NUMBER token: ``42``, ``0x2A``, ``8w42``, ``16w0xF1F2``.

    A width-prefixed literal's width must be a positive decimal and its
    value must fit in that many bits (``0w4`` and ``2w4`` are errors).
    """
    text = token.value
    width = None
    if "w" in text:
        width_text, _, text = text.partition("w")
        if not width_text.isdigit():
            raise LexerError(f"bad number literal {token.value!r}",
                             token.line, token.column)
        width = int(width_text, 10)
    try:
        if text.lower().startswith("0x"):
            value = int(text, 16)
        elif text.lower().startswith("0b"):
            value = int(text, 2)
        else:
            value = int(text, 10)
    except ValueError as exc:
        raise LexerError(f"bad number literal {token.value!r}",
                         token.line, token.column) from exc
    if width is not None:
        if width == 0:
            raise LexerError(f"zero-width literal {token.value!r}",
                             token.line, token.column)
        if value >> width:
            raise LexerError(
                f"literal {token.value!r} does not fit in {width} bits",
                token.line, token.column)
    return value
