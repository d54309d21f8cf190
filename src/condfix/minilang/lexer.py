"""Tokenizer for MiniLang source, suite lines, grid specs and patch expressions.

The lexical grammar is ASCII. Outside a string literal or a comment, any
character that starts no token is a syntax error at its line and column;
a string literal may hold any character but a raw newline.
"""
from __future__ import annotations

import re
from typing import List, NamedTuple

from ..errors import MiniLangSyntaxError

KEYWORDS = {
    "fn", "let", "const", "if", "else", "while", "return", "throw",
    "true", "false", "null", "bool", "int", "real",
}

# One named group per token kind, tried in order. ``open`` is the quote of
# a string literal that does not close on its line (a backslash escapes
# any character but a newline) and ``bad`` any other character.
_TOKEN = re.compile(r"""
    (?P<space>[ \t\r]+|(?:\#|//)[^\n]*)
  | (?P<newline>\n)
  | (?P<real>[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))
  | (?P<int>[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"(?:[^"\\\n]|\\.)*")
  | (?P<open>")
  | (?P<op>->|==|!=|<=|>=|&&|\|\||[{}(),;:.=<>+*/%!|-])
  | (?P<bad>.)
""", re.VERBOSE)

# A backslash pair in a string literal: ``\u{hex}`` (one to six hex digits
# naming a Unicode scalar value, so it can be written as UTF-8), a bad
# ``\u``, or any other character, read as itself but for ``\n`` and ``\t``.
_ESCAPE = re.compile(r"\\(u\{[0-9a-fA-F]{1,6}\}|u|.)")


class Token(NamedTuple):
    kind: str  # ident | keyword | int | real | string | op | eof
    text: str  # a string literal's text is its unescaped content
    line: int
    column: int


def _unescape(body: str, line: int, column: int) -> str:
    def escape(match):
        esc = match[1]
        if esc[0] != "u":
            return {"n": "\n", "t": "\t"}.get(esc, esc)
        point = int(esc[2:-1], 16) if len(esc) > 1 else -1
        if not 0 <= point <= 0x10FFFF or 0xD800 <= point <= 0xDFFF:
            raise MiniLangSyntaxError("bad \\u{hex} escape in string literal", line, column)
        return chr(point)

    return _ESCAPE.sub(escape, body) if "\\" in body else body


def tokenize(source: str) -> List[Token]:
    tokens: List[Token] = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(source):
        kind, text, column = match.lastgroup, match[0], match.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind == "ident":
            tokens.append(Token("keyword" if text in KEYWORDS else kind, text, line, column))
        elif kind == "string":
            tokens.append(Token(kind, _unescape(text[1:-1], line, column), line, column))
        elif kind == "open":
            raise MiniLangSyntaxError("unterminated string literal", line, column)
        elif kind == "bad":
            raise MiniLangSyntaxError(f"unexpected character {text!r}", line, column)
        elif kind != "space":
            tokens.append(Token(kind, text, line, column))
    tokens.append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens
