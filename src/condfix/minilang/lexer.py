"""Tokenizer for MiniLang source, suite files, and patch expressions."""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from ..errors import MiniLangSyntaxError

KEYWORDS = {
    "fn", "let", "const", "if", "else", "while", "return", "throw",
    "true", "false", "null", "bool", "int", "real",
}

TWO_CHAR = ("->", "==", "!=", "<=", ">=", "&&", "||")
ONE_CHAR = "{}(),;:.=<>+-*/%!"

# The braced hex digits of a ``\u{hex}`` escape in a string literal; the
# code point must be a Unicode scalar value, so it can be written as UTF-8.
_CODE_POINT = re.compile(r"\{([0-9a-fA-F]{1,6})\}")


@dataclass(frozen=True)
class Token:
    kind: str  # ident | keyword | int | real | string | op | eof
    text: str
    line: int
    column: int


def tokenize(source: str) -> List[Token]:
    tokens: List[Token] = []
    i, line, col = 0, 1, 1
    n = len(source)

    def error(msg):
        raise MiniLangSyntaxError(msg, line, col)

    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#" or source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            is_real = False
            if j < n and source[j] == "." and j + 1 < n and source[j + 1].isdigit():
                is_real = True
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    is_real = True
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            tokens.append(Token("real" if is_real else "int", source[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch == '"':
            j = i + 1
            buf = []
            while j < n and source[j] != '"':
                if source[j] == "\n":
                    error("unterminated string literal")
                if source.startswith("\\u", j):
                    code = _CODE_POINT.match(source, j + 2)
                    point = -1 if code is None else int(code[1], 16)
                    if not 0 <= point <= 0x10FFFF or 0xD800 <= point <= 0xDFFF:
                        error("bad \\u{hex} escape in string literal")
                    buf.append(chr(point))
                    j = code.end()
                elif source[j] == "\\" and j + 1 < n:
                    esc = source[j + 1]
                    buf.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc, esc))
                    j += 2
                else:
                    buf.append(source[j])
                    j += 1
            if j >= n:
                error("unterminated string literal")
            tokens.append(Token("string", "".join(buf), start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if source[i:i + 2] in TWO_CHAR:
            tokens.append(Token("op", source[i:i + 2], start_line, start_col))
            i += 2
            col += 2
            continue
        if ch in ONE_CHAR:
            tokens.append(Token("op", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        error(f"unexpected character {ch!r}")

    tokens.append(Token("eof", "", line, col))
    return tokens
