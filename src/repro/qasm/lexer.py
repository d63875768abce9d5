"""Single-scan tokenizer for the OpenQASM 2.0 subset.

One compiled master regex, :data:`TOKEN_RE`, describes every token.
Whitespace and ``//`` comments are folded into its prefix, so
``TOKEN_RE.findall(source)`` is the flat list of token strings the
parser walks, which always ends with ``""`` at end of input.  A token's kind
follows from its first character (:func:`token_kind`); no per-token
object and no position is built on that path.  :func:`tokenize` is the
positioned view: ``finditer`` over the same regex, so the two cannot
drift, and :func:`token_position` recovers a position only when an
error needs one.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from typing import List, Tuple

from repro.exceptions import QasmError

#: Identifiers reserved by the language (kind ``KEYWORD``).
KEYWORDS = {
    "OPENQASM",
    "include",
    "qreg",
    "creg",
    "gate",
    "opaque",
    "measure",
    "barrier",
    "reset",
    "if",
    "pi",
}

TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]|//[^\n]*)*"  # skipped: whitespace and comments
    r"([\[\];,(){}+*/^]"  # one-character symbols, the most frequent tokens
    r"|[A-Za-z_][A-Za-z0-9_]*"  # identifiers and keywords
    r"|\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"  # numbers
    r'|"[^"\n]*"|->|==|.|\Z)'  # strings, operators, any other char, end
)

ID_START = frozenset(string.ascii_letters + "_")
_SYMBOLS = frozenset(";,()[]{}+-*/^")


def token_kind(value: str) -> str:
    """Kind of a token string: ID, KEYWORD, INT, REAL, STRING, ARROW,
    EQ, SYMBOL, EOF, or BAD (a character no token starts with)."""
    first = value[:1]
    if first in ID_START:
        return "KEYWORD" if value in KEYWORDS else "ID"
    if value.isdecimal():
        return "INT"
    if first.isdecimal() or (first == "." and len(value) > 1):
        return "REAL"
    if first == '"' and len(value) > 1:
        return "STRING"
    if value == "->":
        return "ARROW"
    if value == "==":
        return "EQ"
    if first in _SYMBOLS:
        return "SYMBOL"
    return "BAD" if value else "EOF"


def token_position(source: str, index: int) -> Tuple[int, int]:
    """1-based (line, column) of token ``index`` of ``source``."""
    offset = len(source)
    for count, match in enumerate(TOKEN_RE.finditer(source)):
        if count == index:
            offset = match.start(1)
            break
    line_start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, offset) + 1, offset - line_start + 1


@dataclass(frozen=True)
class Token:
    """One lexical token with source position (1-based)."""

    kind: str
    value: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.column})"


def tokenize(source: str) -> List[Token]:
    """Tokenize a QASM program; raises :class:`QasmError` on bad input."""
    tokens: List[Token] = []
    line, line_start, last = 1, 0, 0
    for match in TOKEN_RE.finditer(source):
        value, offset = match.group(1), match.start(1)
        newlines = source.count("\n", last, offset)
        if newlines:
            line += newlines
            line_start = source.rfind("\n", last, offset) + 1
        last = offset
        kind = token_kind(value)
        if kind == "BAD":
            raise QasmError(
                f"unexpected character {value!r}", line, offset - line_start + 1
            )
        tokens.append(Token(kind, value, line, offset - line_start + 1))
        if not value:  # trailing skipped text can leave a second, empty match
            break
    return tokens
