"""Tokenizer for the ClassAd expression language."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


class ClassAdSyntaxError(ValueError):
    """Lexical or grammatical error in ClassAd source text."""


@dataclass(frozen=True)
class Token:
    kind: str        # INT | REAL | STRING | IDENT | OP | EOF
    text: str
    pos: int


# Multi-char operators, longest first so the scanner is greedy.
_OPERATORS = [
    "==", "!=", "<=", ">=", "&&", "||",
    "=", "<", ">", "+", "-", "*", "/", "%", "!",
    "(", ")", "[", "]", ",", ";", ".",
]

_IDENT_START = set("abcdefghijklmnopqrstuvwxyz"
                   "ABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")
_DIGITS = set("0123456789")


def tokenize(text: str) -> Iterator[Token]:
    """Yield tokens, ending with a single EOF token."""
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        # whitespace
        if ch in " \t\r\n":
            i += 1
            continue
        # string literal
        if ch == '"':
            j = i + 1
            buf = []
            while j < n:
                c = text[j]
                if c == "\\":
                    if j + 1 >= n:
                        raise ClassAdSyntaxError(f"bad escape at {j}")
                    nxt = text[j + 1]
                    mapped = {"n": "\n", "t": "\t", "r": "\r",
                              '"': '"', "\\": "\\"}.get(nxt)
                    if mapped is None:
                        raise ClassAdSyntaxError(
                            f"unknown escape \\{nxt} at {j}")
                    buf.append(mapped)
                    j += 2
                    continue
                if c == '"':
                    break
                buf.append(c)
                j += 1
            else:
                raise ClassAdSyntaxError(f"unterminated string at {i}")
            yield Token("STRING", "".join(buf), i)
            i = j + 1
            continue
        # number: int or real (with optional exponent)
        if ch in _DIGITS or (ch == "." and i + 1 < n and text[i + 1] in _DIGITS):
            j = i
            is_real = False
            while j < n and text[j] in _DIGITS:
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1] in _DIGITS:
                is_real = True
                j += 1
                while j < n and text[j] in _DIGITS:
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k] in _DIGITS:
                    is_real = True
                    j = k
                    while j < n and text[j] in _DIGITS:
                        j += 1
            yield Token("REAL" if is_real else "INT", text[i:j], i)
            i = j
            continue
        # identifier / keyword
        if ch in _IDENT_START:
            j = i + 1
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            yield Token("IDENT", text[i:j], i)
            i = j
            continue
        # operator
        for op in _OPERATORS:
            if text.startswith(op, i):
                yield Token("OP", op, i)
                i += len(op)
                break
        else:
            raise ClassAdSyntaxError(f"unexpected character {ch!r} at {i}")
    yield Token("EOF", "", n)
