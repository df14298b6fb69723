"""Recursive-descent parser for ClassAd expressions and ads.

The language is the subset of ClassAds that the system's ads use --
Requirements/Rank matching over attribute values, nothing more
(``benchmarks/reach.py repro.classads`` is the measurement that picks
it).  Grammar (precedence low to high)::

    ad       := '[' (IDENT '=' expr (';' IDENT '=' expr)* ';'?)? ']'
    expr     := andExpr ('||' andExpr)*
    andExpr  := eq ('&&' eq)*
    eq       := rel (('=='|'!=') rel)*
    rel      := add (('<'|'<='|'>'|'>=') add)*
    add      := mul (('+'|'-') mul)*
    mul      := unary (('*'|'/'|'%') unary)*
    unary    := ('!'|'-') unary | primary
    primary  := INT | REAL | STRING | 'true' | 'false' | 'undefined'
              | 'error' | FUNC '(' args ')' | ('MY'|'TARGET') '.' IDENT
              | IDENT | '(' expr ')'

``FUNC`` is ``real`` or ``ifThenElse``; a call of any other function is
refused with :class:`ClassAdSyntaxError` naming it, as is every other
construct of the full language (``?:``, lists, nested ads, ``=?=``,
bitwise operators), so a submit file that uses one fails at submit
instead of yielding a job that never matches.
"""

from __future__ import annotations

import functools
from typing import Optional

from .ast import FUNCTIONS, AttrRef, BinaryOp, Expr, FuncCall, Literal, \
    UnaryOp
from .lexer import ClassAdSyntaxError, Token, tokenize
from .values import ERROR, UNDEFINED

_KEYWORD_LITERALS = {
    "true": True,
    "false": False,
    "undefined": UNDEFINED,
    "error": ERROR,
}


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(tokenize(text))
        self.pos = 0

    # -- token helpers -----------------------------------------------------
    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def accept_op(self, *ops: str) -> Optional[str]:
        if self.cur.kind == "OP" and self.cur.text in ops:
            return self.advance().text
        return None

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            raise ClassAdSyntaxError(
                f"expected {op!r}, got {self.cur.text!r} at {self.cur.pos}")

    def expect_ident(self) -> str:
        if self.cur.kind != "IDENT":
            raise ClassAdSyntaxError(
                f"expected identifier, got {self.cur.text!r} at {self.cur.pos}")
        return self.advance().text

    def expect_end(self) -> None:
        if self.cur.kind != "EOF":
            raise ClassAdSyntaxError(
                f"trailing input {self.cur.text!r} at {self.cur.pos}")

    # -- grammar -----------------------------------------------------------
    def _left_assoc(self, sub, *ops: str) -> Expr:
        node = sub()
        while True:
            op = self.accept_op(*ops)
            if op is None:
                return node
            node = BinaryOp(op, node, sub())

    def parse_expr(self) -> Expr:
        return self._left_assoc(self.parse_and, "||")

    def parse_and(self) -> Expr:
        return self._left_assoc(self.parse_eq, "&&")

    def parse_eq(self) -> Expr:
        return self._left_assoc(self.parse_rel, "==", "!=")

    def parse_rel(self) -> Expr:
        return self._left_assoc(self.parse_add, "<", "<=", ">", ">=")

    def parse_add(self) -> Expr:
        return self._left_assoc(self.parse_mul, "+", "-")

    def parse_mul(self) -> Expr:
        return self._left_assoc(self.parse_unary, "*", "/", "%")

    def parse_unary(self) -> Expr:
        op = self.accept_op("!", "-")
        if op is not None:
            return UnaryOp(op, self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.advance()
        if tok.kind == "INT":
            return Literal(int(tok.text))
        if tok.kind == "REAL":
            return Literal(float(tok.text))
        if tok.kind == "STRING":
            return Literal(tok.text)
        if tok.kind == "IDENT":
            word = tok.text.lower()
            if word in _KEYWORD_LITERALS:
                return Literal(_KEYWORD_LITERALS[word])
            if self.accept_op("("):
                if word not in FUNCTIONS:
                    raise ClassAdSyntaxError(
                        f"unknown function {tok.text!r} at {tok.pos}")
                args = []
                if not self.accept_op(")"):
                    args.append(self.parse_expr())
                    while self.accept_op(","):
                        args.append(self.parse_expr())
                    self.expect_op(")")
                return FuncCall(tok.text, args)
            if word in ("my", "target") and self.accept_op("."):
                return AttrRef(self.expect_ident(), scope=word)
            return AttrRef(tok.text)
        if tok.kind == "OP" and tok.text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ClassAdSyntaxError(
            f"unexpected token {tok.text!r} at {tok.pos}")

    def parse_attr_list(self) -> list[tuple[str, Expr]]:
        pairs: list[tuple[str, Expr]] = []
        while self.cur.kind == "IDENT":
            name = self.expect_ident()
            self.expect_op("=")
            pairs.append((name, self.parse_expr()))
            if not self.accept_op(";"):
                break
        return pairs


@functools.lru_cache(maxsize=4096)
def parse(text: str) -> Expr:
    """Parse a single ClassAd expression, once per text.

    The tree is hash-consed by its source: every caller with the same
    text gets the same :class:`Expr` (nodes never change after
    ``__init__``), so a thousand job ads built from one Requirements
    string share one tree.  The memo keeps the 4096 texts used last; a
    syntax error is raised every time, never remembered.
    ``parse.__wrapped__`` is the parser itself, uncached.
    """
    parser = _Parser(text)
    expr = parser.parse_expr()
    parser.expect_end()
    return expr


def parse_ad_pairs(text: str) -> list[tuple[str, Expr]]:
    """Parse a bracketed ad, ``[a = 1; b = 2]``, into its pairs."""
    parser = _Parser(text)
    parser.expect_op("[")
    pairs = parser.parse_attr_list()
    parser.expect_op("]")
    parser.expect_end()
    return pairs
