"""Recursive-descent parser for ClassAd expressions and ads.

Grammar (precedence low to high)::

    expr     := orExpr ('?' expr ':' expr)?
    orExpr   := andExpr ('||' andExpr)*
    andExpr  := bitOr  ('&&' bitOr)*
    bitOr    := bitXor ('|' bitXor)*
    bitXor   := bitAnd ('^' bitAnd)*
    bitAnd   := eq     ('&' eq)*
    eq       := rel (('=='|'!='|'=?='|'=!='|'is'|'isnt') rel)*
    rel      := shift (('<'|'<='|'>'|'>=') shift)*
    shift    := add (('<<'|'>>') add)*
    add      := mul (('+'|'-') mul)*
    mul      := unary (('*'|'/'|'%') unary)*
    unary    := ('!'|'-'|'+'|'~') unary | postfix
    postfix  := primary ('[' expr ']' | '.' IDENT)*
    primary  := INT | REAL | STRING | 'true' | 'false' | 'undefined'
              | 'error' | IDENT '(' args ')' | IDENT | '(' expr ')'
              | '{' exprList '}' | '[' attrList ']'

``MY.attr`` / ``TARGET.attr`` parse as scoped attribute references.
"""

from __future__ import annotations

import functools
from typing import Optional

from .ast import (
    AttrRef,
    BinaryOp,
    ClassAdExpr,
    Expr,
    FuncCall,
    ListExpr,
    Literal,
    Select,
    Subscript,
    Ternary,
    UnaryOp,
)
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

    def accept_kw(self, *words: str) -> Optional[str]:
        if self.cur.kind == "IDENT" and self.cur.text.lower() in words:
            return self.advance().text.lower()
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

    # -- grammar -----------------------------------------------------------
    def parse_expr(self) -> Expr:
        cond = self.parse_or()
        if self.accept_op("?"):
            then = self.parse_expr()
            self.expect_op(":")
            other = self.parse_expr()
            return Ternary(cond, then, other)
        return cond

    def _left_assoc(self, sub, *ops: str) -> Expr:
        node = sub()
        while True:
            op = self.accept_op(*ops)
            if op is None:
                return node
            node = BinaryOp(op, node, sub())

    def parse_or(self) -> Expr:
        return self._left_assoc(self.parse_and, "||")

    def parse_and(self) -> Expr:
        return self._left_assoc(self.parse_bitor, "&&")

    def parse_bitor(self) -> Expr:
        return self._left_assoc(self.parse_bitxor, "|")

    def parse_bitxor(self) -> Expr:
        return self._left_assoc(self.parse_bitand, "^")

    def parse_bitand(self) -> Expr:
        return self._left_assoc(self.parse_eq, "&")

    def parse_eq(self) -> Expr:
        node = self.parse_rel()
        while True:
            op = self.accept_op("==", "!=", "=?=", "=!=")
            if op is None:
                kw = self.accept_kw("is", "isnt")
                if kw is None:
                    return node
                op = "=?=" if kw == "is" else "=!="
            node = BinaryOp(op, node, self.parse_rel())

    def parse_rel(self) -> Expr:
        return self._left_assoc(self.parse_shift, "<", "<=", ">", ">=")

    def parse_shift(self) -> Expr:
        return self._left_assoc(self.parse_add, "<<", ">>")

    def parse_add(self) -> Expr:
        return self._left_assoc(self.parse_mul, "+", "-")

    def parse_mul(self) -> Expr:
        return self._left_assoc(self.parse_unary, "*", "/", "%")

    def parse_unary(self) -> Expr:
        op = self.accept_op("!", "-", "+", "~")
        if op is not None:
            return UnaryOp(op, self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        node = self.parse_primary()
        while True:
            if self.accept_op("["):
                index = self.parse_expr()
                self.expect_op("]")
                node = Subscript(node, index)
            elif self.accept_op("."):
                attr = self.expect_ident()
                if isinstance(node, AttrRef) and node.scope is None and \
                        node.name.lower() in ("my", "target"):
                    node = AttrRef(attr, scope=node.name.lower())
                else:
                    node = Select(node, attr)
            else:
                return node

    def parse_primary(self) -> Expr:
        tok = self.cur
        if tok.kind == "INT":
            self.advance()
            return Literal(int(tok.text))
        if tok.kind == "REAL":
            self.advance()
            return Literal(float(tok.text))
        if tok.kind == "STRING":
            self.advance()
            return Literal(tok.text)
        if tok.kind == "IDENT":
            word = tok.text.lower()
            if word in _KEYWORD_LITERALS:
                self.advance()
                return Literal(_KEYWORD_LITERALS[word])
            self.advance()
            if self.accept_op("("):
                args = []
                if not self.accept_op(")"):
                    args.append(self.parse_expr())
                    while self.accept_op(","):
                        args.append(self.parse_expr())
                    self.expect_op(")")
                return FuncCall(tok.text, args)
            return AttrRef(tok.text)
        if self.accept_op("("):
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if self.accept_op("{"):
            items = []
            if not self.accept_op("}"):
                items.append(self.parse_expr())
                while self.accept_op(","):
                    items.append(self.parse_expr())
                self.expect_op("}")
            return ListExpr(items)
        if self.accept_op("["):
            pairs = self.parse_attr_list()
            self.expect_op("]")
            return ClassAdExpr(pairs)
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

    def at_end(self) -> bool:
        return self.cur.kind == "EOF"


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
    if not parser.at_end():
        tok = parser.cur
        raise ClassAdSyntaxError(
            f"trailing input {tok.text!r} at {tok.pos}")
    return expr


def parse_ad_pairs(text: str) -> list[tuple[str, Expr]]:
    """Parse an ad in either bracketed (`[a=1; b=2]`) or old line format."""
    stripped = text.strip()
    if stripped.startswith("["):
        parser = _Parser(stripped)
        parser.expect_op("[")
        pairs = parser.parse_attr_list()
        parser.expect_op("]")
        if not parser.at_end():
            tok = parser.cur
            raise ClassAdSyntaxError(
                f"trailing input {tok.text!r} at {tok.pos}")
        return pairs
    # Old format: one `Attr = Expr` per line; blank lines and # comments ok.
    pairs = []
    for line in stripped.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        eq = _find_toplevel_eq(line)
        if eq < 0:
            raise ClassAdSyntaxError(f"expected 'Attr = Expr': {line!r}")
        name = line[:eq].strip()
        if not name or not all(c.isalnum() or c == "_" for c in name) or \
                name[0].isdigit():
            raise ClassAdSyntaxError(f"bad attribute name {name!r}")
        pairs.append((name, parse(line[eq + 1:])))
    return pairs


def _find_toplevel_eq(line: str) -> int:
    """Index of the assignment '=' (not ==, <=, >=, !=, =?=, =!=)."""
    in_string = False
    i = 0
    while i < len(line):
        ch = line[i]
        if in_string:
            if ch == "\\":
                i += 2
                continue
            if ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch == "=":
            prev = line[i - 1] if i > 0 else ""
            nxt = line[i + 1] if i + 1 < len(line) else ""
            if prev not in "=<>!" and nxt not in "=?!":
                return i
        i += 1
    return -1
