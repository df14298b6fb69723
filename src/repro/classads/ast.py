"""Expression AST and evaluator for the ClassAd language.

Evaluation implements the ClassAd three-valued logic:

* strict operators (arithmetic, comparison) propagate ERROR first, then
  UNDEFINED;
* the logical operators are non-strict: ``false && undefined == false``
  and ``true || error == true``;
* ``==`` is case-insensitive on strings (classic ClassAd semantics);
* attribute references resolve in the *owning* ad first and then in the
  match candidate (``TARGET``), with cycle detection yielding ERROR.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional, Sequence, TYPE_CHECKING

from .values import ERROR, UNDEFINED, is_number, is_special, value_repr

if TYPE_CHECKING:  # pragma: no cover
    from .classad import ClassAd

#: how deep attribute references may chain before evaluation gives ERROR
MAX_DEPTH = 200


class EvalContext:
    """Carries the two ads of a match plus evaluation machinery."""

    def __init__(
        self,
        my: Optional["ClassAd"] = None,
        target: Optional["ClassAd"] = None,
    ):
        self.my = my
        self.target = target
        self._in_progress: set[tuple[int, str]] = set()
        self._depth = 0

    def for_ad(self, ad: "ClassAd") -> "EvalContext":
        """Context whose MY is `ad` (TARGET becomes the opposite ad)."""
        if ad is self.my:
            return self
        ctx = EvalContext(ad, self.my if ad is self.target else None)
        ctx._in_progress = self._in_progress
        ctx._depth = self._depth
        return ctx


class Expr:
    """Base class for ClassAd expressions.

    A node is a value: every attribute is set in ``__init__`` and never
    again (``tests/classads/test_sharing.py`` gates it), which is what
    lets :func:`repro.classads.parse` hand one tree to every caller with
    the same text.  A node renders itself once, as it is built (a
    composite from its children's text).
    """

    __slots__ = ("_text",)

    def __str__(self) -> str:
        return self._text


class Literal(Expr):
    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value
        self._text = value_repr(value)

    def eval(self, ctx: EvalContext) -> Any:
        return self.value


class AttrRef(Expr):
    """`name`, `MY.name`, or `TARGET.name`."""

    __slots__ = ("name", "scope")

    def __init__(self, name: str, scope: Optional[str] = None):
        self.name = name
        self.scope = scope  # None | "my" | "target"
        self._text = f"{scope.upper()}.{name}" if scope else name

    def eval(self, ctx: EvalContext) -> Any:
        name = self.name.lower()
        if self.scope == "my":
            ads = [ctx.my]
        elif self.scope == "target":
            ads = [ctx.target]
        else:
            ads = [ctx.my, ctx.target]
        for ad in ads:
            if ad is None:
                continue
            expr = ad.lookup(name)
            if expr is None:
                continue
            key = (id(ad), name)
            if key in ctx._in_progress:
                return ERROR  # cyclic definition
            if ctx._depth >= MAX_DEPTH:
                return ERROR
            ctx._in_progress.add(key)
            ctx._depth += 1
            try:
                return expr.eval(ctx.for_ad(ad))
            finally:
                ctx._depth -= 1
                ctx._in_progress.discard(key)
        return UNDEFINED


class UnaryOp(Expr):
    """``!`` or unary ``-``."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        self.op = op
        self.operand = operand
        self._text = f"{op}({operand})"

    def eval(self, ctx: EvalContext) -> Any:
        v = self.operand.eval(ctx)
        if self.op == "!":
            if is_special(v):
                return v
            if isinstance(v, bool):
                return not v
            if is_number(v):
                return v == 0
            return ERROR
        if is_special(v):
            return v
        if not is_number(v):
            return ERROR
        return -v


def _num(v: Any) -> Any:
    """Coerce bool to int for arithmetic; None if not a number."""
    if isinstance(v, bool):
        return int(v)
    if is_number(v):
        return v
    return None


def _truth(v: Any) -> Any:
    """Map a value to True/False/UNDEFINED/ERROR for logical operators."""
    if v is UNDEFINED or v is ERROR:
        return v
    if isinstance(v, bool):
        return v
    if is_number(v):
        return v != 0
    return ERROR


class BinaryOp(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op
        self.left = left
        self.right = right
        self._text = f"({left} {op} {right})"

    def eval(self, ctx: EvalContext) -> Any:
        op = self.op
        if op == "&&" or op == "||":
            return self._logic(ctx, op)
        lhs = self.left.eval(ctx)
        rhs = self.right.eval(ctx)
        # strict operators: ERROR dominates, then UNDEFINED
        if lhs is ERROR or rhs is ERROR:
            return ERROR
        if lhs is UNDEFINED or rhs is UNDEFINED:
            return UNDEFINED
        if op in ("+", "-", "*", "/", "%"):
            return _arith(op, lhs, rhs)
        return _compare(op, lhs, rhs)

    def _logic(self, ctx: EvalContext, op: str) -> Any:
        lhs = _truth(self.left.eval(ctx))
        if op == "&&" and lhs is False:
            return False
        if op == "||" and lhs is True:
            return True
        rhs = _truth(self.right.eval(ctx))
        if op == "&&":
            if rhs is False:
                return False
            for v in (lhs, rhs):
                if v is ERROR:
                    return ERROR
            for v in (lhs, rhs):
                if v is UNDEFINED:
                    return UNDEFINED
            return True
        # "||"
        if rhs is True:
            return True
        for v in (lhs, rhs):
            if v is ERROR:
                return ERROR
        for v in (lhs, rhs):
            if v is UNDEFINED:
                return UNDEFINED
        return False


def _arith(op: str, lhs: Any, rhs: Any) -> Any:
    a, b = _num(lhs), _num(rhs)
    if a is None or b is None:
        return ERROR
    try:
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if b == 0:
            return ERROR
        if isinstance(a, int) and isinstance(b, int):
            # C semantics: the quotient truncates toward zero and the
            # remainder takes the dividend's sign, exactly, at any size
            q = abs(a) // abs(b)
            q = q if (a < 0) == (b < 0) else -q
            return q if op == "/" else a - b * q
        return a / b if op == "/" else math.fmod(a, b)
    except (OverflowError, ValueError):
        return ERROR


def _compare(op: str, lhs: Any, rhs: Any) -> Any:
    # string comparison: case-insensitive for ==/!=/</<=/>/>=
    if isinstance(lhs, str) and isinstance(rhs, str):
        a, b = lhs.lower(), rhs.lower()
    else:
        a, b = _num(lhs), _num(rhs)
        if a is None or b is None:
            return ERROR
    if op == "==":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    return a >= b


# -- the functions ------------------------------------------------------------
#
# A function receives the context and its unevaluated arguments; bad
# arity or argument types give ERROR, per ClassAd convention.

def _real(ctx: EvalContext, args: Sequence[Expr]) -> Any:
    if len(args) != 1:
        return ERROR
    v = args[0].eval(ctx)
    if is_special(v):
        return v
    try:
        return float(v.strip() if isinstance(v, str) else v)
    except (ValueError, OverflowError):
        return ERROR


def _if_then_else(ctx: EvalContext, args: Sequence[Expr]) -> Any:
    """``ifThenElse(c, a, b)``: evaluates only the branch taken."""
    if len(args) != 3:
        return ERROR
    c = _truth(args[0].eval(ctx))
    if c is True:
        return args[1].eval(ctx)
    if c is False:
        return args[2].eval(ctx)
    return c


#: every function the language has, by lower-cased name
FUNCTIONS: dict[str, Callable[[EvalContext, Sequence[Expr]], Any]] = {
    "real": _real,
    "ifthenelse": _if_then_else,
}


class FuncCall(Expr):
    """A call of one of :data:`FUNCTIONS` (the parser refuses others)."""

    __slots__ = ("name", "args", "fn")

    def __init__(self, name: str, args: Sequence[Expr]):
        self.name = name
        self.args = tuple(args)
        self.fn = FUNCTIONS[name.lower()]
        self._text = f"{name}({', '.join(map(str, self.args))})"

    def eval(self, ctx: EvalContext) -> Any:
        return self.fn(ctx, self.args)

