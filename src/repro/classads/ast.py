"""Expression AST and evaluator for the ClassAd language.

Evaluation implements the ClassAd three-valued logic:

* strict operators (arithmetic, comparison, bitwise) propagate ERROR first,
  then UNDEFINED;
* the logical operators are non-strict: ``false && undefined == false`` and
  ``true || error == true``;
* meta-equality ``=?=`` / ``=!=`` ("is identical to") never yields
  UNDEFINED/ERROR and is case-*sensitive* on strings, whereas ``==`` is
  case-insensitive (classic ClassAd string semantics);
* attribute references resolve in the *owning* ad first and then in the
  match candidate (``TARGET``), with cycle detection yielding ERROR.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, TYPE_CHECKING

from .values import ERROR, UNDEFINED, is_number, is_special, value_repr

if TYPE_CHECKING:  # pragma: no cover
    from .classad import ClassAd


class EvalContext:
    """Carries the two ads of a match plus evaluation machinery."""

    def __init__(
        self,
        my: Optional["ClassAd"] = None,
        target: Optional["ClassAd"] = None,
        rng: Any = None,
        now: float = 0.0,
        max_depth: int = 200,
    ):
        self.my = my
        self.target = target
        self.rng = rng
        self.now = now
        self.max_depth = max_depth
        self._in_progress: set[tuple[int, str]] = set()
        self._depth = 0

    def swapped(self) -> "EvalContext":
        """Context seen from the other ad's point of view."""
        ctx = EvalContext(self.target, self.my, self.rng, self.now,
                          self.max_depth)
        ctx._in_progress = self._in_progress
        ctx._depth = self._depth
        return ctx

    def for_ad(self, ad: "ClassAd") -> "EvalContext":
        """Context whose MY is `ad` (TARGET becomes the opposite ad)."""
        if ad is self.my:
            return self
        if ad is self.target:
            return self.swapped()
        ctx = EvalContext(ad, None, self.rng, self.now, self.max_depth)
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

    def eval(self, ctx: EvalContext) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and str(self) == str(other)

    def __hash__(self) -> int:
        return hash((type(self).__name__, str(self)))


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
        # Built-in environment attribute.
        if name == "currenttime" and self.scope is None:
            found = (ctx.my.lookup(name) if ctx.my is not None else None)
            if found is None:
                return int(ctx.now)
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
            if ctx._depth >= ctx.max_depth:
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
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        self.op = op
        self.operand = operand
        self._text = f"{op}({operand})"

    def eval(self, ctx: EvalContext) -> Any:
        v = self.operand.eval(ctx)
        if self.op == "!":
            if v is ERROR:
                return ERROR
            if v is UNDEFINED:
                return UNDEFINED
            if isinstance(v, bool):
                return not v
            if is_number(v):
                return v == 0
            return ERROR
        if is_special(v):
            return v
        if self.op == "-":
            if isinstance(v, bool) or not is_number(v):
                return ERROR
            return -v
        if self.op == "+":
            if isinstance(v, bool) or not is_number(v):
                return ERROR
            return v
        if self.op == "~":
            if isinstance(v, int) and not isinstance(v, bool):
                return ~v
            return ERROR
        return ERROR  # pragma: no cover - parser limits ops


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
        if op == "=?=":
            return _identical(lhs, rhs)
        if op == "=!=":
            return not _identical(lhs, rhs)
        # strict operators: ERROR dominates, then UNDEFINED
        if lhs is ERROR or rhs is ERROR:
            return ERROR
        if lhs is UNDEFINED or rhs is UNDEFINED:
            return UNDEFINED
        if op in ("+", "-", "*", "/", "%"):
            return _arith(op, lhs, rhs)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            return _compare(op, lhs, rhs)
        if op in ("|", "&", "^", "<<", ">>"):
            return _bitwise(op, lhs, rhs)
        return ERROR  # pragma: no cover - parser limits ops

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


def _identical(lhs: Any, rhs: Any) -> bool:
    """`=?=`: same type and same value; strings case-sensitive."""
    if lhs is UNDEFINED or rhs is UNDEFINED:
        return lhs is rhs
    if lhs is ERROR or rhs is ERROR:
        return lhs is rhs
    if isinstance(lhs, bool) or isinstance(rhs, bool):
        return isinstance(lhs, bool) and isinstance(rhs, bool) and lhs == rhs
    if type(lhs) is not type(rhs):
        return False
    return lhs == rhs


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
        if op == "/":
            if b == 0:
                return ERROR
            if isinstance(a, int) and isinstance(b, int):
                return int(a / b)  # C-style integer division
            return a / b
        if op == "%":
            if b == 0:
                return ERROR
            if isinstance(a, int) and isinstance(b, int):
                return int(__import__("math").fmod(a, b))
            return __import__("math").fmod(a, b)
    except (OverflowError, ValueError):
        return ERROR
    return ERROR  # pragma: no cover


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


def _bitwise(op: str, lhs: Any, rhs: Any) -> Any:
    if not isinstance(lhs, int) or isinstance(lhs, bool):
        return ERROR
    if not isinstance(rhs, int) or isinstance(rhs, bool):
        return ERROR
    if op == "|":
        return lhs | rhs
    if op == "&":
        return lhs & rhs
    if op == "^":
        return lhs ^ rhs
    if op == "<<":
        return lhs << rhs if 0 <= rhs < 64 else ERROR
    return lhs >> rhs if 0 <= rhs < 64 else ERROR


class Ternary(Expr):
    __slots__ = ("cond", "then", "other")

    def __init__(self, cond: Expr, then: Expr, other: Expr):
        self.cond = cond
        self.then = then
        self.other = other
        self._text = f"({cond} ? {then} : {other})"

    def eval(self, ctx: EvalContext) -> Any:
        c = _truth(self.cond.eval(ctx))
        if c is True:
            return self.then.eval(ctx)
        if c is False:
            return self.other.eval(ctx)
        return c  # UNDEFINED or ERROR


class ListExpr(Expr):
    __slots__ = ("items",)

    def __init__(self, items: Sequence[Expr]):
        self.items = tuple(items)
        self._text = "{ " + ", ".join(map(str, self.items)) + " }"

    def eval(self, ctx: EvalContext) -> Any:
        return [item.eval(ctx) for item in self.items]


class ClassAdExpr(Expr):
    """A nested `[ a = 1; b = 2 ]` record literal."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: Sequence[tuple[str, Expr]]):
        self.pairs = tuple(pairs)
        inner = "; ".join(f"{k} = {v}" for k, v in self.pairs)
        self._text = f"[ {inner} ]"

    def eval(self, ctx: EvalContext) -> Any:
        from .classad import ClassAd

        ad = ClassAd()
        for name, expr in self.pairs:
            ad.set_expr(name, expr)
        return ad


class Subscript(Expr):
    __slots__ = ("base", "index")

    def __init__(self, base: Expr, index: Expr):
        self.base = base
        self.index = index
        self._text = f"{base}[{index}]"

    def eval(self, ctx: EvalContext) -> Any:
        from .classad import ClassAd

        base = self.base.eval(ctx)
        idx = self.index.eval(ctx)
        if base is ERROR or idx is ERROR:
            return ERROR
        if base is UNDEFINED or idx is UNDEFINED:
            return UNDEFINED
        if isinstance(base, list):
            if isinstance(idx, bool) or not isinstance(idx, int):
                return ERROR
            if 0 <= idx < len(base):
                return base[idx]
            return ERROR
        if isinstance(base, ClassAd) and isinstance(idx, str):
            return base.eval(idx, ctx=ctx)
        return ERROR


class Select(Expr):
    """`expr.attr` where expr evaluates to a nested ClassAd."""

    __slots__ = ("base", "attr")

    def __init__(self, base: Expr, attr: str):
        self.base = base
        self.attr = attr
        self._text = f"{base}.{attr}"

    def eval(self, ctx: EvalContext) -> Any:
        from .classad import ClassAd

        base = self.base.eval(ctx)
        if base is ERROR:
            return ERROR
        if base is UNDEFINED:
            return UNDEFINED
        if isinstance(base, ClassAd):
            return base.eval(self.attr, ctx=ctx)
        return ERROR


class FuncCall(Expr):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Expr]):
        self.name = name
        self.args = tuple(args)
        self._text = f"{name}({', '.join(map(str, self.args))})"

    def eval(self, ctx: EvalContext) -> Any:
        from .builtins import BUILTINS

        entry = BUILTINS.get(self.name.lower())
        if entry is None:
            return ERROR
        fn, lazy = entry
        if lazy:
            return fn(ctx, self.args)
        values = [a.eval(ctx) for a in self.args]
        return fn(ctx, values)


# -- static (time/RNG-free) expression analysis -------------------------------

# Builtins whose result depends on the evaluation context rather than
# purely on their argument values.
_DYNAMIC_FUNCS = frozenset({"random", "time"})


def is_match_static(expr: Expr) -> bool:
    """True if evaluating ``expr`` can never read the clock or the RNG.

    Used by the Negotiator's match memoization: a (job, machine) pair
    whose ads are entirely static evaluates to the same match/rank at
    any ``now``, so one evaluation per cycle is enough.  Conservative by
    construction -- ``CurrentTime`` (which falls back to ``ctx.now``
    when the ad lacks the attribute), ``time()`` and ``random()`` are
    dynamic, and unknown node kinds count as dynamic.
    """
    if isinstance(expr, Literal):
        return True
    if isinstance(expr, AttrRef):
        return expr.name.lower() != "currenttime"
    if isinstance(expr, UnaryOp):
        return is_match_static(expr.operand)
    if isinstance(expr, BinaryOp):
        return is_match_static(expr.left) and is_match_static(expr.right)
    if isinstance(expr, Ternary):
        return (is_match_static(expr.cond) and is_match_static(expr.then)
                and is_match_static(expr.other))
    if isinstance(expr, ListExpr):
        return all(is_match_static(item) for item in expr.items)
    if isinstance(expr, ClassAdExpr):
        return all(is_match_static(sub) for _, sub in expr.pairs)
    if isinstance(expr, Subscript):
        return is_match_static(expr.base) and is_match_static(expr.index)
    if isinstance(expr, Select):
        return is_match_static(expr.base)
    if isinstance(expr, FuncCall):
        if expr.name.lower() in _DYNAMIC_FUNCS:
            return False
        return all(is_match_static(arg) for arg in expr.args)
    return False
