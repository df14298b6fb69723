"""The ClassAd record type and bilateral matchmaking.

A :class:`ClassAd` maps case-insensitive attribute names to *unevaluated
expressions*; evaluation is lazy and happens against an
:class:`~repro.classads.ast.EvalContext` holding the MY/TARGET pair, which
is what makes the Condor matchmaking idiom work::

    job     = ClassAd.parse('[Requirements = TARGET.Memory >= 64; ...]')
    machine = ClassAd.parse('[Memory = 128; Requirements = true; ...]')
    assert symmetric_match(job, machine)

The matchmaker (Negotiator) uses :func:`symmetric_match` exactly as
described in the Matchmaking paper cited by Condor-G [25]: two ads match
when each ad's ``Requirements`` evaluates to true with the other ad as
TARGET; ``Rank`` orders the matches (higher is better, UNDEFINED counts
as 0).
"""

from __future__ import annotations

from typing import Any, Optional

from ..sim.fastcopy import declare
from .ast import EvalContext, Expr, Literal
from .parser import parse, parse_ad_pairs
from .values import UNDEFINED, is_special, is_true, value_repr


def _to_expr(value: Any) -> Expr:
    """Accept an Expr or a value (``None`` stores UNDEFINED); a list or an
    ad is no ClassAd value and is refused with ``TypeError``."""
    if isinstance(value, Expr):
        return value
    if value is None:
        return Literal(UNDEFINED)
    if isinstance(value, (bool, int, float, str)) or is_special(value):
        return Literal(value)
    raise TypeError(f"cannot store {type(value).__name__} in a ClassAd")


class ClassAd:
    """An attribute -> expression record with lazy evaluation.

    An ad is a builder until it is *sealed* (:meth:`seal`, one way),
    which makes it a :class:`SealedClassAd`: a value that may be
    published, sent and stored by reference -- which is what happens to
    it the first time it crosses a wire or hits a disk
    (:mod:`repro.sim.fastcopy`).  :meth:`copy` gives an unsealed ad to
    edit.
    """

    __slots__ = ("_attrs", "_case", "_signature")

    def __init__(self, attrs: Optional[dict[str, Any]] = None):
        # _attrs: lowercase name -> Expr;  _case: lowercase -> display name
        self._attrs: dict[str, Expr] = {}
        self._case: dict[str, str] = {}
        self._signature: Optional[tuple] = None
        if attrs:
            for name, value in attrs.items():
                self[name] = value

    # -- construction -------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "ClassAd":
        """Parse a bracketed ad, `[a = 1; b = 2]`."""
        ad = cls()
        for name, expr in parse_ad_pairs(text):
            ad.set_expr(name, expr)
        return ad

    def copy(self) -> "ClassAd":
        """An unsealed ad with the same attributes."""
        dup = ClassAd()
        dup._attrs = dict(self._attrs)
        dup._case = dict(self._case)
        return dup

    # -- sealing ------------------------------------------------------------
    def seal(self) -> "SealedClassAd":
        """Make this ad immutable, for good; returns it."""
        self.__class__ = SealedClassAd
        return self

    def sealed(self) -> "SealedClassAd":
        """This ad if sealed, else a sealed copy (the caller keeps its
        builder): the form in which an ad crosses a boundary."""
        return self if type(self) is SealedClassAd else self.copy().seal()

    __sealed__ = sealed     # the hook repro.sim.fastcopy looks for

    def update(self, other: "ClassAd") -> None:
        for name, expr in other.expr_items():
            self.set_expr(name, expr)

    # -- mapping protocol ---------------------------------------------------
    def __setitem__(self, name: str, value: Any) -> None:
        self.set_expr(name, _to_expr(value))

    def set_expr(self, name: str, expr: Expr) -> None:
        if isinstance(expr, str):
            raise TypeError("set_expr needs an Expr; use set_expression "
                            "for source text")
        key = name.lower()
        self._attrs[key] = expr
        self._case[key] = name

    def set_expression(self, name: str, source: str) -> None:
        """Assign an attribute from ClassAd source text (kept lazy)."""
        self.set_expr(name, parse(source))

    def lookup(self, name: str) -> Optional[Expr]:
        """The raw (unevaluated) expression, or None."""
        return self._attrs.get(name.lower())

    def expr_items(self) -> list[tuple[str, Expr]]:
        return [(self._case[k], v) for k, v in self._attrs.items()]

    # -- evaluation ---------------------------------------------------------
    def eval(
        self,
        name: str,
        target: Optional["ClassAd"] = None,
        default: Any = UNDEFINED,
        ctx: Optional[EvalContext] = None,
    ) -> Any:
        """Evaluate attribute `name`; UNDEFINED (or `default`) if missing."""
        expr = self.lookup(name)
        if expr is None:
            return default
        if ctx is None:
            ctx = EvalContext(my=self, target=target)
        else:
            ctx = ctx.for_ad(self)
        return expr.eval(ctx)

    def get(self, name: str, default: Any = None) -> Any:
        if name.lower() not in self._attrs:
            return default
        return self.eval(name)

    # -- rendering -----------------------------------------------------------
    def __str__(self) -> str:
        inner = "; ".join(f"{self._case[k]} = {v}"
                          for k, v in self._attrs.items())
        return f"[ {inner} ]"


@declare
class SealedClassAd(ClassAd):
    """A sealed ad: a value (every mutator raises) that crosses by
    reference and computes its :func:`match_signature` once."""

    __slots__ = ()

    def _refuse(self, *_args: Any) -> None:
        raise TypeError("this ClassAd is sealed; edit a copy()")

    __setitem__ = set_expr = set_expression = update = _refuse


# -- matchmaking --------------------------------------------------------------

def requirements_met(ad: ClassAd, candidate: ClassAd) -> bool:
    """True if `ad.Requirements` evaluates to true against `candidate`.

    A missing Requirements attribute counts as true (matches anything),
    mirroring Condor's behaviour for ads that do not constrain the match.
    """
    expr = ad.lookup("requirements")
    if expr is None:
        return True
    return is_true(expr.eval(EvalContext(my=ad, target=candidate)))


def symmetric_match(left: ClassAd, right: ClassAd) -> bool:
    """Bilateral match: each ad's Requirements holds against the other."""
    return requirements_met(left, right) and requirements_met(right, left)


def rank_value(ad: ClassAd, candidate: ClassAd) -> float:
    """Evaluate `ad.Rank` against `candidate`; non-numeric ranks count 0."""
    expr = ad.lookup("rank")
    if expr is None:
        return 0.0
    value = expr.eval(EvalContext(my=ad, target=candidate))
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    return 0.0


def best_match(ad: ClassAd, candidates: list[ClassAd]) -> Optional[ClassAd]:
    """The matching candidate maximizing `ad.Rank` (stable on ties)."""
    best: Optional[ClassAd] = None
    best_rank = float("-inf")
    for cand in candidates:
        if not symmetric_match(ad, cand):
            continue
        r = rank_value(ad, cand)
        if r > best_rank:
            best, best_rank = cand, r
    return best


def match_signature(ad: ClassAd) -> tuple:
    """Content signature of an ad.

    The signature is a hashable value identity: two ads with the same
    attribute names bound to textually identical expressions share one
    signature, which is what lets the Negotiator evaluate Requirements
    once per (job-signature, machine) instead of once per job.

    A sealed ad keeps its signature: it is computed once per ad, however
    many cycles the ad is matched in.  An unsealed ad may still change,
    so its signature is computed afresh at every call.
    """
    signature = ad._signature
    if signature is None:
        attrs = ad._attrs
        signature = tuple((key, str(attrs[key])) for key in sorted(attrs))
        if type(ad) is SealedClassAd:
            ad._signature = signature
    return signature


__all__ = [
    "ClassAd", "SealedClassAd", "best_match", "match_signature", "rank_value",
    "requirements_met", "symmetric_match", "value_repr",
]
