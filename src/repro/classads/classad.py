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

from typing import Any, Iterator, Optional

from .ast import AttrRef, EvalContext, Expr, Literal, is_match_static
from .values import ERROR, UNDEFINED, is_true, value_repr


def _to_expr(value: Any) -> Expr:
    """Accept Python natives, Expr, or ClassAd source strings-as-values."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, ClassAd):
        from .ast import ClassAdExpr

        return ClassAdExpr([(k, v) for k, v in value.expr_items()])
    if isinstance(value, list):
        from .ast import ListExpr

        return ListExpr([_to_expr(v) for v in value])
    if value is None:
        return Literal(UNDEFINED)
    if isinstance(value, (bool, int, float, str)) or value in (UNDEFINED,
                                                               ERROR):
        return Literal(value)
    raise TypeError(f"cannot store {type(value).__name__} in a ClassAd")


class ClassAd:
    """An attribute -> expression record with lazy evaluation.

    An ad is a builder until it is *sealed* (:meth:`seal`, one way):
    after that every mutator raises, so the ad is a value that may be
    published, sent and stored by reference -- which is what happens to
    it the first time it crosses a wire or hits a disk
    (:mod:`repro.sim.fastcopy`).  :meth:`copy` gives an unsealed ad to
    edit.
    """

    __slots__ = ("_attrs", "_case", "_sealed")

    def __init__(self, attrs: Optional[dict[str, Any]] = None):
        # _attrs: lowercase name -> Expr;  _case: lowercase -> display name
        self._attrs: dict[str, Expr] = {}
        self._case: dict[str, str] = {}
        self._sealed = False
        if attrs:
            for name, value in attrs.items():
                self[name] = value

    # -- construction -------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "ClassAd":
        """Parse `[a = 1; b = 2]` or old-style `a = 1` line format."""
        from .parser import parse_ad_pairs

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
    def seal(self) -> "ClassAd":
        """Make this ad immutable, for good; returns it."""
        self._sealed = True
        return self

    def sealed(self) -> "ClassAd":
        """This ad if sealed, else a sealed copy (the caller keeps its
        builder): the form in which an ad crosses a boundary."""
        return self if self._sealed else self.copy().seal()

    __sealed__ = sealed     # the hook repro.sim.fastcopy looks for

    def _check_unsealed(self) -> None:
        if self._sealed:
            raise TypeError("this ClassAd is sealed; edit a copy()")

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
        self._check_unsealed()
        key = name.lower()
        self._attrs[key] = expr
        self._case[key] = name

    def set_expression(self, name: str, source: str) -> None:
        """Assign an attribute from ClassAd source text (kept lazy)."""
        from .parser import parse

        self.set_expr(name, parse(source))

    def lookup(self, name: str) -> Optional[Expr]:
        """The raw (unevaluated) expression, or None."""
        return self._attrs.get(name.lower())

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._attrs

    def __delitem__(self, name: str) -> None:
        self._check_unsealed()
        key = name.lower()
        del self._attrs[key]
        del self._case[key]

    def __len__(self) -> int:
        return len(self._attrs)

    def __iter__(self) -> Iterator[str]:
        return iter(self._case.values())

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

    def __getitem__(self, name: str) -> Any:
        value = self.eval(name)
        if value is UNDEFINED and name.lower() not in self._attrs:
            raise KeyError(name)
        return value

    def get(self, name: str, default: Any = None) -> Any:
        if name.lower() not in self._attrs:
            return default
        return self.eval(name)

    def evaluate_expr(self, source: str,
                      target: Optional["ClassAd"] = None) -> Any:
        """Parse and evaluate an expression with this ad as MY."""
        from .parser import parse

        return parse(source).eval(EvalContext(my=self, target=target))

    # -- rendering -----------------------------------------------------------
    def __str__(self) -> str:
        inner = "; ".join(f"{self._case[k]} = {v}"
                          for k, v in self._attrs.items())
        return f"[ {inner} ]"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ClassAd({len(self)} attrs)"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClassAd):
            return NotImplemented
        return {k: str(v) for k, v in self._attrs.items()} == \
               {k: str(v) for k, v in other._attrs.items()}

    def __hash__(self) -> int:
        return hash(tuple(sorted((k, str(v))
                                 for k, v in self._attrs.items())))

    def __deepcopy__(self, memo: dict) -> "ClassAd":
        # Exprs are immutable once built; sharing them is safe and fast.
        return self if self._sealed else self.copy()


# -- matchmaking --------------------------------------------------------------

def requirements_met(ad: ClassAd, candidate: ClassAd, now: float = 0.0,
                     rng: Any = None) -> bool:
    """True if `ad.Requirements` evaluates to true against `candidate`.

    A missing Requirements attribute counts as true (matches anything),
    mirroring Condor's behaviour for ads that do not constrain the match.
    """
    expr = ad.lookup("requirements")
    if expr is None:
        return True
    ctx = EvalContext(my=ad, target=candidate, now=now, rng=rng)
    return is_true(expr.eval(ctx))


def symmetric_match(left: ClassAd, right: ClassAd, now: float = 0.0,
                    rng: Any = None) -> bool:
    """Bilateral match: each ad's Requirements holds against the other."""
    return (requirements_met(left, right, now=now, rng=rng)
            and requirements_met(right, left, now=now, rng=rng))


def rank_value(ad: ClassAd, candidate: ClassAd, now: float = 0.0,
               rng: Any = None) -> float:
    """Evaluate `ad.Rank` against `candidate`; non-numeric ranks count 0."""
    expr = ad.lookup("rank")
    if expr is None:
        return 0.0
    value = expr.eval(EvalContext(my=ad, target=candidate, now=now, rng=rng))
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    return 0.0


def best_match(
    ad: ClassAd,
    candidates: list[ClassAd],
    now: float = 0.0,
    rng: Any = None,
) -> Optional[ClassAd]:
    """The matching candidate maximizing `ad.Rank` (stable on ties)."""
    best: Optional[ClassAd] = None
    best_rank = float("-inf")
    for cand in candidates:
        if not symmetric_match(ad, cand, now=now, rng=rng):
            continue
        r = rank_value(ad, cand, now=now, rng=rng)
        if r > best_rank:
            best, best_rank = cand, r
    return best


def match_signature(ad: ClassAd, cache: Optional[dict] = None
                    ) -> tuple[tuple, bool]:
    """Content signature of an ad plus whether it is match-static.

    The signature is a hashable value identity: two ads with the same
    attribute names bound to textually identical expressions share one
    signature, which is what lets the Negotiator evaluate Requirements
    once per (job-signature, machine) instead of once per job.  The
    second element is True when every attribute expression is
    :func:`repro.classads.ast.is_match_static` -- only then is it safe
    to reuse evaluations across different ``now`` values.

    ``cache`` (optional) maps ``id(expr)`` to ``(text, static, expr)``;
    holding the expr keeps its id from being recycled.  Ads routinely
    share Expr objects (``ClassAd.copy`` is shallow), so the cache
    collapses repeated ``str(expr)`` work across thousands of ads.
    """
    parts = []
    static = True
    for key in sorted(ad._attrs):
        expr = ad._attrs[key]
        if cache is not None:
            entry = cache.get(id(expr))
            if entry is None or entry[2] is not expr:
                entry = (str(expr), is_match_static(expr), expr)
                cache[id(expr)] = entry
            text, expr_static = entry[0], entry[1]
        else:
            text, expr_static = str(expr), is_match_static(expr)
        parts.append((key, text))
        static = static and expr_static
    return tuple(parts), static


__all__ = [
    "ClassAd", "best_match", "match_signature", "rank_value",
    "requirements_met", "symmetric_match", "value_repr",
]
