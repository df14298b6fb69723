"""ClassAds: the Condor classified-advertisement language.

A complete implementation of the ClassAd expression language used by
Condor's matchmaking framework [25 in the paper]: lexer, parser, lazy
three-valued evaluator (UNDEFINED/ERROR), built-in function library, and
the bilateral Requirements/Rank match used by the Negotiator and by the
Condor-G resource broker.
"""

from .ast import AttrRef, EvalContext, Expr, Literal, is_match_static
from .classad import (
    ClassAd,
    SealedClassAd,
    best_match,
    match_signature,
    rank_value,
    requirements_met,
    symmetric_match,
)
from .lexer import ClassAdSyntaxError
from .parser import parse, parse_ad_pairs
from .values import ERROR, UNDEFINED, is_false, is_true, value_repr

__all__ = [
    "ERROR", "UNDEFINED", "AttrRef", "ClassAd", "ClassAdSyntaxError",
    "EvalContext", "Expr", "Literal", "SealedClassAd", "best_match",
    "is_false", "is_true", "is_match_static", "match_signature",
    "parse", "parse_ad_pairs", "rank_value", "requirements_met",
    "symmetric_match", "value_repr",
]
