"""ClassAds: the Condor classified-advertisement language, cut to the
subset the system's ads use.

In the paper ClassAds do one job: bilateral Requirements/Rank matching,
by the personal pool's Negotiator (jobs on GlideIns, §5) and by the
broker (a job against MDS-published resource state, §4.4).  This
package carries exactly what those ads evaluate: literals, attribute
references (``MY.``/``TARGET.``), ``!`` and unary ``-``, arithmetic,
comparison and ``&&``/``||`` under the three-valued logic
(UNDEFINED/ERROR), ``real()`` and ``ifThenElse()``, and bracketed ads.
Anything else of the full language is refused at parse time.
``benchmarks/reach.py repro`` measures that no consumer of the system
needs more, and CI fails on a function here that none enters.
"""

from .ast import AttrRef, EvalContext, Expr, Literal
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
from .values import ERROR, UNDEFINED, is_true, value_repr

__all__ = [
    "ERROR", "UNDEFINED", "AttrRef", "ClassAd", "ClassAdSyntaxError",
    "EvalContext", "Expr", "Literal", "SealedClassAd", "best_match",
    "is_true", "match_signature",
    "parse", "parse_ad_pairs", "rank_value", "requirements_met",
    "symmetric_match", "value_repr",
]
