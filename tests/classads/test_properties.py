"""Property-based tests (hypothesis) for ClassAd invariants, over the
grammar the language keeps."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.classads import ClassAd, ERROR, UNDEFINED, parse
from repro.classads.ast import EvalContext
from repro.classads.values import value_repr

# -- value strategies ---------------------------------------------------------

# past 2**53, where a float stops holding every integer
ints = st.integers(min_value=-2**62, max_value=2**62)
reals = st.floats(min_value=-1e9, max_value=1e9,
                  allow_nan=False, allow_infinity=False)
# Strings without control chars; printable source round-trip.
texts = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    max_size=20)
scalars = st.one_of(ints, reals, texts, st.booleans(),
                    st.just(UNDEFINED), st.just(ERROR))

attr_names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,10}", fullmatch=True)


def ev(text, **kw):
    return parse(text).eval(EvalContext(**kw))


# -- round-trip properties ------------------------------------------------------

@given(scalars)
def test_value_repr_round_trips_through_parser(value):
    """unparse(value) reparses and evaluates to the same value."""
    src = value_repr(value)
    back = ev(src)
    if isinstance(value, float):
        assert isinstance(back, float) and math.isclose(back, value,
                                                        rel_tol=1e-12)
    else:
        assert back is value or back == value
        # preserve bool-vs-int distinction
        assert isinstance(back, bool) == isinstance(value, bool)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_reals_round_trip_through_the_parser(value):
    """inf, -inf and nan have no literal; their rendering still reads
    back as the same real, alone and inside an ad's text."""
    for back in (ev(value_repr(value)),
                 ClassAd.parse(str(ClassAd({"Rank": value}))).eval("Rank")):
        assert isinstance(back, float)
        assert back == value or (math.isnan(back) and math.isnan(value))


@given(st.dictionaries(attr_names.map(str.lower), ints, max_size=6))
def test_ad_parse_str_round_trip(attrs):
    ad = ClassAd(attrs)
    back = ClassAd.parse(str(ad))
    assert set(n.lower() for n, _ in back.expr_items()) == set(attrs)
    for name, value in attrs.items():
        assert back.eval(name) == value


@given(st.text(max_size=40))
def test_parser_never_crashes_unexpectedly(text):
    """Arbitrary input either parses or raises ClassAdSyntaxError."""
    from repro.classads import ClassAdSyntaxError

    try:
        parse(text)
    except ClassAdSyntaxError:
        pass
    except RecursionError:
        pass  # pathological nesting is acceptable to reject this way


# -- expression algebra --------------------------------------------------------

expr_leaves = st.one_of(
    ints.map(lambda n: str(n)),
    st.just("true"), st.just("false"),
    st.just("undefined"), st.just("error"),
    st.just("missing"),   # an attr that resolves to UNDEFINED
)


@st.composite
def bool_exprs(draw, depth=3):
    if depth == 0:
        return draw(expr_leaves)
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return draw(expr_leaves)
    if kind == 1:
        return f"!({draw(bool_exprs(depth=depth - 1))})"
    a = draw(bool_exprs(depth=depth - 1))
    b = draw(bool_exprs(depth=depth - 1))
    op = {2: "&&", 3: "||", 4: "=="}[kind]
    return f"({a}) {op} ({b})"


# -- the kept grammar, drawn whole --------------------------------------------

ATTRS = ("A", "B", "Memory")
BINARY = ("||", "&&", "==", "!=", "<", "<=", ">", ">=",
          "+", "-", "*", "/", "%")
refs = st.builds(str.__add__,
                 st.sampled_from(("", "MY.", "TARGET.", "my.", "target.")),
                 st.sampled_from(ATTRS))


@st.composite
def exprs(draw, depth=4):
    """Source text of an expression of the language: a literal, an
    attribute reference, ``!``/unary ``-``, a binary operator (bracketed
    or left to precedence), ``real()`` or ``ifThenElse()``."""
    kind = draw(st.integers(0, 5 if depth else 1))
    if kind == 0:
        return value_repr(draw(scalars))
    if kind == 1:
        return draw(refs)
    sub = exprs(depth=depth - 1)
    if kind == 2:
        return draw(st.sampled_from("!-")) + draw(sub)
    if kind == 3:
        text = f"{draw(sub)} {draw(st.sampled_from(BINARY))} {draw(sub)}"
        return f"({text})" if draw(st.booleans()) else text
    if kind == 4:
        return f"real({draw(sub)})"
    return f"ifThenElse({draw(sub)}, {draw(sub)}, {draw(sub)})"


def _ad(pairs):
    ad = ClassAd()
    for name, text in pairs:
        ad.set_expression(name, text)
    return ad


ads = st.lists(st.tuples(st.sampled_from(ATTRS), exprs(depth=2)),
               max_size=4).map(_ad)


def _same(a, b):
    """One value: the same type and value, NaN the same as NaN."""
    return a is b or (type(a) is type(b) and (a == b or a != a and b != b))


@given(exprs())
@settings(max_examples=300)
def test_rendering_parses_back_to_itself(src):
    """``parse(str(e))`` renders as ``e`` does: the text is the tree."""
    text = str(parse.__wrapped__(src))
    assert str(parse.__wrapped__(text)) == text


@given(exprs(), ads, ads)
@settings(max_examples=300)
def test_the_memo_agrees_with_the_parser(src, my, target):
    """The shared tree renders and evaluates as a fresh parse does,
    against a drawn MY/TARGET pair."""
    shared, fresh = parse(src), parse.__wrapped__(src)
    assert str(shared) == str(fresh)
    assert _same(shared.eval(EvalContext(my=my, target=target)),
                 fresh.eval(EvalContext(my=my, target=target)))


@given(bool_exprs())
@settings(max_examples=200)
def test_evaluation_is_deterministic(src):
    a = ev(src, my=ClassAd())
    b = ev(src, my=ClassAd())
    assert type(a) is type(b) and (a is b or a == b)


@given(bool_exprs())
@settings(max_examples=200)
def test_logic_ops_commute(src):
    """a && b == b && a in three-valued logic (same for ||)."""
    other = "true"
    assert ev(f"({src}) && ({other})") is ev(f"({other}) && ({src})")
    assert ev(f"({src}) || ({other})") is ev(f"({other}) || ({src})")


@given(bool_exprs())
@settings(max_examples=200)
def test_double_negation_preserves_truth(src):
    v1 = ev(src)
    v2 = ev(f"!!({src})")
    if v1 in (UNDEFINED, ERROR):
        assert v2 is v1
    else:
        # numbers collapse to booleans under !!; truthiness is preserved
        from repro.classads import is_true
        assert is_true(v1) == is_true(v2)


@given(bool_exprs())
@settings(max_examples=200)
def test_de_morgan(src):
    b = "false"
    lhs = ev(f"!(({src}) && ({b}))")
    rhs = ev(f"(!({src})) || (!({b}))")
    assert lhs is rhs or lhs == rhs


@given(ints, ints)
def test_integer_arithmetic_matches_python(a, b):
    assert ev(f"({a}) + ({b})") == a + b
    assert ev(f"({a}) - ({b})") == a - b
    assert ev(f"({a}) * ({b})") == a * b


def _c_div(a, b):
    """C's integer quotient (truncated toward zero) and remainder (the
    dividend's sign), computed exactly."""
    q = abs(a) // abs(b) * (1 if (a < 0) == (b < 0) else -1)
    return q, a - b * q


@given(ints, ints)
def test_division_c_semantics(a, b):
    if b == 0:
        assert ev(f"({a}) / ({b})") is ERROR
        assert ev(f"({a}) % ({b})") is ERROR
    else:
        assert (ev(f"({a}) / ({b})"), ev(f"({a}) % ({b})")) == _c_div(a, b)


def test_division_is_exact_past_two_to_the_53():
    assert ev("9007199254740993 / 1") == 9007199254740993
    assert ev("9007199254740993 % 10") == 3
    assert ev("-9007199254740993 / 10") == -900719925474099
    assert ev("7 % -3") == 1 and ev("-7 % 3") == -1


@given(ints, ints)
def test_comparison_total_order(a, b):
    assert ev(f"({a}) < ({b})") == (a < b)
    assert ev(f"({a}) == ({b})") == (a == b)
    # exactly one of <, ==, > holds
    results = [ev(f"({a}) {op} ({b})") for op in ("<", "==", ">")]
    assert sum(results) == 1


@given(texts, texts)
def test_string_equality_is_case_insensitive(a, b):
    expected = a.lower() == b.lower()
    assert ev(f"{value_repr(a)} == {value_repr(b)}") == expected


@given(st.dictionaries(attr_names.map(str.lower), ints, min_size=1,
                       max_size=6))
def test_attr_lookup_case_insensitive(attrs):
    ad = ClassAd(attrs)
    for name, value in attrs.items():
        assert ad.eval(name.upper()) == value
        assert ad.eval(name.lower()) == value


@given(st.dictionaries(attr_names, ints, max_size=6))
def test_copy_is_independent(attrs):
    ad = ClassAd(attrs)
    dup = ad.copy()
    dup["NewAttr123"] = 1
    assert ad.lookup("NewAttr123") is None
