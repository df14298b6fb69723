"""Evaluator tests: three-valued logic, operators, functions -- and the
constructs of the full ClassAd language this one refuses at parse time."""

import pytest

from repro.classads import ClassAd, ClassAdSyntaxError, ERROR, UNDEFINED
from repro.classads.ast import EvalContext
from repro.classads.parser import parse


def ev(text, my=None, target=None):
    return parse(text).eval(EvalContext(my=my, target=target))


def refused(text, name=None):
    """`text` is outside the language: parsing it raises (naming `name`)."""
    with pytest.raises(ClassAdSyntaxError, match=name):
        parse(text)


class TestArithmetic:
    @pytest.mark.parametrize("src,expected", [
        ("1 + 2", 3),
        ("5 - 7", -2),
        ("3 * 4", 12),
        ("7 / 2", 3),            # C-style integer division
        ("-7 / 2", -3),          # truncates toward zero
        ("7.0 / 2", 3.5),
        ("7 % 3", 1),
        ("-7 % 3", -1),          # C-style fmod
        ("2 + 3.5", 5.5),
        ("true + 1", 2),         # bools coerce in arithmetic
    ])
    def test_values(self, src, expected):
        assert ev(src) == expected

    def test_division_by_zero_is_error(self):
        assert ev("1 / 0") is ERROR
        assert ev("1 % 0") is ERROR

    def test_string_arithmetic_is_error(self):
        assert ev('"a" + 1') is ERROR

    def test_unary_minus(self):
        assert ev("-(3 + 4)") == -7

    def test_unary_minus_on_string_is_error(self):
        assert ev('-"x"') is ERROR


class TestComparison:
    def test_numeric(self):
        assert ev("3 < 4") is True
        assert ev("3 >= 4") is False
        assert ev("2 == 2.0") is True

    def test_string_equality_case_insensitive(self):
        assert ev('"INTEL" == "intel"') is True
        assert ev('"a" < "B"') is True

    def test_mixed_string_number_is_error(self):
        assert ev('"a" == 1') is ERROR

    # meta-equality (=?=, =!=) is not in the language

    def test_meta_equal_case_sensitive(self):
        refused('"INTEL" =?= "intel"')
        refused('"x" =?= "x"')

    def test_meta_equal_type_strict(self):
        refused("1 =?= 1.0")
        refused("1 =?= 1")
        refused("true =?= 1")

    def test_meta_equal_undefined(self):
        refused("undefined =?= undefined")
        refused("undefined =?= 1")
        refused("error =?= error")
        refused("missing =?= undefined")

    def test_meta_not_equal(self):
        refused("undefined =!= undefined")
        refused("1 =!= 2")


class TestThreeValuedLogic:
    def test_undefined_propagates_strict(self):
        assert ev("missing + 1") is UNDEFINED
        assert ev("missing > 3") is UNDEFINED

    def test_error_dominates_undefined(self):
        assert ev("(1/0) + missing") is ERROR

    def test_and_nonstrict_false(self):
        assert ev("false && missing") is False
        assert ev("missing && false") is False

    def test_and_undefined(self):
        assert ev("true && missing") is UNDEFINED

    def test_and_error(self):
        assert ev("true && (1/0)") is ERROR

    def test_or_nonstrict_true(self):
        assert ev("true || missing") is True
        assert ev("missing || true") is True

    def test_or_undefined(self):
        assert ev("false || missing") is UNDEFINED

    def test_not(self):
        assert ev("!true") is False
        assert ev("!missing") is UNDEFINED
        assert ev("!(1/0)") is ERROR

    def test_numbers_as_truth(self):
        assert ev("1 && true") is True
        assert ev("0 || false") is False

    def test_string_in_logic_is_error(self):
        assert ev('"yes" && true') is ERROR

    # `?:` is not in the language; ifThenElse is its conditional

    def test_ternary_strict_on_condition(self):
        refused("true ? 1 : 2")
        refused("false ? 1 : 2")
        refused("missing ? 1 : 2")
        refused("(1/0) ? 1 : 2")
        assert ev("ifThenElse(missing, 1, 2)") is UNDEFINED
        assert ev("ifThenElse(1/0, 1, 2)") is ERROR

    def test_ternary_lazy_branches(self):
        refused("true ? 1 : (1/0)")
        # The untaken branch must not be evaluated (no ERROR leaks out).
        assert ev("ifThenElse(true, 1, (1/0))") == 1


class TestAttributeResolution:
    def test_plain_ref_resolves_in_my_then_target(self):
        my = ClassAd({"A": 1})
        target = ClassAd({"A": 2, "B": 3})
        assert ev("A", my=my, target=target) == 1
        assert ev("B", my=my, target=target) == 3

    def test_scoped_refs(self):
        my = ClassAd({"A": 1})
        target = ClassAd({"A": 2})
        assert ev("MY.A", my=my, target=target) == 1
        assert ev("TARGET.A", my=my, target=target) == 2

    def test_missing_is_undefined(self):
        assert ev("Nope", my=ClassAd()) is UNDEFINED
        assert ev("TARGET.Nope", my=ClassAd()) is UNDEFINED

    def test_case_insensitive_attr_names(self):
        my = ClassAd({"Memory": 64})
        assert ev("memory", my=my) == 64
        assert ev("MEMORY", my=my) == 64

    def test_target_expr_evaluated_in_target_scope(self):
        """Refs inside a target attr resolve in the *target* ad first."""
        my = ClassAd({"X": 1})
        target = ClassAd.parse("[ X = 2; Doubled = X * 10 ]")
        assert ev("TARGET.Doubled", my=my, target=target) == 20

    def test_chained_attrs(self):
        my = ClassAd.parse("[ A = B + 1; B = C * 2; C = 5 ]")
        assert my.eval("A") == 11

    def test_self_cycle_is_error(self):
        my = ClassAd.parse("[ A = A + 1 ]")
        assert my.eval("A") is ERROR

    def test_mutual_cycle_is_error(self):
        my = ClassAd.parse("[ A = B; B = A ]")
        assert my.eval("A") is ERROR

    def test_diamond_is_not_cycle(self):
        my = ClassAd.parse("[ A = B + C; B = D; C = D; D = 1 ]")
        assert my.eval("A") == 2


class TestCollections:
    """Lists, nested ads, subscripts and selection are not in the
    language: no ad of the system holds a collection."""

    def test_list_indexing(self):
        refused("{10, 20, 30}[1]")

    def test_list_index_out_of_range_is_error(self):
        refused("{1}[5]")

    def test_list_index_non_int_is_error(self):
        refused('{1}["x"]')

    def test_nested_ad_select(self):
        refused("[ inner = [ x = 7 ] ].inner.x")

    def test_nested_ad_subscript(self):
        refused('[ x = 7 ]["x"]')

    def test_select_on_non_ad_is_error(self):
        refused("(1).foo")

    def test_a_collection_is_no_attribute_value(self):
        ad = ClassAd()
        for value in ([1, 2], ClassAd({"x": 1})):
            with pytest.raises(TypeError, match="cannot store"):
                ad["X"] = value
        with pytest.raises(TypeError, match="cannot store list"):
            ClassAd({"CpuLoads": [0.9, 0.1]})


class TestBuiltins:
    """The language has two functions, real() and ifThenElse(); a call of
    any other is refused at parse time, naming it, so an ad that uses one
    fails where it is written instead of never matching."""

    def test_strcat(self):
        refused('strcat("a", "b", 1, true)', "strcat")

    def test_strcat_undefined(self):
        refused("strcat(\"a\", missing)", "strcat")

    def test_substr(self):
        refused('substr("condor-g", 0, 6)', "substr")
        refused('substr("condor-g", 7)', "substr")
        refused('substr("abcdef", -2)', "substr")
        refused('substr("abcdef", 1, -1)', "substr")

    def test_size(self):
        refused('size("hello")', "size")
        refused("size({1,2,3})", "{")

    def test_case_functions(self):
        refused('toUpper("abc")', "toUpper")
        refused('toLower("ABC")', "toLower")

    def test_conversions(self):
        refused('int("42")', "int")
        refused("int(3.9)", "int")
        assert ev('real("2.5")') == 2.5
        assert ev("real(3)") == 3.0 and ev("real(true)") == 1.0
        assert ev('real("zebra")') is ERROR
        assert ev("real(missing)") is UNDEFINED
        assert ev("real(1, 2)") is ERROR
        refused("string(5)", "string")
        refused('int("zebra")', "int")

    def test_rounding(self):
        refused("floor(3.7)", "floor")
        refused("ceiling(3.2)", "ceiling")
        refused("round(3.5)", "round")
        refused("round(2.4)", "round")

    def test_type_predicates(self):
        refused("isUndefined(missing)", "isUndefined")
        refused("isError(1/0)", "isError")
        refused('isString("s")', "isString")
        refused("isInteger(1)", "isInteger")
        refused("isInteger(true)", "isInteger")
        refused("isReal(1.5)", "isReal")
        refused("isBoolean(false)", "isBoolean")
        refused("isList({1})", "{")
        refused("isClassAd([ a = 1 ])", "isClassAd")

    def test_member(self):
        refused('member("b", {"a", "B"})', "{")
        refused("member(2, {1, 2.0, 3})", "{")
        refused("member(9, {1, 2})", "{")
        refused("member(1, 5)", "member")

    def test_string_list_member(self):
        refused('stringListMember("pbs", "condor, pbs, lsf")',
                "stringListMember")
        refused('stringListMember("sge", "condor, pbs, lsf")',
                "stringListMember")
        refused('stringListSize("condor, pbs, lsf")', "stringListSize")
        refused('stringListSize("a:b:c", ":")', "stringListSize")

    def test_regexp(self):
        refused('regexp("^cms_.*", "cms_run42")', "regexp")
        refused('regexp("^CMS", "cms_run42", "i")', "regexp")
        refused('regexp("[bad", "x")', "regexp")

    def test_if_then_else_lazy(self):
        assert ev("ifThenElse(true, 1, 1/0)") == 1
        assert ev("ifThenElse(false, 1/0, 2)") == 2
        assert ev("ifThenElse(missing, 1, 2)") is UNDEFINED
        assert ev("IFTHENELSE(0, 1, 2)") == 2
        assert ev("ifThenElse(true, 1)") is ERROR

    def test_time(self):
        refused("time()", "time")

    def test_pow_abs(self):
        refused("pow(2, 10)", "pow")
        refused("pow(2, 0.5)", "pow")
        refused("abs(-4)", "abs")

    def test_unknown_function_is_error(self):
        refused("noSuchFn(1)", "noSuchFn")
        refused("random(10)", "random")
        refused("random()", "random")
        refused("1 + real(noSuchFn())", "noSuchFn")

    def test_unparse(self):
        refused("unparse(a + 1)", "unparse")
