"""Evaluator tests: three-valued logic, operators, builtins."""

import pytest

from repro.classads import ClassAd, ERROR, UNDEFINED
from repro.classads.ast import EvalContext
from repro.classads.parser import parse


def ev(text, my=None, target=None, now=0.0, rng=None):
    return parse(text).eval(EvalContext(my=my, target=target, now=now,
                                        rng=rng))


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

    def test_meta_equal_case_sensitive(self):
        assert ev('"INTEL" =?= "intel"') is False
        assert ev('"x" =?= "x"') is True

    def test_meta_equal_type_strict(self):
        assert ev("1 =?= 1.0") is False
        assert ev("1 =?= 1") is True
        assert ev("true =?= 1") is False

    def test_meta_equal_undefined(self):
        assert ev("undefined =?= undefined") is True
        assert ev("undefined =?= 1") is False
        assert ev("error =?= error") is True
        assert ev("missing =?= undefined") is True

    def test_meta_not_equal(self):
        assert ev("undefined =!= undefined") is False
        assert ev("1 =!= 2") is True


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

    def test_ternary_strict_on_condition(self):
        assert ev("true ? 1 : 2") == 1
        assert ev("false ? 1 : 2") == 2
        assert ev("missing ? 1 : 2") is UNDEFINED
        assert ev("(1/0) ? 1 : 2") is ERROR

    def test_ternary_lazy_branches(self):
        # The untaken branch must not be evaluated (no ERROR leaks out).
        assert ev("true ? 1 : (1/0)") == 1


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

    def test_currenttime(self):
        assert ev("CurrentTime", my=ClassAd(), now=123.7) == 123

    def test_currenttime_can_be_shadowed(self):
        my = ClassAd({"CurrentTime": 5})
        assert ev("CurrentTime", my=my, now=99.0) == 5


class TestCollections:
    def test_list_indexing(self):
        assert ev("{10, 20, 30}[1]") == 20

    def test_list_index_out_of_range_is_error(self):
        assert ev("{1}[5]") is ERROR

    def test_list_index_non_int_is_error(self):
        assert ev('{1}["x"]') is ERROR

    def test_nested_ad_select(self):
        assert ev("[ inner = [ x = 7 ] ].inner.x") == 7

    def test_nested_ad_subscript(self):
        assert ev('[ x = 7 ]["x"]') == 7

    def test_select_on_non_ad_is_error(self):
        assert ev("(1).foo") is ERROR


class TestBuiltins:
    def test_strcat(self):
        assert ev('strcat("a", "b", 1, true)') == "ab1true"

    def test_strcat_undefined(self):
        assert ev("strcat(\"a\", missing)") is UNDEFINED

    def test_substr(self):
        assert ev('substr("condor-g", 0, 6)') == "condor"
        assert ev('substr("condor-g", 7)') == "g"
        assert ev('substr("abcdef", -2)') == "ef"
        assert ev('substr("abcdef", 1, -1)') == "bcde"

    def test_size(self):
        assert ev('size("hello")') == 5
        assert ev("size({1,2,3})") == 3

    def test_case_functions(self):
        assert ev('toUpper("abc")') == "ABC"
        assert ev('toLower("ABC")') == "abc"

    def test_conversions(self):
        assert ev('int("42")') == 42
        assert ev("int(3.9)") == 3
        assert ev('real("2.5")') == 2.5
        assert ev("string(5)") == "5"
        assert ev('int("zebra")') is ERROR

    def test_rounding(self):
        assert ev("floor(3.7)") == 3
        assert ev("ceiling(3.2)") == 4
        assert ev("round(3.5)") == 4
        assert ev("round(2.4)") == 2

    def test_type_predicates(self):
        assert ev("isUndefined(missing)") is True
        assert ev("isError(1/0)") is True
        assert ev('isString("s")') is True
        assert ev("isInteger(1)") is True
        assert ev("isInteger(true)") is False
        assert ev("isReal(1.5)") is True
        assert ev("isBoolean(false)") is True
        assert ev("isList({1})") is True
        assert ev("isClassAd([ a = 1 ])") is True

    def test_is_classad_holds_for_a_sealed_ad(self):
        from repro.classads.builtins import BUILTINS

        is_classad, _lazy = BUILTINS["isclassad"]
        assert is_classad(None, [ClassAd({"a": 1}).seal()]) is True
        assert is_classad(None, [ClassAd({"a": 1})]) is True

    def test_member(self):
        assert ev('member("b", {"a", "B"})') is True
        assert ev("member(2, {1, 2.0, 3})") is True
        assert ev("member(9, {1, 2})") is False
        assert ev("member(1, 5)") is ERROR

    def test_string_list_member(self):
        assert ev('stringListMember("pbs", "condor, pbs, lsf")') is True
        assert ev('stringListMember("sge", "condor, pbs, lsf")') is False
        assert ev('stringListSize("condor, pbs, lsf")') == 3
        assert ev('stringListSize("a:b:c", ":")') == 3

    def test_regexp(self):
        assert ev('regexp("^cms_.*", "cms_run42")') is True
        assert ev('regexp("^CMS", "cms_run42", "i")') is True
        assert ev('regexp("[bad", "x")') is ERROR

    def test_if_then_else_lazy(self):
        assert ev("ifThenElse(true, 1, 1/0)") == 1
        assert ev("ifThenElse(false, 1/0, 2)") == 2
        assert ev("ifThenElse(missing, 1, 2)") is UNDEFINED

    def test_time(self):
        assert ev("time()", now=55.9) == 55

    def test_pow_abs(self):
        assert ev("pow(2, 10)") == 1024
        assert ev("pow(2, 0.5)") == pytest.approx(2 ** 0.5)
        assert ev("abs(-4)") == 4

    def test_random_deterministic_with_rng(self):
        import random
        assert ev("random(10)", rng=random.Random(1)) == \
            ev("random(10)", rng=random.Random(1))
        assert ev("random()", rng=None) is ERROR

    def test_unknown_function_is_error(self):
        assert ev("noSuchFn(1)") is ERROR

    def test_unparse(self):
        assert ev("unparse(a + 1)") == "(a + 1)"
