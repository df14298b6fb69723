"""Lexer and parser tests for the ClassAd language."""

import pytest

from repro.classads import ClassAdSyntaxError, parse, parse_ad_pairs
from repro.classads.lexer import tokenize

from .test_eval import refused


def kinds(text):
    return [(t.kind, t.text) for t in tokenize(text) if t.kind != "EOF"]


class TestLexer:
    def test_numbers(self):
        assert kinds("1 42 3.14 1e3 2.5e-2") == [
            ("INT", "1"), ("INT", "42"), ("REAL", "3.14"),
            ("REAL", "1e3"), ("REAL", "2.5e-2")]

    def test_string_escapes(self):
        toks = kinds(r'"a\"b\n\t\\"')
        assert toks == [("STRING", 'a"b\n\t\\')]

    def test_unterminated_string(self):
        with pytest.raises(ClassAdSyntaxError):
            kinds('"abc')

    def test_unknown_escape(self):
        with pytest.raises(ClassAdSyntaxError):
            kinds(r'"\q"')

    def test_operators_longest_match(self):
        assert kinds("== != <= >= && || = < > !") == [
            ("OP", "=="), ("OP", "!="), ("OP", "<="), ("OP", ">="),
            ("OP", "&&"), ("OP", "||"), ("OP", "="), ("OP", "<"),
            ("OP", ">"), ("OP", "!")]
        for text in ("=?=", "a | b", "a & b", "a ^ b", "~a", "a ? b : c",
                     "{1}"):
            with pytest.raises(ClassAdSyntaxError, match="unexpected"):
                kinds(text)
        for text in ("+3", "a << 2", "a >> 2"):     # lexes, does not parse
            refused(text)

    # comments are not in the language: no ad of the system carries one

    def test_comments_stripped(self):
        refused("1 // comment\n + /* inline */ 2")

    def test_unterminated_comment(self):
        refused("/* never ends")

    def test_identifiers(self):
        assert kinds("Memory _foo a1_b") == [
            ("IDENT", "Memory"), ("IDENT", "_foo"), ("IDENT", "a1_b")]

    def test_unexpected_character(self):
        with pytest.raises(ClassAdSyntaxError):
            kinds("a @ b")


class TestParser:
    def test_precedence_mul_over_add(self):
        assert str(parse("1 + 2 * 3")) == "(1 + (2 * 3))"

    def test_precedence_add_over_compare(self):
        assert str(parse("a + 1 > b")) == "((a + 1) > b)"

    def test_precedence_compare_over_logic(self):
        assert str(parse("a > 1 && b < 2")) == "((a > 1) && (b < 2))"

    def test_precedence_and_over_or(self):
        assert str(parse("a || b && c")) == "(a || (b && c))"

    def test_parentheses_override(self):
        assert str(parse("(1 + 2) * 3")) == "((1 + 2) * 3)"

    def test_ternary(self):
        refused("a ? 1 : 2", "'\\?'")

    def test_ternary_nests_right(self):
        refused("a ? 1 : b ? 2 : 3")

    def test_unary_chain(self):
        assert str(parse("!!a")) == "!(!(a))"
        assert str(parse("--3")) == "-(-(3))"

    def test_scoped_refs(self):
        assert str(parse("MY.Memory")) == "MY.Memory"
        assert str(parse("target.Disk")) == "TARGET.Disk"

    def test_select_on_nested_ad(self):
        refused("a.b.c", "trailing input '.'")
        refused("MY.a.b", "trailing input '.'")

    def test_subscript(self):
        refused("xs[2]", "trailing input '\\['")

    def test_function_call(self):
        refused('strcat("a", "b")', "unknown function 'strcat'")
        assert str(parse("ifThenElse(a, real(b), 2)")) == \
            "ifThenElse(a, real(b), 2)"

    def test_function_no_args(self):
        refused("time()", "unknown function 'time'")
        assert str(parse("real()")) == "real()"

    def test_list_literal(self):
        refused("{1, 2, 3}")

    def test_empty_list(self):
        refused("{}")

    def test_nested_ad_literal(self):
        refused("[ a = 1; b = 2 ]", "unexpected token '\\['")

    def test_is_isnt_keywords(self):
        refused("a is undefined", "trailing input 'is'")
        refused("a isnt error", "trailing input 'isnt'")

    def test_keyword_literals(self):
        assert str(parse("TRUE")) == "true"
        assert str(parse("False")) == "false"
        assert str(parse("UNDEFINED")) == "undefined"

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ClassAdSyntaxError):
            parse("1 + 2 extra")

    def test_missing_operand_rejected(self):
        with pytest.raises(ClassAdSyntaxError):
            parse("1 +")

    def test_unbalanced_paren_rejected(self):
        with pytest.raises(ClassAdSyntaxError):
            parse("(1 + 2")


class TestAdParsing:
    def test_bracketed_format(self):
        pairs = parse_ad_pairs("[ Memory = 64; Arch = \"INTEL\" ]")
        assert [name for name, _ in pairs] == ["Memory", "Arch"]

    def test_bracketed_format_allows_a_trailing_semicolon(self):
        pairs = parse_ad_pairs("[ Memory = 64; ]")
        assert [name for name, _ in pairs] == ["Memory"]
        assert parse_ad_pairs("[]") == []

    # the old line format is not in the language: every ad the system
    # writes or reads back is bracketed (str(ad))

    def test_old_line_format(self):
        with pytest.raises(ClassAdSyntaxError, match="expected '\\['"):
            parse_ad_pairs("Memory = 64")
        with pytest.raises(ClassAdSyntaxError):
            parse_ad_pairs(
                "Memory = 64\n"
                "# a comment\n"
                "Requirements = TARGET.Disk > 100 && Arch == \"INTEL\"\n")

    def test_old_format_finds_assignment_not_comparison(self):
        with pytest.raises(ClassAdSyntaxError):
            parse_ad_pairs('Req = A == 1 && B <= 2 && C == "x"')
        pairs = parse_ad_pairs('[ Req = A == 1 && B <= 2 && C != "x" ]')
        assert [name for name, _ in pairs] == ["Req"]

    def test_old_format_bad_line(self):
        with pytest.raises(ClassAdSyntaxError):
            parse_ad_pairs("just some words")

    def test_equals_inside_string_not_assignment(self):
        pairs = parse_ad_pairs('[ Cmd = "--flag=value" ]')
        assert pairs[0][0] == "Cmd"
        assert str(pairs[0][1]) == '"--flag=value"'
