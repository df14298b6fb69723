"""The string and list functions of the full ClassAd language are not in
this one: every call is refused at parse time (a list literal already at
its ``{``), so an ad that uses one fails where it is written."""

import pytest

from repro.classads import ClassAd, ClassAdSyntaxError

from .test_eval import refused


class TestStringFunctions:
    def test_strcmp(self):
        refused('strcmp("a", "b")', "strcmp")

    def test_stricmp(self):
        refused('stricmp("ABC", "abc")', "stricmp")

    def test_strcmp_type_errors(self):
        refused('strcmp("a", missing)', "strcmp")

    def test_join_varargs(self):
        refused('join("-", "a", "b", "c")', "join")

    def test_join_list(self):
        refused('join(":", {"x", "y"})')

    def test_split(self):
        refused('split("a, b,c")', "split")

    def test_split_join_round_trip(self):
        refused('join(",", split("p,q,r"))', "join")


class TestListReductions:
    def test_min_max(self):
        refused("min(3, 1, 2)", "min")
        refused("max({3, 1, 2})")

    def test_sum_avg(self):
        refused("sum(1, 2, 3)", "sum")
        refused("avg(1, 2, 3)", "avg")

    def test_empty_list_is_error(self):
        refused("sum({})")

    def test_non_numeric_is_error(self):
        refused('sum(1, "two")', "sum")

    def test_undefined_propagates(self):
        refused("max(1, missing)", "max")

    def test_bools_coerce(self):
        refused("sum(true, true, false)", "sum")

    def test_usable_in_requirements(self):
        """An ad that uses one is refused as it is parsed."""
        with pytest.raises(ClassAdSyntaxError, match="function 'min'"):
            ClassAd.parse("[ CpuLoad = 0.1; "
                          "  Requirements = min(CpuLoad) < 0.2 ]")
