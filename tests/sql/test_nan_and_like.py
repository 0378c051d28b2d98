"""Executor comparison semantics around non-finite values, plus LIKE ESCAPE.

Two regressions are pinned here:

* ``numeric_pair`` used to accept ``'nan'``/``'inf'``/``'Infinity'`` strings
  as numbers, and ``compare_values`` answered 0 for NaN against anything — so
  ``'nan' >= 5`` and ``'nan' <= 5`` were *both* true.  Non-finite string
  casts are now rejected (such strings compare textually, like any other
  non-numeric string) and ``compare_values`` is a deterministic total order with
  NaN after every real value.
* ``LIKE`` had no way to match a literal ``%`` or ``_``; the standard
  ``ESCAPE`` clause is now supported end to end (tokenizer → parser →
  executor).
"""

import math

import pytest

from repro.dataframe.schema import is_null
from repro.dataframe.table import Table
from repro.sql.database import Database
from repro.sql.errors import ExecutionError
from repro.sql.comparison import compare_values
from repro.sql.scalar import _like_to_regex, sort_key
from repro.sql.parser import parse_expression
from repro.sql.ast_nodes import Like


@pytest.fixture
def db():
    database = Database()
    database.register(
        Table.from_dict(
            "t",
            {
                "label": ["a", "b", "c", "d"],
                "value": ["nan", "inf", "Infinity", "7"],
                "discount": ["5% off", "50 off", "under_score", "plain"],
            },
        )
    )
    return database


class TestNonFiniteStrings:
    def test_nan_string_is_not_a_number(self, db):
        # Before the fix both >= and <= were true (NaN probed equal to all).
        ge = db.scalar("SELECT 'nan' >= 5")
        le = db.scalar("SELECT 'nan' <= 5")
        eq = db.scalar("SELECT 'nan' = 5")
        assert not (ge and le and not eq), "NaN-string must not compare equal to everything"
        # Exactly one of <, =, > holds: a deterministic trichotomy.
        lt = db.scalar("SELECT 'nan' < 5")
        gt = db.scalar("SELECT 'nan' > 5")
        assert sum(bool(v) for v in (lt, eq, gt)) == 1

    @pytest.mark.parametrize("text", ["nan", "inf", "Infinity", "-inf", "NAN"])
    def test_non_finite_strings_filtered_like_text(self, db, text):
        # A numeric range predicate must not implicitly cast these strings.
        result = db.sql(f"SELECT label FROM t WHERE value = '{text}' AND value = {7}")
        assert result.num_rows == 0

    def test_numeric_strings_still_cast(self, db):
        assert db.scalar("SELECT '7' >= 5") is True
        assert db.scalar("SELECT ' 7 ' = 7") is True


class TestCompareTotalOrder:
    def test_nan_sorts_after_every_number(self):
        nan = float("nan")
        assert compare_values(nan, 5.0) == 1
        assert compare_values(5.0, nan) == -1
        assert compare_values(nan, float("inf")) == 1
        assert compare_values(float("-inf"), nan) == -1
        assert compare_values(nan, nan) == 0

    def test_infinities_compare_numerically(self):
        assert compare_values(float("inf"), 1e308) == 1
        assert compare_values(float("-inf"), -1e308) == -1
        assert compare_values(float("inf"), float("inf")) == 0

    def test_sort_key_puts_nan_last_in_both_directions(self):
        values = [3.0, float("nan"), 1.0, float("inf"), -2.0]
        ascending = sorted(values, key=lambda v: sort_key(v, False))
        assert math.isnan(ascending[-1])
        assert ascending[:4] == [-2.0, 1.0, 3.0, float("inf")]
        descending = sorted(values, key=lambda v: sort_key(v, True))
        assert math.isnan(descending[-1])
        assert descending[:4] == [float("inf"), 3.0, 1.0, -2.0]

    def test_sort_key_descending_text_keeps_prefixes_in_order(self):
        # sqlite: ORDER BY s DESC over a, ab, abc, b gives b, abc, ab, a.
        values = ["a", "ab", "abc", "b"]
        assert sorted(values, key=lambda v: sort_key(v, True)) == ["b", "abc", "ab", "a"]
        assert sorted(values, key=lambda v: sort_key(v, False)) == ["a", "ab", "abc", "b"]

    def test_sort_key_is_total_over_mixed_types(self):
        # Numbers before text ascending, after it descending (as sqlite);
        # NULL and NaN last in both directions.
        values = [1, "two", None, 3.5, float("nan"), True, "10"]
        ascending = sorted(values, key=lambda v: sort_key(v, False))
        assert ascending[:5] == [1, True, 3.5, "10", "two"]
        assert all(is_null(v) for v in ascending[5:])
        descending = sorted(values, key=lambda v: sort_key(v, True))
        assert descending[:5] == ["two", "10", 3.5, 1, True]
        assert all(is_null(v) for v in descending[5:])

    def test_order_by_descending_text_and_mixed_types(self):
        db = Database()
        db.register(Table.from_dict("s", {"s": ["a", "ab", "abc", "b"]}))
        db.register(Table.from_dict("m", {"v": [1, "two", 3.5, None]}))
        assert db.sql("SELECT s FROM s ORDER BY s DESC").to_dict() == {"s": ["b", "abc", "ab", "a"]}
        ranked = db.sql("SELECT s, ROW_NUMBER() OVER (ORDER BY s DESC) AS rn FROM s")
        assert ranked.to_dict() == {"s": ["a", "ab", "abc", "b"], "rn": [4, 3, 2, 1]}
        assert db.sql("SELECT v FROM m ORDER BY v").to_dict() == {"v": [1, 3.5, "two", None]}
        assert db.sql("SELECT v FROM m ORDER BY v DESC").to_dict() == {"v": ["two", 3.5, 1, None]}

    def test_order_by_sorts_nan_rows_last(self):
        db = Database()
        db.register(
            Table.from_dict("m", {"k": ["a", "b", "c"], "v": [2.0, float("nan"), 1.0]})
        )
        result = db.sql("SELECT k FROM m ORDER BY v")
        assert result.to_dict() == {"k": ["c", "a", "b"]}


class TestLikeEscape:
    def test_parser_produces_like_node_with_escape(self):
        expr = parse_expression("name LIKE '5!%' ESCAPE '!'")
        assert isinstance(expr, Like)
        assert expr.escape is not None

    def test_literal_percent(self, db):
        result = db.sql("SELECT label FROM t WHERE discount LIKE '5!% off' ESCAPE '!'")
        assert result.to_dict() == {"label": ["a"]}

    def test_literal_underscore(self, db):
        result = db.sql("SELECT label FROM t WHERE discount LIKE 'under!_score' ESCAPE '!'")
        assert result.to_dict() == {"label": ["c"]}

    def test_unescaped_wildcards_still_work_alongside_escape(self, db):
        result = db.sql("SELECT label FROM t WHERE discount LIKE '%!%%' ESCAPE '!'")
        assert result.to_dict() == {"label": ["a"]}

    def test_escape_character_escapes_itself(self, db):
        database = Database()
        database.register(Table.from_dict("s", {"x": ["a!b", "ab"]}))
        result = database.sql("SELECT x FROM s WHERE x LIKE 'a!!b' ESCAPE '!'")
        assert result.to_dict() == {"x": ["a!b"]}

    def test_not_like_with_escape(self, db):
        result = db.sql("SELECT label FROM t WHERE discount NOT LIKE '%!%%' ESCAPE '!'")
        assert result.to_dict() == {"label": ["b", "c", "d"]}

    def test_backslash_escape_supported(self, db):
        result = db.sql(r"SELECT label FROM t WHERE discount LIKE '5\% off' ESCAPE '\'")
        assert result.to_dict() == {"label": ["a"]}

    def test_null_escape_is_null(self, db):
        result = db.sql("SELECT label FROM t WHERE discount LIKE '5%' ESCAPE NULL")
        assert result.num_rows == 0

    def test_dangling_escape_raises(self, db):
        with pytest.raises(ExecutionError):
            db.sql("SELECT label FROM t WHERE discount LIKE '5%!' ESCAPE '!'")

    def test_multi_character_escape_raises(self, db):
        with pytest.raises(ExecutionError):
            db.sql("SELECT label FROM t WHERE discount LIKE '5%' ESCAPE '!!'")

    def test_like_without_escape_unchanged(self, db):
        result = db.sql("SELECT label FROM t WHERE discount LIKE '5%'")
        assert result.to_dict() == {"label": ["a", "b"]}

    def test_like_over_aggregates_in_grouped_queries(self, db):
        # Regression: the Like node must recurse through the aggregate
        # evaluator — HAVING MAX(...) LIKE used to work when LIKE was a
        # BinaryOp and must keep working.
        database = Database()
        database.register(
            Table.from_dict("g", {"city": ["ann", "ann", "bo"], "name": ["alpha", "axe", "beta"]})
        )
        result = database.sql(
            "SELECT city FROM g GROUP BY city HAVING MAX(name) LIKE 'a%'"
        )
        assert result.to_dict() == {"city": ["ann"]}
        result = database.sql(
            "SELECT city, MAX(name) LIKE 'a!%' ESCAPE '!' AS m FROM g GROUP BY city"
        )
        assert result.to_dict() == {"city": ["ann", "bo"], "m": [False, False]}

    def test_like_to_regex_plain_behaviour_preserved(self):
        assert _like_to_regex("a%b_c") == "^a.*b.c$"
        assert _like_to_regex("a!%b", "!") == "^a%b$"
        assert _like_to_regex("a!_b", "!") == "^a_b$"
