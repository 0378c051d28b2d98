"""Join parity: the engine's hash joins and pushdown vs nested loops.

Every query here runs on the engine (hash join where the ON condition has an
equality, single-side WHERE conjuncts applied below the joins) and on the
row-dict oracle (nested loops, WHERE after the joins) through
``rowdict_oracle.check``: column names, row order, cell types and values, or
error class and message, must be identical.  The cases cover the join
surface the engine has to preserve: INNER/LEFT equi-joins, non-equi joins,
empty inputs, NULL join keys, implicit numeric/string key coercion, residual
predicates, and multi-join chains.
"""

from __future__ import annotations

import random

import pytest

from repro.dataframe import Table
from repro.sql import Database
from repro.sql.errors import ExecutionError
from rowdict_oracle import check


def _database(tables) -> Database:
    db = Database()
    for table in tables:
        db.register(table)
    return db


def run_both(tables, query):
    """Run ``query`` on the engine and the oracle; assert parity."""
    result = check(_database(tables).catalog, query)
    assert result[0] == "table", result
    return result[1]


@pytest.fixture
def orders():
    return Table.from_dict(
        "orders",
        {
            "order_id": [1, 2, 3, 4, 5, 6],
            "customer": ["ann", "bob", "ann", None, "eve", "dan"],
            "amount": [10, 25, 40, 5, 60, 15],
        },
    )


@pytest.fixture
def customers():
    return Table.from_dict(
        "customers",
        {
            "customer": ["ann", "bob", "cid", None],
            "city": ["NY", "LA", "SF", "XX"],
        },
    )


class TestEquiJoinParity:
    def test_inner_equi_join(self, orders, customers):
        result = run_both(
            [orders, customers],
            "SELECT o.order_id, o.customer, c.city FROM orders o JOIN customers c ON o.customer = c.customer",
        )
        assert result.num_rows == 3  # ann twice, bob once; NULL keys never match

    def test_left_equi_join(self, orders, customers):
        result = run_both(
            [orders, customers],
            "SELECT o.order_id, c.city FROM orders o LEFT JOIN customers c ON o.customer = c.customer",
        )
        assert result.num_rows == 6
        unmatched = [r for r in result.rows() if r["city"] is None]
        assert len(unmatched) == 3  # the NULL-key row, 'eve', and 'dan'

    def test_duplicate_keys_fan_out(self):
        left = Table.from_dict("l", {"k": ["a", "a", "b"], "lv": [1, 2, 3]})
        right = Table.from_dict("r", {"k": ["a", "a", "a", "b"], "rv": [10, 20, 30, 40]})
        result = run_both([left, right], "SELECT l.lv, r.rv FROM l JOIN r ON l.k = r.k")
        assert result.num_rows == 7

    def test_build_side_smaller_left(self):
        # Left much smaller than right: the hash table is built on the left.
        left = Table.from_dict("l", {"k": [1, 2], "lv": ["x", "y"]})
        right = Table.from_dict(
            "r", {"k": [2, 1, 2, 3, 1, 1, 2, 9, 9, 9], "rv": list(range(10))}
        )
        result = run_both([left, right], "SELECT l.lv, r.rv FROM l JOIN r ON l.k = r.k")
        assert result.num_rows == 6

    def test_numeric_string_key_coercion(self):
        # '=' implicitly casts number-vs-numeric-string; the hash join must too.
        left = Table.from_dict("l", {"k": [1, 2, 3, 4], "lv": ["a", "b", "c", "d"]})
        right = Table.from_dict("r", {"k": ["1.0", "2", "x", "04"], "rv": ["p", "q", "r", "s"]})
        result = run_both([left, right], "SELECT l.lv, r.rv FROM l JOIN r ON l.k = r.k")
        assert result.num_rows == 3  # 1='1.0', 2='2', 4='04'

    def test_string_string_keys_stay_textual(self):
        # Two strings never compare numerically: '5' <> '5.0'.
        left = Table.from_dict("l", {"k": ["5", "6"], "lv": ["a", "b"]})
        right = Table.from_dict("r", {"k": ["5.0", "6"], "rv": ["p", "q"]})
        result = run_both([left, right], "SELECT l.lv, r.rv FROM l JOIN r ON l.k = r.k")
        assert result.num_rows == 1

    def test_boolean_keys_match_numbers_and_their_text_form(self):
        # '=' matches a bool against 1/0, '1.0'/'0', AND 'True'/'False' (the
        # str() fallback); the hash join must find all of them.
        left = Table.from_dict("l", {"k": [True, False, True, False], "lv": [1, 2, 3, 4]})
        right = Table.from_dict(
            "r", {"k": ["True", "False", 1, 0, "1.0", "x", True], "rv": list(range(7))}
        )
        result = run_both([left, right], "SELECT l.lv, r.rv FROM l JOIN r ON l.k = r.k")
        # Each True row matches 'True', 1, '1.0', True; each False row
        # matches 'False', 0 — (4 + 2) matches x 2 rows per bool.
        assert result.num_rows == 12

    def test_null_keys_never_match(self):
        left = Table.from_dict("l", {"k": [None, None, 1], "lv": [1, 2, 3]})
        right = Table.from_dict("r", {"k": [None, 1], "rv": ["a", "b"]})
        inner = run_both([left, right], "SELECT l.lv, r.rv FROM l JOIN r ON l.k = r.k")
        assert inner.num_rows == 1
        outer = run_both([left, right], "SELECT l.lv, r.rv FROM l LEFT JOIN r ON l.k = r.k")
        assert outer.num_rows == 3


class TestResidualAndNonEquiParity:
    def test_equi_plus_residual_predicate(self, orders, customers):
        run_both(
            [orders, customers],
            "SELECT o.order_id, c.city FROM orders o JOIN customers c "
            "ON o.customer = c.customer AND o.amount > 20",
        )

    def test_two_equalities_second_is_residual(self):
        left = Table.from_dict("l", {"a": [1, 1, 2], "b": ["x", "y", "x"], "lv": [1, 2, 3]})
        right = Table.from_dict("r", {"a": [1, 1, 2], "b": ["x", "x", "z"], "rv": [7, 8, 9]})
        result = run_both(
            [left, right], "SELECT l.lv, r.rv FROM l JOIN r ON l.a = r.a AND l.b = r.b"
        )
        assert result.num_rows == 2

    def test_left_join_residual_null_pads(self):
        left = Table.from_dict("l", {"k": [1, 2], "lv": ["a", "b"]})
        right = Table.from_dict("r", {"k": [1, 2], "rv": [5, 50]})
        result = run_both(
            [left, right],
            "SELECT l.lv, r.rv FROM l LEFT JOIN r ON l.k = r.k AND r.rv > 10",
        )
        assert result.num_rows == 2
        assert result.to_dict()["rv"] == [None, 50]

    def test_pure_non_equi_join_falls_back(self):
        left = Table.from_dict("l", {"v": [1, 5, 9]})
        right = Table.from_dict("r", {"w": [2, 6]})
        result = run_both([left, right], "SELECT l.v, r.w FROM l JOIN r ON l.v < r.w")
        assert result.num_rows == 3

    def test_or_condition_is_not_hashed(self):
        left = Table.from_dict("l", {"k": [1, 2], "v": [2, 9]})
        right = Table.from_dict("r", {"k": [1, 3], "w": [9, 2]})
        run_both([left, right], "SELECT * FROM l JOIN r ON l.k = r.k OR l.v = r.w")

    def test_same_side_equality_is_residual_not_hash_key(self):
        # l.k = l.v references only the left input; it must filter, not hash.
        left = Table.from_dict("l", {"k": [1, 2], "v": [1, 9]})
        right = Table.from_dict("r", {"k": [1, 2], "w": ["a", "b"]})
        result = run_both(
            [left, right], "SELECT l.k, r.w FROM l JOIN r ON l.k = r.k AND l.k = l.v"
        )
        assert result.num_rows == 1


class TestEmptyInputParity:
    def test_empty_right_inner(self, orders):
        empty = Table.from_dict("customers", {"customer": [], "city": []})
        result = run_both([orders, empty], "SELECT o.order_id, c.city FROM orders o JOIN customers c ON o.customer = c.customer")
        assert result.num_rows == 0
        assert result.column_names == ["order_id", "city"]

    def test_empty_right_left_join_keeps_right_schema(self, orders):
        # The pre-overhaul executor dropped the right side's columns entirely
        # when the right table was empty; they must null-pad instead.
        empty = Table.from_dict("customers", {"customer": [], "city": []})
        result = run_both(
            [orders, empty],
            "SELECT o.order_id, c.city FROM orders o LEFT JOIN customers c ON o.customer = c.customer",
        )
        assert result.num_rows == 6
        assert result.to_dict()["city"] == [None] * 6

    def test_empty_input_never_evaluates_key_expressions(self, customers):
        # The nested loop never evaluates the ON condition when either side
        # is empty; the hash join must not evaluate its key expressions
        # either — `-city` would raise on the string column.
        empty = Table.from_dict("orders", {"customer": [], "amount": []})
        result = run_both(
            [empty, customers],
            "SELECT o.amount FROM orders o JOIN customers c ON o.amount = -c.city",
        )
        assert result.num_rows == 0
        empty_right = Table.from_dict("r", {"city": [], "rid": []})
        result = run_both(
            [customers, empty_right],
            "SELECT c.customer, r.rid FROM customers c LEFT JOIN r ON -c.city = r.rid",
        )
        assert result.num_rows == 4
        assert result.to_dict()["rid"] == [None] * 4

    def test_empty_left(self, customers):
        empty = Table.from_dict("orders", {"customer": [], "amount": []})
        for kind in ("JOIN", "LEFT JOIN"):
            result = run_both(
                [empty, customers],
                f"SELECT o.amount, c.city FROM orders o {kind} customers c ON o.customer = c.customer",
            )
            assert result.num_rows == 0


class TestPushdownParity:
    def test_left_side_where_pushdown(self, orders, customers):
        run_both(
            [orders, customers],
            "SELECT o.order_id, c.city FROM orders o JOIN customers c "
            "ON o.customer = c.customer WHERE o.amount > 20",
        )

    def test_right_side_where_pushdown_inner(self, orders, customers):
        run_both(
            [orders, customers],
            "SELECT o.order_id, c.city FROM orders o JOIN customers c "
            "ON o.customer = c.customer WHERE c.city = 'NY'",
        )

    def test_right_side_where_not_pushed_below_left_join(self, orders, customers):
        # WHERE on the right side of a LEFT JOIN filters null-padded rows; a
        # naive pushdown would keep them.
        result = run_both(
            [orders, customers],
            "SELECT o.order_id, c.city FROM orders o LEFT JOIN customers c "
            "ON o.customer = c.customer WHERE c.city = 'NY'",
        )
        assert result.num_rows == 2

    def test_is_null_probe_survives_left_join(self, orders, customers):
        # The anti-join idiom: IS NULL on the right side references the padded
        # value, so it must never be pushed below the LEFT join.
        result = run_both(
            [orders, customers],
            "SELECT o.order_id FROM orders o LEFT JOIN customers c "
            "ON o.customer = c.customer WHERE c.city IS NULL",
        )
        assert result.num_rows == 3  # the NULL-key row, 'eve', and 'dan'

    def test_mixed_where_splits_by_side(self, orders, customers):
        run_both(
            [orders, customers],
            "SELECT o.order_id, c.city FROM orders o JOIN customers c "
            "ON o.customer = c.customer "
            "WHERE o.amount > 5 AND c.city <> 'SF' AND o.order_id < c.order_id + 100",
        )

    def test_ambiguous_unqualified_column_stays_post_join(self):
        # 'customer' exists on both sides; the merged row resolves it to the
        # left value, and pushdown must not change that.
        left = Table.from_dict("l", {"customer": ["a", "b"], "v": [1, 2]})
        right = Table.from_dict("r", {"customer": ["b", "B"], "w": [8, 9]})
        run_both(
            [left, right],
            "SELECT * FROM l JOIN r ON l.v < r.w WHERE customer = 'b'",
        )


class TestMultiJoinParity:
    def test_three_way_chain(self):
        a = Table.from_dict("a", {"id": [1, 2, 3], "av": ["x", "y", "z"]})
        b = Table.from_dict("b", {"id": [2, 3, 4], "bv": ["p", "q", "r"]})
        c = Table.from_dict("c", {"id": [3, 4], "cv": ["m", "n"]})
        result = run_both(
            [a, b, c],
            "SELECT a.av, b.bv, c.cv FROM a JOIN b ON a.id = b.id LEFT JOIN c ON b.id = c.id",
        )
        assert result.num_rows == 2

    def test_chain_with_where_on_middle_table(self):
        a = Table.from_dict("a", {"id": [1, 2, 3, 4], "av": ["w", "x", "y", "z"]})
        b = Table.from_dict("b", {"id": [1, 2, 3], "bv": [10, 20, 30]})
        c = Table.from_dict("c", {"id": [1, 3], "cv": ["m", "n"]})
        run_both(
            [a, b, c],
            "SELECT a.av, b.bv, c.cv FROM a JOIN b ON a.id = b.id "
            "JOIN c ON a.id = c.id WHERE b.bv >= 20",
        )

    def test_subquery_join_input(self, orders, customers):
        run_both(
            [orders, customers],
            "SELECT o.order_id, c.city FROM orders o "
            "JOIN (SELECT customer, city FROM customers WHERE city <> 'XX') c "
            "ON o.customer = c.customer",
        )


class TestRandomisedParity:
    def test_randomised_equi_joins(self):
        rng = random.Random(7)
        for trial in range(5):
            n_left, n_right = rng.randint(0, 40), rng.randint(0, 40)
            key_pool = [None, 1, 2, 3, "3", "3.0", 4.0, "x", ""]
            left = Table.from_dict(
                "l",
                {
                    "k": [rng.choice(key_pool) for _ in range(n_left)],
                    "lv": list(range(n_left)),
                },
            )
            right = Table.from_dict(
                "r",
                {
                    "k": [rng.choice(key_pool) for _ in range(n_right)],
                    "rv": list(range(n_right)),
                },
            )
            for kind in ("JOIN", "LEFT JOIN"):
                run_both(
                    [left, right],
                    f"SELECT l.k, l.lv, r.rv FROM l {kind} r ON l.k = r.k",
                )

    def test_projection_star_after_join(self, orders, customers):
        run_both(
            [orders, customers],
            "SELECT * FROM orders o JOIN customers c ON o.customer = c.customer",
        )

    def test_aggregation_over_join(self, orders, customers):
        run_both(
            [orders, customers],
            "SELECT c.city, COUNT(*) AS n, SUM(o.amount) AS total "
            "FROM orders o JOIN customers c ON o.customer = c.customer "
            "GROUP BY c.city ORDER BY n DESC, c.city",
        )


class TestScanKeyHygiene:
    def test_single_table_star_has_no_qualified_duplicates(self, orders):
        result = run_both([orders], "SELECT * FROM orders o")
        assert result.column_names == ["order_id", "customer", "amount"]

    def test_qualified_reference_still_resolves_without_join(self, orders):
        result = run_both([orders], "SELECT o.amount FROM orders o WHERE o.order_id = 2")
        assert result.to_dict() == {"amount": [25]}

    def test_unknown_column_still_raises(self, orders):
        db = _database([orders])
        with pytest.raises(ExecutionError):
            db.sql("SELECT missing FROM orders")
        result = check(db.catalog, "SELECT o.missing FROM orders o JOIN orders p ON o.order_id = p.order_id")
        assert result[:2] == ("error", ExecutionError)


class TestJoinNameResolution:
    """``alias.column`` first, then the bare name; the first input wins a bare-name clash."""

    @pytest.fixture
    def tables(self):
        return [
            Table.from_dict("l", {"k": [1, 2, 3], "v": ["a", "b", "c"]}),
            Table.from_dict("r", {"k": [3, 1, 1], "v": ["x", "y", "z"]}),
        ]

    @pytest.mark.parametrize(
        "query",
        [
            "SELECT k, v, r.v AS rv FROM l JOIN r ON l.k = r.k",
            "SELECT q.k, r.k AS rk FROM l JOIN r ON l.k = r.k",
            "SELECT * FROM l LEFT JOIN r ON l.k = r.k WHERE v <> 'c'",
            # A repeated table name: `r.v` takes the right input's value on
            # matched rows and keeps the left input's on padded rows.
            "SELECT l.k, r.v FROM l JOIN r ON l.k = r.k LEFT JOIN r ON r.k = 3",
            "SELECT l.k, r.v FROM l JOIN r ON l.k = r.k LEFT JOIN r ON r.k = 4",
            "SELECT r.k, r.v FROM r LEFT JOIN r ON r.v = 'y'",
            "SELECT r.k, r.v FROM r LEFT JOIN r ON r.v = 'q'",
            "SELECT sub.k, r.v FROM (SELECT k FROM l WHERE k > 1) sub JOIN r ON sub.k = r.k",
        ],
    )
    def test_resolution_matches_oracle(self, tables, query):
        run_both(tables, query)

    def test_key_expression_errors_match(self, tables):
        result = check(_database(tables).catalog, "SELECT l.k FROM l JOIN r ON l.k = r.nope")
        assert result[:2] == ("error", ExecutionError)
