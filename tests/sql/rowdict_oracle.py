"""Row-dict SQL interpreter: the differential oracle for the columnar engine.

Rows travel through this interpreter as plain dicts (column name -> value,
plus ``alias.column`` keys on join inputs), every expression is walked per
row, and joins are nested loops with the whole ``WHERE`` applied after
them.  It shares the engine's value semantics (:mod:`repro.sql.scalar`,
:mod:`repro.sql.comparison`, :mod:`repro.sql.functions`) and nothing of its
execution strategy, so the engine's vector gathers, compiled closures, hash
joins and predicate pushdown are all checked against the naive reading of
the query.

``RowDictOracle`` is a drop-in :class:`~repro.sql.executor.Executor`;
:func:`check` runs one query on both and asserts identical results, and
``with_oracle.py`` swaps the oracle in for a whole program run.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.dataframe.schema import coerce_value, is_null
from repro.dataframe.table import Table
from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    CaseWhen,
    Cast,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Select,
    Star,
    TableRef,
    UnaryOp,
    WindowFunction,
)
from repro.sql.comparison import sql_equal
from repro.sql.errors import ExecutionError
from repro.sql.executor import Executor
from repro.sql.parser import parse
from repro.sql.functions import AGGREGATE_NAMES, call_scalar, make_aggregate
from repro.sql.planner import plan_select
from repro.sql.scalar import (
    apply_binary,
    apply_unary,
    between,
    hashable,
    like_match,
    sort_key,
    truthy,
)

Row = Dict[str, Any]


def run(catalog: Any, sql: str, executor_class: type) -> Tuple:
    """``("table", result)`` or ``("error", class, message)``."""
    try:
        return ("table", executor_class(catalog).execute(parse(sql)))
    except Exception as error:  # noqa: BLE001 - errors are part of the contract
        return ("error", type(error), str(error))


def check(catalog: Any, sql: str) -> Tuple:
    """Run ``sql`` on the engine and the oracle; assert identical results.

    Tables must agree on column names, row order and every cell — both NULL
    (``is_null`` also covers NaN) or equal with the same type; errors on
    class and message.  Returns the engine's result.
    """
    engine, oracle = run(catalog, sql, Executor), run(catalog, sql, RowDictOracle)
    assert engine[0] == oracle[0], f"{sql!r}: engine produced {engine}, oracle produced {oracle}"
    if engine[0] == "error":
        assert engine[1:] == oracle[1:], f"{sql!r}: error mismatch {engine[1:]} vs {oracle[1:]}"
        return engine
    table_e, table_o = engine[1], oracle[1]
    assert table_e.column_names == table_o.column_names, sql
    assert table_e.num_rows == table_o.num_rows, sql
    for col_e, col_o in zip(table_e.columns, table_o.columns):
        for row, (a, b) in enumerate(zip(col_e.values, col_o.values)):
            if is_null(a) and is_null(b):
                continue
            assert type(a) is type(b) and a == b, (
                f"{sql!r}: cell ({row}, {col_e.name}) differs: {a!r} vs {b!r}"
            )
    return engine


class RowDictOracle(Executor):
    """Runs every SELECT by interpreting the AST over row dicts."""

    def _execute_select(self, select: Select, result_name: str) -> Table:
        plan = plan_select(select)
        rows, source_columns = self._resolve_from(select)
        if select.where is not None:
            rows = [r for r in rows if truthy(self._eval(select.where, r))]

        source_rows: Optional[List[Row]] = None
        if plan.group is not None:
            out_names, out_rows = self._execute_grouped(select, rows)
        else:
            window_values = {id(node): self._evaluate_window(node, rows) for node in plan.windows}
            out_names = self._output_names(select, source_columns)
            out_rows = [
                [
                    value
                    for item in select.items
                    for value in (
                        [row.get(c) for c in source_columns]
                        if isinstance(item.expression, Star)
                        else [self._eval(item.expression, row, window_values, i)]
                    )
                ]
                for i, row in enumerate(rows)
            ]
            source_rows = list(rows)
            if select.qualify is not None:
                keep = [
                    i
                    for i, row in enumerate(rows)
                    if truthy(self._eval(select.qualify, row, window_values, i))
                ]
                out_rows = [out_rows[i] for i in keep]
                source_rows = [source_rows[i] for i in keep]

        if select.distinct:
            source_rows = None
            seen = set()
            deduped = []
            for row in out_rows:
                key = tuple("\0null" if is_null(v) else str(v) for v in row)
                if key not in seen:
                    seen.add(key)
                    deduped.append(row)
            out_rows = deduped

        if select.order_by:
            out_rows = self._order_output(select, out_names, out_rows, source_rows)
        if select.offset is not None:
            out_rows = out_rows[select.offset:]
        if select.limit is not None:
            out_rows = out_rows[: select.limit]
        return Table.from_rows(result_name, out_names, out_rows)

    # -- FROM / JOIN ------------------------------------------------------------
    def _resolve_from(self, select: Select) -> Tuple[List[Row], List[str]]:
        if select.from_table is None:
            # SELECT without FROM evaluates expressions once against an empty row.
            return [{}], []
        rows, columns, _ = self._table_rows(select.from_table, qualify=bool(select.joins))
        for join in select.joins:
            right_rows, right_columns, right_keys = self._table_rows(join.table, qualify=True)
            columns = columns + [c for c in right_columns if c not in columns]
            joined: List[Row] = []
            for lrow in rows:
                matched = False
                for rrow in right_rows:
                    merged = dict(lrow)
                    for key, value in rrow.items():
                        if key not in merged or "." in key:
                            merged[key] = value
                    if truthy(self._eval(join.condition, merged)):
                        matched = True
                        joined.append(merged)
                if not matched and join.kind == "LEFT":
                    padded = dict(lrow)
                    for key in right_keys:
                        padded.setdefault(key, None)
                    joined.append(padded)
            rows = joined
        return rows, columns

    def _table_rows(self, ref: TableRef, qualify: bool) -> Tuple[List[Row], List[str], List[str]]:
        """A FROM item as row dicts, with ``alias.column`` keys when ``qualify``."""
        if ref.subquery is not None:
            table = self._execute_select(ref.subquery, result_name=ref.alias or "subquery")
        else:
            table = self.catalog.get(ref.name)
        names = list(table.column_names)
        keys = list(names)
        if qualify:
            alias = ref.alias or (ref.name if ref.name else table.name)
            keys += [f"{alias}.{name}" for name in names]
        values = [c.values for c in table.columns]
        rows = [dict(zip(keys, cells + cells)) for cells in zip(*values)] if names else []
        return rows, names, keys

    # -- grouping ---------------------------------------------------------------
    def _execute_grouped(self, select: Select, rows: List[Row]) -> Tuple[List[str], List[List[Any]]]:
        groups: Dict[Tuple, List[Row]] = {}
        if select.group_by:
            for row in rows:
                key = tuple(hashable(self._eval(e, row)) for e in select.group_by)
                groups.setdefault(key, []).append(row)
        else:
            groups[()] = list(rows)
        out_rows: List[List[Any]] = []
        for group_rows in groups.values():
            if select.having is not None and not truthy(self._eval_aggregate(select.having, group_rows)):
                continue
            out_rows.append([self._eval_aggregate(item.expression, group_rows) for item in select.items])
        return self._output_names(select, source_columns=[]), out_rows

    def _eval_aggregate(self, expr: Expression, group_rows: List[Row]) -> Any:
        if isinstance(expr, FunctionCall) and expr.name in AGGREGATE_NAMES:
            count_star = len(expr.args) == 1 and isinstance(expr.args[0], Star)
            separator = ","
            if expr.name in ("STRING_AGG", "GROUP_CONCAT") and len(expr.args) > 1:
                if isinstance(expr.args[1], Literal):
                    separator = str(expr.args[1].value)
            agg = make_aggregate(expr.name, distinct=expr.distinct, count_star=count_star, separator=separator)
            for row in group_rows:
                agg.add_checked(1 if count_star else self._eval(expr.args[0], row))
            return agg.result()
        if isinstance(expr, BinaryOp):
            return apply_binary(
                expr.op,
                self._eval_aggregate(expr.left, group_rows),
                self._eval_aggregate(expr.right, group_rows),
            )
        if isinstance(expr, UnaryOp):
            return apply_unary(expr.op, self._eval_aggregate(expr.operand, group_rows))
        if isinstance(expr, Like):
            value = self._eval_aggregate(expr.operand, group_rows)
            pattern = self._eval_aggregate(expr.pattern, group_rows)
            escape = self._eval_aggregate(expr.escape, group_rows) if expr.escape is not None else None
            if is_null(value) or is_null(pattern) or (expr.escape is not None and is_null(escape)):
                return None
            return like_match(value, pattern, escape)
        if isinstance(expr, Cast):
            return coerce_value(self._eval_aggregate(expr.operand, group_rows), expr.target)
        if isinstance(expr, FunctionCall):
            return call_scalar(expr.name, [self._eval_aggregate(a, group_rows) for a in expr.args])
        # A grouping expression is constant per group: evaluate on its first row.
        return self._eval(expr, group_rows[0] if group_rows else {})

    # -- window functions -------------------------------------------------------
    def _evaluate_window(self, node: WindowFunction, rows: List[Row]) -> List[Any]:
        partitions: Dict[Tuple, List[int]] = {}
        for i, row in enumerate(rows):
            key = tuple(hashable(self._eval(e, row)) for e in node.window.partition_by)
            partitions.setdefault(key, []).append(i)
        result: List[Any] = [None] * len(rows)
        name = node.name.upper()
        for indices in partitions.values():
            ordered = indices
            if node.window.order_by:
                ordered = sorted(
                    indices,
                    key=lambda i: tuple(
                        sort_key(self._eval(item.expression, rows[i]), item.descending)
                        for item in node.window.order_by
                    ),
                )
            if name == "ROW_NUMBER":
                for rank, i in enumerate(ordered, start=1):
                    result[i] = rank
            elif name in ("RANK", "DENSE_RANK"):
                prev_key: Any = object()
                rank = dense = 0
                for position, i in enumerate(ordered, start=1):
                    key = tuple(self._eval(item.expression, rows[i]) for item in node.window.order_by)
                    if key != prev_key:
                        dense += 1
                        rank = position
                        prev_key = key
                    result[i] = rank if name == "RANK" else dense
            elif name in ("COUNT", "SUM", "MIN", "MAX", "AVG"):
                star = len(node.args) == 1 and isinstance(node.args[0], Star)
                agg = make_aggregate(name, count_star=star or not node.args)
                for i in ordered:
                    if node.args and not isinstance(node.args[0], Star):
                        agg.add_checked(self._eval(node.args[0], rows[i]))
                    else:
                        agg.add_checked(1)
                total = agg.result()
                for i in ordered:
                    result[i] = total
            else:
                raise ExecutionError(f"Unsupported window function: {node.name}")
        return result

    # -- ORDER BY -----------------------------------------------------------------
    def _order_output(
        self,
        select: Select,
        names: List[str],
        out_rows: List[List[Any]],
        source_rows: Optional[List[Row]],
    ) -> List[List[Any]]:
        name_index = {name: i for i, name in enumerate(names)}

        def key(position: int) -> Tuple:
            row = out_rows[position]
            parts = []
            for item in select.order_by:
                expr = item.expression
                if isinstance(expr, ColumnRef) and expr.name in name_index:
                    value = row[name_index[expr.name]]
                elif isinstance(expr, Literal) and isinstance(expr.value, int):
                    value = row[expr.value - 1]
                elif source_rows is not None:
                    # ORDER BY may reference source columns that were not projected.
                    value = self._eval(expr, source_rows[position])
                else:
                    value = self._eval(expr, dict(zip(names, row)))
                parts.append(sort_key(value, item.descending))
            return tuple(parts)

        order = sorted(range(len(out_rows)), key=key)
        return [out_rows[i] for i in order]

    # -- expressions ------------------------------------------------------------------
    def _eval(
        self,
        expr: Expression,
        row: Row,
        window_values: Optional[Dict[int, List[Any]]] = None,
        row_index: Optional[int] = None,
    ) -> Any:
        def ev(node: Expression) -> Any:
            return self._eval(node, row, window_values, row_index)

        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, ColumnRef):
            key = expr.qualified if expr.table else expr.name
            if key in row:
                return row[key]
            if expr.name in row:
                return row[expr.name]
            raise ExecutionError(f"Unknown column {key!r}; available: {sorted(k for k in row if '.' not in k)}")
        if isinstance(expr, Star):
            raise ExecutionError("'*' is only valid in a select list or COUNT(*)")
        if isinstance(expr, UnaryOp):
            return apply_unary(expr.op, ev(expr.operand))
        if isinstance(expr, BinaryOp):
            if expr.op == "AND":
                left = ev(expr.left)
                if left is False:
                    return False
                right = ev(expr.right)
                if right is False:
                    return False
                if is_null(left) or is_null(right):
                    return None
                return truthy(left) and truthy(right)
            if expr.op == "OR":
                left = ev(expr.left)
                if truthy(left):
                    return True
                right = ev(expr.right)
                if truthy(right):
                    return True
                if is_null(left) or is_null(right):
                    return None
                return False
            return apply_binary(expr.op, ev(expr.left), ev(expr.right))
        if isinstance(expr, Like):
            value, pattern = ev(expr.operand), ev(expr.pattern)
            escape = ev(expr.escape) if expr.escape is not None else None
            if is_null(value) or is_null(pattern) or (expr.escape is not None and is_null(escape)):
                return None
            return like_match(value, pattern, escape)
        if isinstance(expr, IsNull):
            value = ev(expr.operand)
            return (not is_null(value)) if expr.negated else is_null(value)
        if isinstance(expr, InList):
            value = ev(expr.operand)
            if is_null(value):
                return None
            items = [ev(i) for i in expr.items]
            found = any((not is_null(i)) and sql_equal(value, i) for i in items)
            return (not found) if expr.negated else found
        if isinstance(expr, Between):
            return between(ev(expr.operand), ev(expr.low), ev(expr.high), expr.negated)
        if isinstance(expr, CaseWhen):
            return self._eval_case(expr, ev)
        if isinstance(expr, Cast):
            return coerce_value(ev(expr.operand), expr.target)
        if isinstance(expr, WindowFunction):
            if window_values is None or row_index is None or id(expr) not in window_values:
                raise ExecutionError("Window function used outside of a windowed context")
            return window_values[id(expr)][row_index]
        if isinstance(expr, FunctionCall):
            if expr.name in AGGREGATE_NAMES and expr.name not in ("MIN", "MAX"):
                raise ExecutionError(f"Aggregate {expr.name} used outside GROUP BY context")
            return call_scalar(expr.name, [ev(a) for a in expr.args])
        raise ExecutionError(f"Unsupported expression node: {type(expr).__name__}")

    @staticmethod
    def _eval_case(expr: CaseWhen, ev: Any) -> Any:
        if expr.operand is not None:
            subject = ev(expr.operand)
            if all(isinstance(cond, Literal) for cond, _ in expr.whens):
                # Literal branches match by text, the last duplicate winning.
                lookup = {str(cond.value): result for cond, result in expr.whens}
                if not is_null(subject) and str(subject) in lookup:
                    return ev(lookup[str(subject)])
            else:
                for condition, result in expr.whens:
                    candidate = ev(condition)
                    if not is_null(subject) and not is_null(candidate) and sql_equal(subject, candidate):
                        return ev(result)
        else:
            for condition, result in expr.whens:
                if truthy(ev(condition)):
                    return ev(result)
        if expr.default is not None:
            return ev(expr.default)
        return None
