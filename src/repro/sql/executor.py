"""Query executor: evaluates parsed statements against the catalog.

Every SELECT is first **planned** (:func:`repro.sql.planner.plan_select`)
into an explicit stage pipeline, then run over column vectors: each
predicate and expression is compiled *once per query* into a closure by
:mod:`repro.sql.compiler`, filters gather vectors by index, projection
reuses source vectors where it can, and rows stay indices into parallel
vectors until the output table is built.

The FROM clause becomes one binding (column names plus parallel vectors):

* a single table or derived subquery binds its columns by bare name;
* a SELECT without FROM binds one row of no columns, so its expressions
  evaluate exactly once;
* a ``JOIN`` chain binds the joined rows under both bare and
  ``alias.column`` names.  ``WHERE`` conjuncts that read one input only are
  applied to that input first (left-side conjuncts below any join,
  right-side ones below ``INNER`` joins only, since filtering the right
  input of a ``LEFT`` join would change its null-padding).  Each join then
  builds ``(left, right)`` row-index pairs — through a hash index when the
  ``ON`` condition has an equality between the two sides, over all pairs
  otherwise — keeps the pairs whose remaining condition holds, pads
  unmatched ``LEFT`` rows with NULL, and gathers the joined vectors.

The rest of the pipeline (filter → group → window → project → qualify →
distinct → order → limit) is the same for all three, and every stage emits
an observability span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.dataframe.column import Column
from repro.dataframe.schema import is_null
from repro.dataframe.table import Table
from repro.obs import span as obs_span
from repro.sql.ast_nodes import (
    BinaryOp,
    CaseWhen,
    Cast,
    ColumnRef,
    CreateTableAs,
    DropTable,
    Expression,
    FunctionCall,
    Join,
    Literal,
    Select,
    Star,
    Statement,
    TableRef,
    WindowFunction,
    children,
)
from repro.sql.catalog import Catalog
from repro.sql.compiler import ColumnarBinding
from repro.sql.errors import ExecutionError
from repro.sql.functions import AGGREGATE_NAMES, make_aggregate
from repro.sql.planner import plan_select
from repro.sql.scalar import hashable, sort_key, truthy


@dataclass
class _Input:
    """One FROM input, or the running result of a JOIN chain, as vectors.

    ``names`` maps to ``vectors`` one to one and holds the bare column
    names plus, on join inputs, their ``alias.column`` forms; ``n`` is the
    row count and ``star`` lists the bare names ``SELECT *`` expands to.
    """

    names: List[str]
    vectors: List[List[Any]]
    n: int
    star: List[str]


class Executor:
    """Evaluates statements produced by :mod:`repro.sql.parser`.

    ``catalog`` is the table registry queries resolve names against.
    """

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    # -- public API -----------------------------------------------------------
    def execute(self, statement: Statement) -> Optional[Table]:
        if isinstance(statement, Select):
            return self._execute_select(statement, result_name="result")
        if isinstance(statement, CreateTableAs):
            table = self._execute_select(statement.query, result_name=statement.name)
            self.catalog.register(table, replace=statement.or_replace)
            return table
        if isinstance(statement, DropTable):
            self.catalog.drop(statement.name, if_exists=statement.if_exists)
            return None
        raise ExecutionError(f"Unsupported statement type: {type(statement).__name__}")

    # -- SELECT pipeline --------------------------------------------------------
    def _execute_select(self, select: Select, result_name: str) -> Table:
        """Plan ``select`` and run its stages over column vectors.

        Expressions are compiled once per query (see
        :class:`repro.sql.compiler.ColumnarBinding`); rows are represented
        as an index into parallel vectors until the very end.
        """
        plan = plan_select(select)
        where = plan.filter.predicate if plan.filter is not None else None
        if plan.scan is None:
            # SELECT without FROM: one row of no columns.
            source = _Input([], [], 1, [])
        elif not plan.joins:
            source = self._scan(plan.scan.ref)
        else:
            source, where = self._join(select)
        names, vectors, n, star = source.names, source.vectors, source.n, source.star

        if where is not None:
            predicate = ColumnarBinding(names, vectors).compile(where)
            with obs_span("sql.filter", rows_in=n) as sp:
                keep = [i for i in range(n) if truthy(predicate(i))]
                if len(keep) != n:
                    vectors = [[vec[i] for i in keep] for vec in vectors]
                n = len(keep)
                sp.annotate(rows_out=n)

        binding = ColumnarBinding(names, vectors)

        if plan.group is not None:
            with obs_span("sql.aggregate", rows_in=n, group_keys=len(select.group_by)) as sp:
                out_names, out_rows = self._grouped(select, binding, n)
                sp.annotate(rows_out=len(out_rows))
            return self._finish_rows(select, result_name, out_names, out_rows, binding, positions=None)

        window_values: Dict[int, List[Any]] = {}
        if plan.windows:
            with obs_span("sql.window", functions=len(plan.windows), rows_in=n):
                for node in plan.windows:
                    window_values[id(node)] = self._window(node, binding, n)

        with obs_span("sql.project", rows_in=n) as sp:
            out_names = self._output_names(select, star)
            out_vectors: List[List[Any]] = []
            for item in select.items:
                if isinstance(item.expression, Star):
                    out_vectors.extend(vectors[: len(star)])
                    continue
                if isinstance(item.expression, ColumnRef):
                    vec = binding.vector_for(item.expression)
                    if vec is not None:
                        out_vectors.append(vec)
                        continue
                fn = binding.compile(item.expression, windows=window_values)
                out_vectors.append([fn(i) for i in range(n)])
            sp.annotate(columns=len(out_names))

        # `positions` maps output rows back to source rows for ORDER BY
        # expressions that reference unprojected columns.
        positions: Optional[List[int]] = list(range(n))
        if select.qualify is not None:
            qualify_fn = binding.compile(select.qualify, windows=window_values)
            with obs_span("sql.qualify", rows_in=n) as sp:
                keep = [i for i in range(n) if truthy(qualify_fn(i))]
                if len(keep) != n:
                    out_vectors = [[vec[i] for i in keep] for vec in out_vectors]
                positions = keep
                sp.annotate(rows_out=len(keep))

        if select.distinct or select.order_by:
            out_rows = [list(cells) for cells in zip(*out_vectors)]
            return self._finish_rows(select, result_name, out_names, out_rows, binding, positions)

        # Pure vector tail: slice and build columns directly (no transpose).
        if select.offset is not None:
            out_vectors = [vec[select.offset:] for vec in out_vectors]
        if select.limit is not None:
            out_vectors = [vec[: select.limit] for vec in out_vectors]
        return Table(result_name, [Column(name, vec) for name, vec in zip(out_names, out_vectors)])

    def _finish_rows(
        self,
        select: Select,
        result_name: str,
        out_names: List[str],
        out_rows: List[List[Any]],
        binding: ColumnarBinding,
        positions: Optional[List[int]],
    ) -> Table:
        """Row-major tail of the pipeline: DISTINCT, ORDER BY, LIMIT."""
        if select.distinct:
            with obs_span("sql.distinct", rows_in=len(out_rows)) as sp:
                positions = None
                seen = set()
                deduped = []
                for row in out_rows:
                    key = tuple("\0null" if is_null(v) else str(v) for v in row)
                    if key in seen:
                        continue
                    seen.add(key)
                    deduped.append(row)
                out_rows = deduped
                sp.annotate(rows_out=len(out_rows))

        if select.order_by:
            with obs_span("sql.sort", rows_in=len(out_rows), keys=len(select.order_by)):
                out_rows = self._order(select, out_names, out_rows, binding, positions)

        if select.offset is not None:
            out_rows = out_rows[select.offset:]
        if select.limit is not None:
            out_rows = out_rows[: select.limit]
        return Table.from_rows(result_name, out_names, out_rows)

    def _order(
        self,
        select: Select,
        names: List[str],
        out_rows: List[List[Any]],
        binding: ColumnarBinding,
        positions: Optional[List[int]],
    ) -> List[List[Any]]:
        """ORDER BY over the output rows.

        Each key resolves once per query: projected columns and ordinal
        positions read the output row; other expressions compile against
        the source vectors (without window context) while source positions
        survive, else — after DISTINCT or GROUP BY — against the output
        columns.
        """
        name_index = {name: i for i, name in enumerate(names)}
        output: Optional[ColumnarBinding] = None
        resolvers: List[Tuple[str, Any]] = []
        for item in select.order_by:
            expr = item.expression
            if isinstance(expr, ColumnRef) and expr.name in name_index:
                resolvers.append(("out", name_index[expr.name]))
            elif isinstance(expr, Literal) and isinstance(expr.value, int):
                resolvers.append(("out", expr.value - 1))
            elif positions is not None:
                resolvers.append(("src", binding.compile(expr)))
            else:
                if output is None:
                    output = ColumnarBinding(
                        names, [[row[c] for row in out_rows] for c in range(len(names))]
                    )
                resolvers.append(("row", output.compile(expr)))

        def key(position: int) -> Tuple:
            row = out_rows[position]
            parts = []
            for (kind, target), item in zip(resolvers, select.order_by):
                if kind == "out":
                    value = row[target]
                elif kind == "src":
                    value = target(positions[position])
                else:
                    value = target(position)
                parts.append(sort_key(value, item.descending))
            return tuple(parts)

        order = sorted(range(len(out_rows)), key=key)
        return [out_rows[i] for i in order]

    def _grouped(
        self, select: Select, binding: ColumnarBinding, n: int
    ) -> Tuple[List[str], List[List[Any]]]:
        """GROUP BY over vectors: groups hold row indices, aggregates fold them."""
        groups: Dict[Tuple, List[int]] = {}
        order: List[Tuple] = []
        if select.group_by:
            key_fns = [binding.compile(e) for e in select.group_by]
            for i in range(n):
                key = tuple(hashable(fn(i)) for fn in key_fns)
                if key not in groups:
                    groups[key] = []
                    order.append(key)
                groups[key].append(i)
        else:
            groups[()] = list(range(n))
            order.append(())

        names = self._output_names(select, source_columns=[])
        item_fns = [binding.compile_aggregate(item.expression) for item in select.items]
        having_fn = binding.compile_aggregate(select.having) if select.having is not None else None
        out_rows: List[List[Any]] = []
        for key in order:
            indices = groups[key]
            if having_fn is not None and not truthy(having_fn(indices)):
                continue
            out_rows.append([fn(indices) for fn in item_fns])
        return names, out_rows

    def _window(self, node: WindowFunction, binding: ColumnarBinding, n: int) -> List[Any]:
        """One window function over vectors."""
        partition_fns = [binding.compile(e) for e in node.window.partition_by]
        order_fns = [binding.compile(item.expression) for item in node.window.order_by]
        partitions: Dict[Tuple, List[int]] = {}
        for i in range(n):
            key = tuple(hashable(fn(i)) for fn in partition_fns)
            partitions.setdefault(key, []).append(i)
        result: List[Any] = [None] * n
        name = node.name.upper()
        arg_fn = None
        if name in ("COUNT", "SUM", "MIN", "MAX", "AVG"):
            if node.args and not isinstance(node.args[0], Star):
                arg_fn = binding.compile(node.args[0])
        for indices in partitions.values():
            ordered = indices
            if node.window.order_by:
                ordered = sorted(
                    indices,
                    key=lambda i: tuple(
                        sort_key(fn(i), item.descending)
                        for fn, item in zip(order_fns, node.window.order_by)
                    ),
                )
            if name == "ROW_NUMBER":
                for rank, i in enumerate(ordered, start=1):
                    result[i] = rank
            elif name in ("RANK", "DENSE_RANK"):
                prev_key: Any = object()
                rank = 0
                dense = 0
                for position, i in enumerate(ordered, start=1):
                    # Tie detection uses raw expression values, not sort keys.
                    key = tuple(fn(i) for fn in order_fns)
                    if key != prev_key:
                        dense += 1
                        rank = position
                        prev_key = key
                    result[i] = rank if name == "RANK" else dense
            elif name in ("COUNT", "SUM", "MIN", "MAX", "AVG"):
                agg = make_aggregate(
                    name,
                    count_star=(len(node.args) == 1 and isinstance(node.args[0], Star)) or not node.args,
                )
                for i in ordered:
                    agg.add_checked(arg_fn(i) if arg_fn is not None else 1)
                total = agg.result()
                for i in ordered:
                    result[i] = total
            else:
                raise ExecutionError(f"Unsupported window function: {node.name}")
        return result

    # -- FROM / JOIN ------------------------------------------------------------
    def _scan(self, ref: TableRef) -> _Input:
        """Materialise one FROM item, its columns bound by bare name."""
        with obs_span("sql.scan", source=ref.name or (ref.alias or "subquery")) as sp:
            if ref.subquery is not None:
                table = self._execute_select(ref.subquery, result_name=ref.alias or "subquery")
            else:
                table = self.catalog.get(ref.name)
            names = list(table.column_names)
            vectors: List[List[Any]] = [c.values for c in table.columns]
            # A zero-column table has no rows to scan.
            n = len(vectors[0]) if vectors else 0
            sp.annotate(rows_out=n)
        return _Input(names, vectors, n, names)

    def _join_input(self, ref: TableRef) -> _Input:
        """Scan a join input, binding each column under ``alias.column`` too."""
        source = self._scan(ref)
        alias = ref.alias or ref.name or "subquery"
        qualified = [f"{alias}.{name}" for name in source.names]
        return _Input(source.names + qualified, source.vectors * 2, source.n, source.names)

    def _join(self, select: Select) -> Tuple[_Input, Optional[Expression]]:
        """Scan every FROM input and run the JOIN chain.

        Returns the joined input and the residual WHERE predicate: the
        conjuncts pushed below the joins have already been applied.
        """
        inputs = [self._join_input(select.from_table)]
        inputs.extend(self._join_input(join.table) for join in select.joins)

        where = select.where
        if where is not None:
            key_sets = [frozenset(side.names) for side in inputs]
            residual: List[Expression] = []
            pushed: List[List[Expression]] = [[] for _ in inputs]
            for conjunct in _split_conjuncts(where):
                side = _sole_side(conjunct, key_sets)
                if side == 0 or (side is not None and select.joins[side - 1].kind == "INNER"):
                    pushed[side].append(conjunct)
                else:
                    residual.append(conjunct)
            for side, predicates in zip(inputs, pushed):
                if predicates:
                    _filter_input(side, _conjoin(predicates))
            where = _conjoin(residual)

        left = inputs[0]
        for join, right in zip(select.joins, inputs[1:]):
            equi, residual_on = _extract_equi_predicates(
                join.condition, frozenset(left.names), frozenset(right.names)
            )
            with obs_span(
                "sql.join",
                kind=join.kind,
                strategy="hash" if equi else "nested_loop",
                rows_left=left.n,
                rows_right=right.n,
            ) as sp:
                left = _join_pair(left, right, join, equi, residual_on)
                sp.annotate(rows_out=left.n)
        return left, where

    def _output_names(self, select: Select, source_columns: List[str]) -> List[str]:
        names: List[str] = []
        for item in select.items:
            if isinstance(item.expression, Star):
                names.extend(source_columns)
                continue
            if item.alias:
                names.append(item.alias)
            elif isinstance(item.expression, ColumnRef):
                names.append(item.expression.name)
            else:
                names.append(_expression_label(item.expression, len(names)))
        # De-duplicate while preserving order (SQL allows duplicate output names; Table does not).
        seen: Dict[str, int] = {}
        unique: List[str] = []
        for name in names:
            if name in seen:
                seen[name] += 1
                unique.append(f"{name}_{seen[name]}")
            else:
                seen[name] = 0
                unique.append(name)
        return unique


# --------------------------------------------------------------------------
# joins
# --------------------------------------------------------------------------
def _filter_input(side: _Input, predicate: Expression) -> None:
    """Keep the rows of a join input where ``predicate`` holds."""
    fn = ColumnarBinding(side.names, side.vectors).compile(predicate)
    keep = [i for i in range(side.n) if truthy(fn(i))]
    if len(keep) != side.n:
        gathered = {id(vec): [vec[i] for i in keep] for vec in side.vectors}
        side.vectors = [gathered[id(vec)] for vec in side.vectors]
        side.n = len(keep)


def _join_pair(
    left: _Input,
    right: _Input,
    join: Join,
    equi: List[Tuple[Expression, Expression]],
    residual: List[Expression],
) -> _Input:
    """Join two inputs into one, in left-major, then right, row order.

    The first extracted equality supplies the hash key, with the index
    built on the right input; every further conjunct (equality or not) is
    checked on the candidate pairs.  Without an equality every pair is a
    candidate and the whole ON condition is checked.  Key expressions are
    never evaluated when either input is empty.
    """
    left_rows: List[int] = []
    right_rows: List[int] = []
    if left.n and right.n:
        if equi:
            left_expr, right_expr = equi[0]
            residual = [BinaryOp("=", l, r) for l, r in equi[1:]] + residual
            right_key = ColumnarBinding(right.names, right.vectors).compile(right_expr)
            index: Dict[Tuple[str, Any], List[int]] = {}
            for j in range(right.n):
                for key in _hash_keys_build(right_key(j)):
                    index.setdefault(key, []).append(j)
            left_key = ColumnarBinding(left.names, left.vectors).compile(left_expr)
            for i in range(left.n):
                matches = _probe(index, left_key(i))
                left_rows.extend([i] * len(matches))
                right_rows.extend(matches)
        else:
            residual = [join.condition]
            left_rows = [i for i in range(left.n) for _ in range(right.n)]
            right_rows = list(range(right.n)) * left.n
        if residual:
            candidates = _gather(left, right, left_rows, right_rows)
            condition = _conjoin(residual)
            holds = ColumnarBinding(candidates.names, candidates.vectors).compile(condition)
            keep = [p for p in range(candidates.n) if truthy(holds(p))]
            left_rows = [left_rows[p] for p in keep]
            right_rows = [right_rows[p] for p in keep]
    if join.kind != "LEFT":
        return _gather(left, right, left_rows, right_rows)

    # LEFT join: a left row without a surviving pair pads the right with NULL.
    padded_left: List[int] = []
    padded_right: List[Optional[int]] = []
    p = 0
    for i in range(left.n):
        start = p
        while p < len(left_rows) and left_rows[p] == i:
            p += 1
        if p == start:
            padded_left.append(i)
            padded_right.append(None)
        else:
            padded_left.extend(left_rows[start:p])
            padded_right.extend(right_rows[start:p])
    return _gather(left, right, padded_left, padded_right)


def _gather(
    left: _Input, right: _Input, left_rows: List[int], right_rows: Sequence[Optional[int]]
) -> _Input:
    """The joined input holding the ``(left_rows[p], right_rows[p])`` pairs.

    A ``None`` right row is a NULL-padded LEFT-join miss.  Names resolve as
    merging the two rows would: a bare name keeps the first input's column,
    and an ``alias.column`` name repeated across inputs takes the right
    input's value, except on padded rows.
    """
    merged = dict(zip(left.names, _take(left.vectors, left_rows)))
    for name, vec in zip(right.names, _take(right.vectors, right_rows)):
        if name not in merged:
            merged[name] = vec
        elif "." in name:
            merged[name] = [l if j is None else r for l, r, j in zip(merged[name], vec, right_rows)]
    star = left.star + [c for c in right.star if c not in left.star]
    bare = set(star)
    names = star + [name for name in merged if name not in bare]
    return _Input(names, [merged[name] for name in names], len(left_rows), star)


def _take(vectors: List[List[Any]], rows: Sequence[Optional[int]]) -> List[List[Any]]:
    """Gather every vector by ``rows`` (``None`` gives NULL), once per distinct list."""
    gathered: Dict[int, List[Any]] = {}
    for vec in vectors:
        if id(vec) not in gathered:
            gathered[id(vec)] = [None if i is None else vec[i] for i in rows]
    return [gathered[id(vec)] for vec in vectors]


# --------------------------------------------------------------------------
# join planning helpers
# --------------------------------------------------------------------------
def _split_conjuncts(expr: Expression) -> List[Expression]:
    """Flatten a tree of top-level ANDs into its conjuncts."""
    out: List[Expression] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, BinaryOp) and node.op == "AND":
            stack.append(node.right)
            stack.append(node.left)
        else:
            out.append(node)
    return out


def _conjoin(conjuncts: Sequence[Expression]) -> Optional[Expression]:
    """Rebuild an AND tree from conjuncts (None when there are none left)."""
    result: Optional[Expression] = None
    for conjunct in conjuncts:
        result = conjunct if result is None else BinaryOp("AND", result, conjunct)
    return result


def _collect_refs(expr: Expression, out: List[ColumnRef]) -> bool:
    """Collect every ColumnRef in ``expr``; False if the expression contains
    a node whose value could depend on more than the current row (so the
    caller must not move it around)."""
    if isinstance(expr, ColumnRef):
        out.append(expr)
        return True
    if isinstance(expr, (Star, WindowFunction)):
        return False
    if isinstance(expr, FunctionCall) and expr.name in AGGREGATE_NAMES:
        return False
    return all(_collect_refs(child, out) for child in children(expr))


def _ref_side(ref: ColumnRef, key_sets: Sequence[frozenset]) -> Optional[int]:
    """Which join input a column reference resolves against.

    Mirrors :meth:`ColumnarBinding.vector_for` on the joined input: the
    qualified name is tried first, then the bare name; a bare name present in
    several inputs keeps the first input's column, so the first matching side
    wins.  Qualified names duplicated across inputs (a repeated alias) depend
    on padding (see :func:`_gather`), so they resolve to no side.
    """
    key = ref.qualified if ref.table else ref.name
    for candidate in (key, ref.name):
        hits = [i for i, keys in enumerate(key_sets) if candidate in keys]
        if hits:
            if "." in candidate and len(hits) > 1:
                return None
            return hits[0]
    return None


def _sole_side(expr: Expression, key_sets: Sequence[frozenset]) -> Optional[int]:
    """The single join input ``expr`` reads from, or None."""
    refs: List[ColumnRef] = []
    if not _collect_refs(expr, refs) or not refs:
        return None
    sides = {_ref_side(ref, key_sets) for ref in refs}
    if len(sides) == 1 and None not in sides:
        return sides.pop()
    return None


def _extract_equi_predicates(
    condition: Expression, left_keys: frozenset, right_keys: frozenset
) -> Tuple[List[Tuple[Expression, Expression]], List[Expression]]:
    """Split an ON condition into hashable equalities and a residual.

    An equality qualifies when one operand reads only left-input columns and
    the other only right-input columns; pairs are returned as
    ``(left_expr, right_expr)``.  Everything else stays in the residual list,
    to be evaluated on probe hits.
    """
    key_sets = (left_keys, right_keys)
    equi: List[Tuple[Expression, Expression]] = []
    residual: List[Expression] = []
    for conjunct in _split_conjuncts(condition):
        pair = None
        if isinstance(conjunct, BinaryOp) and conjunct.op == "=":
            lside = _sole_side(conjunct.left, key_sets)
            rside = _sole_side(conjunct.right, key_sets)
            if lside == 0 and rside == 1:
                pair = (conjunct.left, conjunct.right)
            elif lside == 1 and rside == 0:
                pair = (conjunct.right, conjunct.left)
        if pair is not None:
            equi.append(pair)
        else:
            residual.append(conjunct)
    return equi, residual


def _hash_keys_build(value: Any) -> Tuple[Tuple[str, Any], ...]:
    """Hash-table keys a build-side value is stored under.

    Keys are tagged so bucket membership coincides exactly with
    ``sql_equal``: numbers live under ``("n", float)``, any other value
    under its string form ``("s", str)``, and numeric-looking strings
    additionally under ``("x", float)`` so a *number* on the probe side can
    reach them (string-vs-string comparison stays textual, exactly like
    ``=``).  NULLs never match, so they produce no keys at all.

    ``'nan'``/``'inf'`` strings are *not* numbers under ``numeric_pair``, so
    they carry no ``"x"`` key; non-finite floats (±inf) fall back to textual
    comparison against strings, so they carry a ``"s"`` key too — both keep
    bucket membership identical to ``sql_equal``.
    """
    if is_null(value):
        return ()
    if isinstance(value, bool):
        # Bools compare numerically AND textually: TRUE = 1 and TRUE = 'True'
        # both hold under sql_equal (its str() fallback), so store both keys.
        # int/float need no text key — their str() form always parses back to
        # the same float, so the numeric key already covers it.
        return (("n", float(value)), ("s", str(value)))
    if isinstance(value, (int, float)):
        if not math.isfinite(value):
            return (("n", float(value)), ("s", str(value)))
        return (("n", float(value)),)
    text = str(value)
    try:
        number = float(text.strip())
    except ValueError:
        return (("s", text),)
    if not math.isfinite(number):
        return (("s", text),)
    return (("s", text), ("x", number))


def _hash_keys_probe(value: Any) -> Tuple[Tuple[str, Any], ...]:
    """Hash-table keys probed for a value; the mirror of :func:`_hash_keys_build`."""
    if is_null(value):
        return ()
    if isinstance(value, bool):
        number = float(value)
        return (("n", number), ("x", number), ("s", str(value)))
    if isinstance(value, (int, float)):
        number = float(value)
        if not math.isfinite(number):
            return (("n", number), ("s", str(value)))
        return (("n", number), ("x", number))
    text = str(value)
    try:
        number = float(text.strip())
    except ValueError:
        return (("s", text),)
    if not math.isfinite(number):
        return (("s", text),)
    return (("s", text), ("n", number))


def _probe(index: Dict[Tuple[str, Any], List[int]], value: Any) -> Sequence[int]:
    """Indices of build rows equal to ``value`` (in build-row order)."""
    buckets = [index[k] for k in _hash_keys_probe(value) if k in index]
    if not buckets:
        return ()
    if len(buckets) == 1:
        return buckets[0]
    # A probe can hit several buckets (numeric builds via "n", numeric-string
    # builds via "x", bool builds via "s" too); a bool-vs-bool match appears
    # in two of them, so dedupe, and a sort restores build order.
    return sorted(set().union(*buckets))


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------
def _expression_label(expr: Expression, index: int) -> str:
    if isinstance(expr, FunctionCall):
        return expr.name.lower()
    if isinstance(expr, WindowFunction):
        return expr.name.lower()
    if isinstance(expr, Cast):
        inner = expr.operand
        if isinstance(inner, ColumnRef):
            return inner.name
    if isinstance(expr, CaseWhen):
        return f"case_{index}"
    return f"col_{index}"
