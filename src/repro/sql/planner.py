"""Query planning: a SELECT becomes an explicit pipeline of stage nodes.

:func:`plan_select` turns a parsed :class:`~repro.sql.ast_nodes.Select` into a
:class:`SelectPlan` — the *logical* plan the executor runs.  The plan phase
happens exactly once per query and hoists every decision that used to be
re-derived inside ``Executor._execute_select`` on the fly:

* which stages the query needs (scan → join → filter → group → window →
  project → qualify → distinct → order → limit), as explicit nodes;
* whether the query aggregates (``GROUP BY`` present, or any aggregate
  function in the select list / ``HAVING``);
* the set of window-function nodes referenced by the select list and
  ``QUALIFY`` (collected once, not per execution phase).

Every plan runs on the one columnar pipeline in :mod:`repro.sql.executor`.
Physical choices that depend on the *inputs* — hash join vs nested loop,
which ``WHERE`` conjuncts move below a join — bind at execution time when
the input schemas are known; the plan records the logical stages they
apply to.  ``SelectPlan.describe()`` renders the stage pipeline for humans
and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.sql.ast_nodes import (
    Expression,
    FunctionCall,
    Join,
    OrderItem,
    Select,
    SelectItem,
    TableRef,
    WindowFunction,
    children,
)
from repro.sql.functions import AGGREGATE_NAMES


# --------------------------------------------------------------------------
# stage nodes
# --------------------------------------------------------------------------
@dataclass
class ScanNode:
    """Materialise one FROM item (named table or derived subquery)."""

    ref: TableRef

    @property
    def label(self) -> str:
        return f"Scan({self.ref.name or (self.ref.alias or 'subquery')})"


@dataclass
class JoinNode:
    """One JOIN against the rows produced so far.

    The hash-vs-nested-loop strategy and the equi-key extraction bind at
    execution time (they need the input schemas); the node records the
    logical join.
    """

    join: Join

    @property
    def label(self) -> str:
        return f"Join({self.join.kind}, {self.join.table.name or 'subquery'})"


@dataclass
class FilterNode:
    """Apply the WHERE predicate.

    On joined queries, single-side conjuncts are evaluated below the joins
    at execution time; the node holds the full predicate.
    """

    predicate: Expression

    @property
    def label(self) -> str:
        return "Filter"


@dataclass
class GroupNode:
    """GROUP BY / aggregate evaluation (with optional HAVING)."""

    keys: List[Expression]
    having: Optional[Expression]

    @property
    def label(self) -> str:
        return f"Group(keys={len(self.keys)})"


@dataclass
class WindowNode:
    """Evaluate every window function referenced by the query, once."""

    functions: List[WindowFunction]

    @property
    def label(self) -> str:
        return f"Window(functions={len(self.functions)})"


@dataclass
class ProjectNode:
    """Evaluate the select list into output rows."""

    items: List[SelectItem]

    @property
    def label(self) -> str:
        return f"Project(items={len(self.items)})"


@dataclass
class QualifyNode:
    """Filter on window-function results (QUALIFY)."""

    predicate: Expression

    @property
    def label(self) -> str:
        return "Qualify"


@dataclass
class DistinctNode:
    """Drop duplicate output rows (first occurrence wins)."""

    @property
    def label(self) -> str:
        return "Distinct"


@dataclass
class OrderNode:
    """Sort output rows by the ORDER BY items."""

    items: List[OrderItem]

    @property
    def label(self) -> str:
        return f"Order(keys={len(self.items)})"


@dataclass
class LimitNode:
    """OFFSET / LIMIT applied to the ordered output."""

    limit: Optional[int]
    offset: Optional[int]

    @property
    def label(self) -> str:
        return f"Limit(limit={self.limit}, offset={self.offset})"


@dataclass
class SelectPlan:
    """The planned form of one SELECT, consumed by the executor."""

    select: Select
    scan: Optional[ScanNode]
    joins: List[JoinNode] = field(default_factory=list)
    filter: Optional[FilterNode] = None
    group: Optional[GroupNode] = None
    window: Optional[WindowNode] = None
    project: Optional[ProjectNode] = None
    qualify: Optional[QualifyNode] = None
    distinct: Optional[DistinctNode] = None
    order: Optional[OrderNode] = None
    limit: Optional[LimitNode] = None

    @property
    def windows(self) -> List[WindowFunction]:
        return self.window.functions if self.window is not None else []

    def stages(self) -> List[object]:
        """The stage nodes in execution order (omitting absent stages)."""
        out: List[object] = []
        if self.scan is not None:
            out.append(self.scan)
        out.extend(self.joins)
        if self.filter is not None:
            out.append(self.filter)
        if self.group is not None:
            out.append(self.group)
        else:
            if self.window is not None:
                out.append(self.window)
            if self.project is not None:
                out.append(self.project)
            if self.qualify is not None:
                out.append(self.qualify)
        if self.distinct is not None:
            out.append(self.distinct)
        if self.order is not None:
            out.append(self.order)
        if self.limit is not None:
            out.append(self.limit)
        return out

    def describe(self) -> str:
        """Human-readable pipeline, one stage per line (for tests and EXPLAIN)."""
        return "\n".join(f"{i}: {stage.label}" for i, stage in enumerate(self.stages()))


# --------------------------------------------------------------------------
# planning
# --------------------------------------------------------------------------
def contains_aggregate(expr: Expression) -> bool:
    """True when ``expr`` contains an aggregate function call."""
    if isinstance(expr, FunctionCall) and expr.name in AGGREGATE_NAMES:
        return True
    return any(contains_aggregate(child) for child in children(expr))


def collect_windows(expr: Expression, out: List[WindowFunction]) -> None:
    """Append every WindowFunction node in ``expr`` to ``out`` (pre-order)."""
    if isinstance(expr, WindowFunction):
        out.append(expr)
        return
    for child in children(expr):
        collect_windows(child, out)


def plan_select(select: Select) -> SelectPlan:
    """Build the stage-node plan for ``select`` (once per query)."""
    has_group = bool(select.group_by)
    has_aggregate = any(contains_aggregate(item.expression) for item in select.items) or (
        select.having is not None and contains_aggregate(select.having)
    )

    window_nodes: List[WindowFunction] = []
    for item in select.items:
        collect_windows(item.expression, window_nodes)
    if select.qualify is not None:
        collect_windows(select.qualify, window_nodes)

    return SelectPlan(
        select=select,
        scan=ScanNode(select.from_table) if select.from_table is not None else None,
        joins=[JoinNode(join) for join in select.joins],
        filter=FilterNode(select.where) if select.where is not None else None,
        group=GroupNode(list(select.group_by), select.having) if has_group or has_aggregate else None,
        window=WindowNode(window_nodes) if window_nodes else None,
        project=ProjectNode(list(select.items)),
        qualify=QualifyNode(select.qualify) if select.qualify is not None else None,
        distinct=DistinctNode() if select.distinct else None,
        order=OrderNode(list(select.order_by)) if select.order_by else None,
        limit=LimitNode(select.limit, select.offset)
        if select.limit is not None or select.offset is not None
        else None,
    )
