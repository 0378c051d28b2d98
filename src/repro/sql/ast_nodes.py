"""Abstract syntax tree node definitions for the mini SQL engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Union

from repro.dataframe.schema import ColumnType


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------
class Expression:
    """Base class for all expression nodes."""


@dataclass
class Literal(Expression):
    value: Any


@dataclass
class ColumnRef(Expression):
    name: str
    table: Optional[str] = None

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass
class Star(Expression):
    """``*`` in a select list or within COUNT(*)."""
    table: Optional[str] = None


@dataclass
class UnaryOp(Expression):
    op: str          # 'NOT', '-', '+'
    operand: Expression


@dataclass
class BinaryOp(Expression):
    op: str          # '=', '<>', '<', '>', '<=', '>=', 'AND', 'OR', '+', '-', '*', '/', '%', '||', 'LIKE'
    left: Expression
    right: Expression


@dataclass
class Like(Expression):
    """``operand LIKE pattern [ESCAPE escape]``.

    ``escape`` names a single character that makes the following ``%``/``_``
    (or the escape character itself) literal.  Plain ``LIKE`` may also appear
    as ``BinaryOp('LIKE', …)`` when an AST is built by hand; the parser always
    produces this node.
    """
    operand: Expression
    pattern: Expression
    escape: Optional[Expression] = None


@dataclass
class IsNull(Expression):
    operand: Expression
    negated: bool = False


@dataclass
class InList(Expression):
    operand: Expression
    items: List[Expression]
    negated: bool = False


@dataclass
class Between(Expression):
    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False


@dataclass
class CaseWhen(Expression):
    """``CASE [operand] WHEN cond THEN value ... [ELSE default] END``."""
    whens: List[tuple]                 # list of (condition_expr, result_expr)
    default: Optional[Expression] = None
    operand: Optional[Expression] = None


@dataclass
class Cast(Expression):
    operand: Expression
    target: ColumnType


@dataclass
class FunctionCall(Expression):
    name: str
    args: List[Expression]
    distinct: bool = False


@dataclass
class WindowSpec:
    partition_by: List[Expression] = field(default_factory=list)
    order_by: List["OrderItem"] = field(default_factory=list)


@dataclass
class WindowFunction(Expression):
    name: str
    args: List[Expression]
    window: WindowSpec = field(default_factory=WindowSpec)


def children(expr: Expression) -> List[Expression]:
    """The direct sub-expressions of ``expr``; a window function is a leaf."""
    if isinstance(expr, (UnaryOp, IsNull, Cast)):
        return [expr.operand]
    if isinstance(expr, BinaryOp):
        return [expr.left, expr.right]
    if isinstance(expr, FunctionCall):
        return expr.args
    if isinstance(expr, CaseWhen):
        parts = [part for pair in expr.whens for part in pair]
        return parts + [e for e in (expr.default, expr.operand) if e is not None]
    if isinstance(expr, Like):
        return [expr.operand, expr.pattern] + ([expr.escape] if expr.escape is not None else [])
    if isinstance(expr, InList):
        return [expr.operand] + expr.items
    if isinstance(expr, Between):
        return [expr.operand, expr.low, expr.high]
    return []


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------
@dataclass
class SelectItem:
    expression: Expression
    alias: Optional[str] = None


@dataclass
class OrderItem:
    expression: Expression
    descending: bool = False


@dataclass
class TableRef:
    """A named table or a derived table (subquery) in FROM."""
    name: Optional[str] = None
    subquery: Optional["Select"] = None
    alias: Optional[str] = None


@dataclass
class Join:
    kind: str                 # 'INNER' or 'LEFT'
    table: TableRef
    condition: Expression


@dataclass
class Select:
    items: List[SelectItem]
    from_table: Optional[TableRef] = None
    joins: List[Join] = field(default_factory=list)
    where: Optional[Expression] = None
    group_by: List[Expression] = field(default_factory=list)
    having: Optional[Expression] = None
    qualify: Optional[Expression] = None
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False


@dataclass
class CreateTableAs:
    name: str
    query: Select
    or_replace: bool = False
    is_view: bool = False


@dataclass
class DropTable:
    name: str
    if_exists: bool = False


Statement = Union[Select, CreateTableAs, DropTable]
