"""Scalar value semantics shared by the compiler, the executor and the stream state.

Every per-value rule the engine applies lives here, so the expression
compiler (:mod:`repro.sql.compiler`), the pipeline stages
(:mod:`repro.sql.executor`) and the streaming QUALIFY replay
(:mod:`repro.stream.state`) agree bit for bit:

* :func:`truthy` — SQL three-valued logic collapsed for filtering;
* :func:`hashable` — GROUP BY / PARTITION BY key normalisation;
* :func:`sort_key` — the ORDER BY total order;
* :func:`apply_unary` / :func:`apply_binary` / :func:`between` — operators;
* :func:`like_match` — LIKE with optional ESCAPE, regexes cached per pattern.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Any, Optional, Tuple

from repro.dataframe.schema import is_null
from repro.sql.comparison import compare_values, sql_equal
from repro.sql.errors import ExecutionError


def truthy(value: Any) -> bool:
    if is_null(value):
        return False
    return bool(value)


def hashable(value: Any) -> Any:
    if is_null(value):
        return "\0null"
    if isinstance(value, (list, dict, set)):
        return str(value)
    return value


class _ReversedCodePoints(dict):
    """``str.translate`` table that reverses code point order.

    Code point ``c`` maps to ``0x10FFFE - c``; the two highest, with no
    single code point left below the others, map to ``"\0\1"`` and
    ``"\0\0"``.  No codeword is a prefix of another, so translated strings
    compare in reverse, and a trailing ``U+10FFFF`` (above every codeword)
    makes a string sort after its extensions.  Entries are filled on first
    use, one per distinct code point seen.
    """

    def __missing__(self, code: int) -> Any:
        out = 0x10FFFE - code if code < 0x10FFFE else "\0" + chr(0x10FFFF - code)
        self[code] = out
        return out


_REVERSED = _ReversedCodePoints()


def sort_key(value: Any, descending: bool) -> Tuple:
    """ORDER BY key: a total order over every value the engine stores.

    Numbers (bools as ints) sort before text ascending and after it
    descending, as in sqlite; anything else sorts as its text.  NULL and NaN
    (``is_null`` covers both) sort after every real value in either
    direction.
    """
    if is_null(value):
        return (2,)
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, (int, float)):
        return (1, -value) if descending else (0, value)
    if descending:
        return (0, str(value).translate(_REVERSED) + "\U0010FFFF")
    return (1, str(value))


def _like_to_regex(pattern: str, escape: Optional[str] = None) -> str:
    """Translate a LIKE pattern to an anchored regex.

    With an ``ESCAPE`` character, the character following it is taken
    literally — the standard way to match a literal ``%`` or ``_`` (or the
    escape character itself).  A pattern ending in a dangling escape is
    malformed.
    """
    out = []
    i = 0
    n = len(pattern)
    while i < n:
        ch = pattern[i]
        if escape is not None and ch == escape:
            if i + 1 >= n:
                raise ExecutionError(f"LIKE pattern {pattern!r} ends with its ESCAPE character")
            out.append(re.escape(pattern[i + 1]))
            i += 2
            continue
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
        i += 1
    return "^" + "".join(out) + "$"


@lru_cache(maxsize=512)
def like_regex(pattern: str, escape: Optional[str]) -> "re.Pattern":
    """Compiled, case-insensitive regex for a LIKE pattern.

    Cached per ``(pattern, escape)`` so the compiled closures, evaluated
    once per row, translate and compile each distinct pattern once.
    ``lru_cache`` does not cache raised exceptions, so malformed patterns
    (dangling ESCAPE) keep raising on every evaluation.
    """
    return re.compile(_like_to_regex(pattern, escape), re.IGNORECASE)


def like_match(value: Any, pattern: Any, escape: Any = None) -> bool:
    """Non-null LIKE evaluation shared by the Like node and BinaryOp('LIKE')."""
    escape_char: Optional[str] = None
    if escape is not None:
        escape_char = str(escape)
        if len(escape_char) != 1:
            raise ExecutionError(f"ESCAPE must be a single character, got {escape_char!r}")
    return like_regex(str(pattern), escape_char).match(str(value)) is not None


def apply_unary(op: str, value: Any) -> Any:
    if op == "NOT":
        if is_null(value):
            return None
        return not truthy(value)
    if is_null(value):
        return None
    if op == "-":
        return -value
    if op == "+":
        return +value
    raise ExecutionError(f"Unknown unary operator {op}")


def _ordered(op: str, left: Any, right: Any) -> Optional[bool]:
    cmp = compare_values(left, right)
    if cmp is None:
        return None
    return {"<": cmp < 0, ">": cmp > 0, "<=": cmp <= 0, ">=": cmp >= 0}[op]


def apply_binary(op: str, left: Any, right: Any) -> Any:
    if op == "||":
        if is_null(left) or is_null(right):
            return None
        return f"{left}{right}"
    if op == "LIKE":
        if is_null(left) or is_null(right):
            return None
        return like_match(left, right)
    if is_null(left) or is_null(right):
        return None
    if op == "=":
        return sql_equal(left, right)
    if op == "<>":
        return not sql_equal(left, right)
    if op in ("<", ">", "<=", ">="):
        return _ordered(op, left, right)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            return None
        return left / right
    if op == "%":
        if right == 0:
            return None
        return left % right
    raise ExecutionError(f"Unknown binary operator {op}")


def between(value: Any, low: Any, high: Any, negated: bool) -> Any:
    """``value [NOT] BETWEEN low AND high``, exactly ``value >= low AND value <= high``."""
    if is_null(value) or is_null(low) or is_null(high):
        return None
    above, below = _ordered(">=", value, low), _ordered("<=", value, high)
    if above is False or below is False:
        return negated
    if above is None or below is None:
        return None
    return not negated
