"""A miniature in-memory SQL engine.

The paper's system executes all of its error detection and cleaning through
SQL against a database (DuckDB in the authors' experiments) so the result is
"scalable, interpretable, and reusable".  This package is the reproduction's
database substrate: a from-scratch SQL engine covering the surface that the
Cocoon pipeline emits and the profiler issues —

* ``SELECT`` lists with arbitrary expressions, aliases and ``DISTINCT``
* ``CASE WHEN … THEN … ELSE … END``
* ``CAST(expr AS type)``
* scalar functions (``UPPER``/``LOWER``/``TRIM``/``REGEXP_MATCHES``/
  ``REGEXP_REPLACE``/``COALESCE``/``NULLIF`` …)
* aggregates with ``GROUP BY`` / ``HAVING``
* window function ``ROW_NUMBER() OVER (PARTITION BY … ORDER BY …)``
* ``INNER``/``LEFT`` joins — hash-indexed whenever the ``ON`` condition
  contains an equality between the two sides (with residual predicates
  checked on the matched pairs), over all pairs otherwise; single-side
  ``WHERE`` conjuncts are applied below the joins
* ``WHERE``, ``ORDER BY``, ``LIMIT``, derived tables in ``FROM``
* ``CREATE [OR REPLACE] TABLE/VIEW … AS SELECT`` and ``DROP TABLE``

The entry point is :class:`repro.sql.database.Database`; the layers beneath
it are :mod:`repro.sql.tokenizer` → :mod:`repro.sql.parser` (AST in
:mod:`repro.sql.ast_nodes`) → :mod:`repro.sql.planner` →
:mod:`repro.sql.executor` (expressions compiled by :mod:`repro.sql.compiler`)
over a :mod:`repro.sql.catalog`.  ``docs/architecture.md`` places the package in
the full system; ``docs/benchmarks.md`` tracks executor performance.
"""

from repro.sql.errors import SQLError, ParseError, ExecutionError, CatalogError
from repro.sql.database import Database
from repro.sql.parser import parse, parse_expression

__all__ = [
    "Database",
    "SQLError",
    "ParseError",
    "ExecutionError",
    "CatalogError",
    "parse",
    "parse_expression",
]
