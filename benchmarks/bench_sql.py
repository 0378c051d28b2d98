"""SQL benchmark: joins and single-table queries on the columnar engine.

Times two families of queries and writes ``BENCH_sql.json`` in the schema
described in ``docs/benchmarks.md``:

* **Join cases** — INNER/LEFT equi-joins, a residual (non-equi) predicate on
  the matched pairs and WHERE pushdown on both sides, 1k–10k rows a side;
* **Compiled cases** — single-table scan+WHERE, GROUP BY aggregate and
  window+QUALIFY queries at 10k/100k rows.

Each case's baseline is the committed ``BENCH_sql.json`` number for the same
case, and its output must have the committed number of rows.

Run it from the repo root::

    PYTHONPATH=src python benchmarks/bench_sql.py             # full, a minute
    PYTHONPATH=src python benchmarks/bench_sql.py --smoke     # seconds, CI
"""

from __future__ import annotations

import argparse
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import benchlib

from repro.dataframe.table import Table
from repro.sql import Database


def make_table(name: str, rows: int, rng: random.Random, key_space: int) -> Table:
    """A synthetic fact table: integer join key plus two payload columns."""
    return Table.from_dict(
        name,
        {
            "k": [rng.randrange(key_space) for _ in range(rows)],
            "grp": [rng.choice("abcde") for _ in range(rows)],
            "val": [rng.randrange(1000) for _ in range(rows)],
        },
    )


def run_query(tables, query: str) -> Table:
    db = Database()
    for table in tables:
        db.register(table)
    return db.sql(query)


# (name, left_rows, right_rows, query)
CASES = [
    (
        "inner_equi_join",
        1000,
        1000,
        "SELECT l.k, l.val, r.val AS rval FROM lhs l JOIN rhs r ON l.k = r.k",
    ),
    (
        "inner_equi_join",
        5000,
        5000,
        "SELECT l.k, l.val, r.val AS rval FROM lhs l JOIN rhs r ON l.k = r.k",
    ),
    (
        "inner_equi_join",
        10000,
        10000,
        "SELECT l.k, l.val, r.val AS rval FROM lhs l JOIN rhs r ON l.k = r.k",
    ),
    (
        "left_equi_join_small_build",
        10000,
        100,
        "SELECT l.k, r.val AS rval FROM lhs l LEFT JOIN rhs r ON l.k = r.k",
    ),
    (
        "equi_join_residual_predicate",
        5000,
        5000,
        "SELECT l.k FROM lhs l JOIN rhs r ON l.k = r.k AND l.val < r.val",
    ),
    (
        "where_pushdown_both_sides",
        5000,
        5000,
        "SELECT l.k, r.val AS rval FROM lhs l JOIN rhs r ON l.k = r.k "
        "WHERE l.grp = 'a' AND r.grp = 'b'",
    ),
]

# (name, rows, query) — single-table queries.
COMPILED_CASES = [
    (
        "scan_filter",
        10000,
        "SELECT k, val FROM t WHERE grp = 'a' AND val < 500",
    ),
    (
        "scan_filter",
        100000,
        "SELECT k, val FROM t WHERE grp = 'a' AND val < 500",
    ),
    (
        "group_aggregate",
        10000,
        "SELECT grp, COUNT(*) AS n, SUM(val) AS total, AVG(val) AS mean FROM t GROUP BY grp",
    ),
    (
        "group_aggregate",
        100000,
        "SELECT grp, COUNT(*) AS n, SUM(val) AS total, AVG(val) AS mean FROM t GROUP BY grp",
    ),
    (
        "window_qualify",
        10000,
        "SELECT k, grp, val FROM t "
        "QUALIFY ROW_NUMBER() OVER (PARTITION BY grp ORDER BY val DESC) <= 3",
    ),
    (
        "window_qualify",
        100000,
        "SELECT k, grp, val FROM t "
        "QUALIFY ROW_NUMBER() OVER (PARTITION BY grp ORDER BY val DESC) <= 3",
    ),
]

SMOKE_ROWS = 300


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_sql.json", help="output JSON path")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats for fast measurements")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"cap all inputs at {SMOKE_ROWS} rows so the whole run takes seconds (CI)",
    )
    args = parser.parse_args(argv)

    committed = benchlib.load_committed("BENCH_sql.json")
    workloads = []
    for name, left_rows, right_rows, query in CASES:
        if args.smoke:
            left_rows = min(left_rows, SMOKE_ROWS)
            right_rows = min(right_rows, SMOKE_ROWS)
        rng = random.Random(args.seed)
        # ~1 expected match per probe: the regime cleaning joins run in.
        key_space = max(left_rows, right_rows)
        tables = [
            make_table("lhs", left_rows, rng, key_space),
            make_table("rhs", right_rows, rng, key_space),
        ]
        params = {"left_rows": left_rows, "right_rows": right_rows, "query": query}
        workloads.append((f"{name}_{left_rows}x{right_rows}", params, tables, query))
    for name, rows, query in COMPILED_CASES:
        if args.smoke:
            rows = min(rows, SMOKE_ROWS)
        rng = random.Random(args.seed)
        tables = [make_table("t", rows, rng, key_space=rows)]
        workloads.append((f"{name}_{rows}", {"rows": rows, "query": query}, tables, query))

    cases = []
    for name, params, tables, query in workloads:
        output_rows = run_query(tables, query).num_rows
        seconds = benchlib.measure(lambda: run_query(tables, query), args.repeats)
        cases.append(benchlib.committed_case(committed, name, params, seconds, output_rows))

    report = benchlib.write_report(
        args.out,
        "sql_join",
        {"smoke": args.smoke, "repeats": args.repeats, "seed": args.seed},
        cases,
    )
    benchlib.print_cases(report)
    if not all(case.get("parity", True) for case in cases):
        print("ERROR: output sizes differ from the committed BENCH_sql.json", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
