"""FD discovery benchmark: single-pass ``discover_fds`` on synthetic tables.

Times functional-dependency discovery on synthetic tables of 1k–50k rows
against the committed ``BENCH_fd.json`` number for the same case, checks the
candidate count matches the committed one, and writes ``BENCH_fd.json`` in
the schema described in ``docs/benchmarks.md``.  Exact parity with the
per-pair loop it replaced is pinned by ``tests/profiling/test_fd_parity.py``.

Run it from the repo root::

    PYTHONPATH=src python benchmarks/bench_fd.py              # full, seconds
    PYTHONPATH=src python benchmarks/bench_fd.py --smoke      # CI
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
from repro.profiling import discover_fds


def make_table(rows: int, columns: int, rng: random.Random) -> Table:
    """A synthetic table with FD structure worth discovering.

    Even columns are low-cardinality determinants; each odd column is a noisy
    function of its predecessor (so real near-FDs exist); typed values and a
    5% NULL rate exercise the stringification and null-filtering paths.
    """
    data = {}
    for j in range(columns):
        if j % 2 == 0:
            cardinality = 5 + 7 * j
            values = [rng.randrange(cardinality) for _ in range(rows)]
        else:
            parent = data[f"c{j - 1}"]
            values = [
                None if p is None or rng.random() < 0.02 else f"v{p}"
                for p in parent
            ]
        data[f"c{j}"] = [None if rng.random() < 0.05 else v for v in values]
    return Table.from_dict("synthetic", data)


# (rows, columns)
CASES = [(1000, 8), (5000, 8), (20000, 8), (50000, 6)]

SMOKE_ROWS = 500


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_fd.json", help="output JSON path")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats for fast measurements")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"cap all inputs at {SMOKE_ROWS} rows so the whole run takes seconds (CI)",
    )
    parser.add_argument("--min-score", type=float, default=0.5)
    args = parser.parse_args(argv)

    committed = benchlib.load_committed("BENCH_fd.json")
    cases = []
    for rows, columns in CASES:
        if args.smoke:
            rows = min(rows, SMOKE_ROWS)
        table = make_table(rows, columns, random.Random(args.seed))
        found = len(discover_fds(table, min_score=args.min_score))
        seconds = benchlib.measure(lambda: discover_fds(table, min_score=args.min_score), args.repeats)
        params = {"rows": rows, "columns": columns, "min_score": args.min_score}
        cases.append(benchlib.committed_case(committed, f"discover_fds_{rows}x{columns}", params, seconds, found))

    report = benchlib.write_report(
        args.out,
        "fd_discovery",
        {"smoke": args.smoke, "repeats": args.repeats, "seed": args.seed,
         "min_score": args.min_score},
        cases,
    )
    benchlib.print_cases(report)
    if not all(case.get("parity", True) for case in cases):
        print("ERROR: candidate counts differ from the committed BENCH_fd.json", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
