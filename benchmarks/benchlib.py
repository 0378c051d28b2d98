"""Shared harness for the standalone ``bench_*.py`` scripts.

Unlike the pytest-benchmark modules (``bench_table1.py`` etc.), the scripts
built on this helper are plain CLIs: they time the current implementation on
synthetic inputs against a *baseline* — a second live configuration, or the
committed report's number for the same case (:func:`committed_case`) — and
write a ``BENCH_*.json`` report in the schema documented in
``docs/benchmarks.md``.  The committed ``BENCH_*.json`` files at the repo
root are produced by these scripts and seed the cross-PR performance
trajectory.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from datetime import datetime, timezone
from typing import Any, Callable, Dict, List, Optional

SCHEMA_VERSION = 1
REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def measure(fn: Callable[[], Any], repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def case_result(
    name: str,
    params: Dict[str, Any],
    baseline_seconds: Optional[float],
    optimised_seconds: float,
    output_rows: Optional[int] = None,
    parity: Optional[bool] = None,
) -> Dict[str, Any]:
    """One entry of the report's ``cases`` array (no baseline fields without one)."""
    entry: Dict[str, Any] = {"name": name, "params": params}
    if baseline_seconds is not None:
        entry["baseline_seconds"] = round(baseline_seconds, 6)
    entry["optimised_seconds"] = round(optimised_seconds, 6)
    if baseline_seconds is not None:
        speedup = baseline_seconds / optimised_seconds if optimised_seconds > 0 else float("inf")
        entry["speedup"] = round(speedup, 2)
    if output_rows is not None:
        entry["output_rows"] = output_rows
    if parity is not None:
        entry["parity"] = parity
    return entry


def load_committed(filename: str) -> Dict[str, Dict[str, Any]]:
    """The cases of the committed report ``filename`` at the repo root, by name."""
    path = os.path.join(REPO_ROOT, filename)
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        return {case["name"]: case for case in json.load(handle)["cases"]}


def committed_case(
    committed: Dict[str, Dict[str, Any]],
    name: str,
    params: Dict[str, Any],
    seconds: float,
    output_rows: int,
) -> Dict[str, Any]:
    """A case timed against the committed report's case of the same name.

    The committed ``optimised_seconds`` becomes the baseline, and parity means
    the same ``output_rows``.  A case the committed report lacks, or ran with
    other ``params``, gets neither.
    """
    previous = committed.get(name)
    if previous is None or previous["params"] != params:
        return case_result(name, params, None, seconds, output_rows=output_rows)
    return case_result(
        name,
        params,
        previous["optimised_seconds"],
        seconds,
        output_rows=output_rows,
        parity=previous.get("output_rows") == output_rows,
    )


def write_report(
    out_path: str, benchmark: str, config: Dict[str, Any], cases: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Assemble and write the ``BENCH_*.json`` document; returns it."""
    report = {
        "benchmark": benchmark,
        "schema_version": SCHEMA_VERSION,
        "created_at": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "config": config,
        "cases": cases,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return report


def print_cases(report: Dict[str, Any]) -> None:
    print(f"# {report['benchmark']} benchmark — {report['created_at']}", file=sys.stderr)
    for case in report["cases"]:
        parity = "" if case.get("parity", True) else "  PARITY FAILURE"
        if "baseline_seconds" not in case:
            print(f"{case['name']:<40} {case['optimised_seconds']:>10.4f}s", file=sys.stderr)
            continue
        print(
            f"{case['name']:<40} baseline {case['baseline_seconds']:>10.4f}s   "
            f"optimised {case['optimised_seconds']:>10.4f}s   "
            f"speedup {case['speedup']:>8.2f}x{parity}",
            file=sys.stderr,
        )
