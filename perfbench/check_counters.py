"""The benchmark's own test: deterministic work counters and output digests.

For the committed seed in ``pinned.json`` this recomputes, under the layer
wrappers:

* ``clean_registry`` — per dataset: profiles built, FD passes, SQL statements,
  rows out, LLM calls and lineage records, plus cleaned-table and SQL-script
  digests;
* ``stream_steady`` — the same counters summed over the first steady batches
  after the prime, plus the final cumulative output digest;
* ``serve_jobs`` — the counters of a small served schedule that do not depend
  on job order (cache hits do, so model calls are not pinned).

and compares them exactly with ``pinned.json``, so redundant work fails even
when wall-clock noise hides it.  A deliberate change to the work the program
does re-pins with ``--update`` and says so in its change description.

Usage, from the root of a checkout::

    python3 perfbench/check_counters.py            # exit 1 on any difference
    python3 perfbench/check_counters.py --update   # rewrite pinned.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import registry  # noqa: E402
import serve  # noqa: E402
import stream  # noqa: E402
from common import PINNED_PATH, load_pinned  # noqa: E402

MODULES = {"clean_registry": registry, "stream_steady": stream, "serve_jobs": serve}


def differences(expected, actual, path=""):
    """Paths at which two JSON-like values differ."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            out.extend(differences(expected.get(key), actual.get(key), f"{path}/{key}"))
        return out
    return [] if expected == actual else [f"{path}: pinned {expected!r}, measured {actual!r}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Check the pinned work counters")
    parser.add_argument("--update", action="store_true", help="rewrite pinned.json")
    args = parser.parse_args(argv)
    pinned = load_pinned()
    seed = pinned["seed"]
    problems = []
    for name, module in MODULES.items():
        measured = module.pinned_counters(seed)
        if args.update:
            pinned["workloads"][name] = measured
            print(f"{name}: re-pinned")
            continue
        found = differences(pinned["workloads"].get(name), measured, name)
        problems.extend(found)
        print(f"{name}: {'ok' if not found else f'{len(found)} differences'}")
    if args.update:
        PINNED_PATH.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return 0
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
