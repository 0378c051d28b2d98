"""The Cocoon benchmark: one command per workload run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload clean_registry --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload without wrappers and reports the end-to-end
metrics; ``--trace 1`` wraps every layer (see ``layers.py``) and reports the
per-layer metrics.  Human-readable figures come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any failed operation or output check makes the
command exit 1.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("clean_registry", "stream_steady", "serve_jobs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="Seed the inputs are generated from")
    parser.add_argument("--seconds", type=float, required=True, help="How long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 = per-layer run")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import registry
    import serve
    import stream
    from common import load_pinned
    from perlayer import PER_LAYER

    modules = {"clean_registry": registry, "stream_steady": stream, "serve_jobs": serve}
    pinned = load_pinned()
    # Digests and counters are pinned for the committed seed only.
    section = pinned["workloads"][args.workload] if args.seed == pinned["seed"] else None
    mode = "traced" if args.trace else "untraced"
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} ({mode})")
    outcome = modules[args.workload].run(args.seed, args.seconds, bool(args.trace), section)

    if args.trace:
        metrics = {}
        for name, unit in PER_LAYER:
            if name not in outcome.layers:
                outcome.fail(f"traced run did not report {name}", operations=0)
                continue
            value = outcome.layers[name]
            metrics[name] = {"value": value, "unit": unit}
            outcome.report.append(f"  {name:<36} {value:>14.6g} {unit}")
    else:
        metrics = outcome.metrics
    for line in outcome.report:
        print(line)
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    attempted = max(1, outcome.attempted)
    failed = min(outcome.failed, attempted)
    if not outcome.correct and failed == 0:
        failed = 1
    print(f"  error_rate {failed / attempted:.4f} ({failed} of {attempted} operations)")
    result = {"correct": outcome.correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
