"""Run ``repro.server`` with the benchmark's layer wrappers installed.

Usage::

    python3 perfbench/serve_traced.py <stats.json> [repro.server arguments...]

The server behaves exactly as ``python -m repro.server``; when it has drained
and stopped (SIGTERM), the per-layer statistics of every server thread are
written to ``<stats.json>``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from layers import LayerTracer  # noqa: E402


def main(argv) -> int:
    if not argv:
        print("usage: serve_traced.py <stats.json> [server args...]", file=sys.stderr)
        return 2
    dump, server_args = Path(argv[0]), argv[1:]
    tracer = LayerTracer().install()
    from repro.server.cli import main as server_main

    try:
        return server_main(server_args)
    finally:
        tracer.uninstall()
        dump.write_text(json.dumps(tracer.snapshot()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
