"""Per-layer metrics: tracer statistics normalised per operation.

Every ``.s`` figure is self time: time inside that layer minus the time spent
in other measured layers it called.  Every workload prints every metric; a
layer a workload does not exercise reads 0.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from layers import covered_seconds

#: (metric, unit) in report order.
PER_LAYER: List[Tuple[str, str]] = [
    ("profiling.profile_table.calls", "count"),
    ("profiling.profile_table.s", "s"),
    ("profiling.discover_fds.calls", "count"),
    ("profiling.discover_fds.s", "s"),
    ("profiling.fd_useful_ratio", "ratio"),
    ("profiling.profile_column.calls", "count"),
    ("profiling.profile_column.s", "s"),
    ("profiling.duplicates.s", "s"),
    ("profiling.incremental.s", "s"),
    ("profiling.mergeable.s", "s"),
    ("llm.calls", "count"),
    ("llm.model.s", "s"),
    ("llm.wait.s", "s"),
    ("llm.cache.hit_ratio", "ratio"),
    ("llm.tokens", "count"),
    ("sql.statements", "count"),
    ("sql.parse.s", "s"),
    ("sql.plan.s", "s"),
    ("sql.execute.s", "s"),
    ("sql.compile.calls", "count"),
    ("sql.rows_out", "count"),
    ("core.diff_tables.s", "s"),
    ("core.operators.self_s", "s"),
    ("obs.lineage.records", "count"),
    ("obs.lineage.s", "s"),
    ("stream.replay.s", "s"),
    ("stream.drift.s", "s"),
    ("stream.state.s", "s"),
    ("service.wait_s_p50", "s"),
    ("service.run_s_p50", "s"),
    ("server.overhead_s_p50", "s"),
    ("harness.generator_lag_ms_p90", "ms"),
    ("harness.layer_coverage", "ratio"),
    ("harness.trace_overhead", "ratio"),
]

#: Layers each workload must record at least one call in; a traced run that
#: misses one fails, so a moved import site cannot silently read as zero.
EXPECTED_LAYERS: Dict[str, List[str]] = {
    "clean_registry": [
        "profiling.profile_table",
        "profiling.discover_fds",
        "profiling.profile_column",
        "profiling.duplicates",
        "llm.client",
        "llm.model",
        "sql.query",
        "sql.parse",
        "sql.plan",
        "sql.compile",
        "sql.execute",
        "core.diff_tables",
        "core.operators",
        "obs.lineage",
    ],
    "stream_steady": [
        "profiling.incremental",
        "profiling.mergeable",
        "sql.query",
        "sql.parse",
        "sql.plan",
        "sql.compile",
        "sql.execute",
        "obs.lineage",
        "stream.ingest",
        "stream.replay",
        "stream.drift",
        "stream.state",
    ],
    "serve_jobs": [
        "profiling.profile_table",
        "profiling.discover_fds",
        "profiling.profile_column",
        "profiling.duplicates",
        "llm.client",
        "llm.model",
        "llm.wait",
        "sql.query",
        "sql.parse",
        "sql.plan",
        "sql.compile",
        "sql.execute",
        "core.diff_tables",
        "core.operators",
        "obs.lineage",
    ],
}


def missing_layers(workload: str, stats: Dict[str, Dict[str, float]]) -> List[str]:
    return [
        layer for layer in EXPECTED_LAYERS[workload] if stats.get(layer, {}).get("calls", 0) <= 0
    ]


def layer_metrics(
    stats: Dict[str, Dict[str, float]],
    operations: int,
    wall_s: float,
    trace_overhead: float,
    **service: float,
) -> Dict[str, float]:
    """Every per-layer metric: layer counters divided by the number of operations.

    ``wall_s`` is the traced operations' wall time (the coverage base);
    ``service`` holds the figures read from served jobs, keyed by metric
    name, which read 0 on workloads without a server.
    """

    def get(layer: str, key: str) -> float:
        return stats.get(layer, {}).get(key, 0)

    def per_op(value: float) -> float:
        return value / operations if operations else 0.0

    client_calls = get("llm.client", "calls")
    fd_calls = get("profiling.discover_fds", "calls")
    values = {
        "profiling.profile_table.calls": per_op(get("profiling.profile_table", "calls")),
        "profiling.profile_table.s": per_op(get("profiling.profile_table", "self_s")),
        "profiling.discover_fds.calls": per_op(fd_calls),
        "profiling.discover_fds.s": per_op(get("profiling.discover_fds", "self_s")),
        "profiling.fd_useful_ratio": (
            get("core.operators", "fd_operator_runs") / fd_calls if fd_calls else 0.0
        ),
        "profiling.profile_column.calls": per_op(get("profiling.profile_column", "calls")),
        "profiling.profile_column.s": per_op(get("profiling.profile_column", "self_s")),
        "profiling.duplicates.s": per_op(get("profiling.duplicates", "self_s")),
        "profiling.incremental.s": per_op(get("profiling.incremental", "self_s")),
        "profiling.mergeable.s": per_op(get("profiling.mergeable", "self_s")),
        "llm.calls": per_op(client_calls),
        "llm.model.s": per_op(get("llm.model", "self_s")),
        "llm.wait.s": per_op(get("llm.wait", "self_s")),
        "llm.cache.hit_ratio": (
            1.0 - get("llm.model", "calls") / client_calls if client_calls else 0.0
        ),
        "llm.tokens": per_op(get("llm.model", "tokens")),
        "sql.statements": per_op(get("sql.query", "calls")),
        "sql.parse.s": per_op(get("sql.parse", "self_s")),
        "sql.plan.s": per_op(get("sql.plan", "self_s")),
        "sql.execute.s": per_op(get("sql.execute", "self_s")),
        "sql.compile.calls": per_op(get("sql.compile", "calls")),
        "sql.rows_out": per_op(get("sql.execute", "rows_out")),
        "core.diff_tables.s": per_op(get("core.diff_tables", "self_s")),
        "core.operators.self_s": per_op(get("core.operators", "self_s")),
        "obs.lineage.records": per_op(get("obs.lineage", "records")),
        "obs.lineage.s": per_op(get("obs.lineage", "self_s")),
        "stream.replay.s": per_op(get("stream.replay", "self_s")),
        "stream.drift.s": per_op(get("stream.drift", "self_s")),
        "stream.state.s": per_op(get("stream.state", "self_s")),
        "service.wait_s_p50": 0.0,
        "service.run_s_p50": 0.0,
        "server.overhead_s_p50": 0.0,
        "harness.generator_lag_ms_p90": 0.0,
        "harness.layer_coverage": covered_seconds(stats) / wall_s if wall_s > 0 else 0.0,
        "harness.trace_overhead": trace_overhead,
    }
    unknown = set(service) - set(values)
    if unknown:
        raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
    values.update(service)
    return values


#: The deterministic work counters pinned in ``pinned.json``.
WORK_COUNTERS = [
    "profiling.profile_table.calls",
    "profiling.discover_fds.calls",
    "sql.statements",
    "sql.rows_out",
    "llm.calls",
    "obs.lineage.records",
]


def work_counters(stats: Dict[str, Dict[str, float]]) -> Dict[str, int]:
    """Totals of the pinned work counters (per-layer metrics of one operation)."""
    values = layer_metrics(stats, operations=1, wall_s=0.0, trace_overhead=0.0)
    return {name: int(values[name]) for name in WORK_COUNTERS}
