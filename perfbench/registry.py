"""Workload ``clean_registry``: closed-loop whole-table cleans.

One caller.  Each pass runs a fresh ``CocoonCleaner().clean()`` on the dirty
table of each of the five registry datasets at scale 0.1, generated from the
run's seed: the four small datasets twice, movies once (see ``PASS``).
A run makes one pass per ``PASS_SECONDS`` of ``--seconds``, and at least two,
so every dataset has a median.  The pass count follows from ``--seconds``, not
from how fast passes run, so a parent and a change do the same work.
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List, Optional

from common import (
    SETUP_REPEATS,
    Outcome,
    SpeedGauge,
    geomean_of_medians,
    lineage_gate_errors,
    llm_tokens,
    peak_rss_mb_self,
    sha256,
    time_setup,
)
from layers import LayerTracer, accumulate, diff
from perlayer import layer_metrics, missing_layers, work_counters

DATASETS = ["hospital", "flights", "beers", "rayyan", "movies"]
SCALE = 0.1
#: The cleans of one pass.  A small dataset takes 0.2–0.7 s (normalised, see
#: ``SpeedGauge``) to clean and movies about 6.7 s, so two small rounds per
#: pass double the small datasets' samples for about 1.7 s more per pass.
PASS = DATASETS[:4] * 2 + ["movies"]
MIN_PASSES = 2
#: Seconds of ``--seconds`` per pass: a pass takes about 10 s normalised and
#: 10–16 s of wall time on a 2-vCPU virtual machine.
PASS_SECONDS = 15


def make_tables(seed: int) -> Dict[str, object]:
    from repro.datasets import load_dataset

    return {name: load_dataset(name, seed=seed, scale=SCALE).dirty for name in DATASETS}


def clean_digests(result) -> Dict[str, str]:
    from repro.dataframe.io import to_csv_text

    return {"csv": sha256(to_csv_text(result.cleaned_table)), "sql": sha256(result.sql_script)}


def check_clean(
    outcome: Outcome,
    name: str,
    table,
    result,
    expected: Optional[Dict[str, str]],
    full: bool,
) -> Dict[str, str]:
    """Output checks for one clean; returns its digests."""
    digests = clean_digests(result)
    if full:
        for problem in lineage_gate_errors(result.lineage, table, result.cleaned_table):
            outcome.fail(f"{name}: {problem}")
    if expected is not None and digests != expected:
        outcome.fail(f"{name}: cleaned-table/SQL digests {digests} != expected {expected}")
    return digests


def _clean(table, gauge: SpeedGauge):
    """(normalised seconds, wall seconds, result, cleaner) of one fresh clean."""
    from repro.core.pipeline import CocoonCleaner

    cleaner = CocoonCleaner()
    normalised, wall, result = gauge.time(lambda: cleaner.clean(table))
    return normalised, wall, result, cleaner


def run(seed: int, seconds: float, trace: bool, pinned: Optional[dict]) -> Outcome:
    # Traced runs take no probes inside operations: they would count in the
    # self time of whichever layer they interrupted.
    with SpeedGauge(sample=not trace) as gauge:
        return _run(seed, seconds, trace, pinned, gauge)


def _run(
    seed: int, seconds: float, trace: bool, pinned: Optional[dict], gauge: SpeedGauge
) -> Outcome:
    outcome = Outcome()
    setups: List[float] = []
    for _ in range(SETUP_REPEATS):
        tables = None
        elapsed, tables = time_setup(gauge, lambda: make_tables(seed))
        setups.append(elapsed)

    pinned_digests = pinned.get("digests") if pinned else None
    digests: Dict[str, Dict[str, str]] = {}
    times: Dict[str, List[float]] = {name: [] for name in DATASETS}
    wall_times: Dict[str, List[float]] = {name: [] for name in DATASETS}
    tokens: Dict[str, int] = {}
    pass_seconds: List[float] = []
    tracer = LayerTracer() if trace else None
    traced_times: Dict[str, List[float]] = {name: [] for name in DATASETS}
    traced_wall = 0.0
    traced_stats: Dict[str, Dict[str, float]] = {}
    passes = max(MIN_PASSES, int(seconds / PASS_SECONDS))
    for number in range(passes):
        pass_total = 0.0
        for index, name in enumerate(PASS):
            # A traced run traces every other clean, alternating between
            # passes, so each dataset has traced cleans and untraced ones
            # (the overhead baseline).
            traced_clean = tracer is not None and (index + number) % 2 == 1
            outcome.attempted += 1
            if traced_clean:
                tracer.install()
                before = tracer.snapshot()
            try:
                elapsed, wall, result, cleaner = _clean(tables[name], gauge)
            except Exception as exc:  # noqa: BLE001 - a failed clean is a failed operation
                outcome.fail(f"{name}: clean raised {type(exc).__name__}: {exc}")
                continue
            finally:
                if traced_clean:
                    stats = diff(tracer.snapshot(), before)
                    tracer.uninstall()
            pass_total += elapsed
            if traced_clean:
                traced_times[name].append(elapsed)
                traced_wall += wall
                accumulate(traced_stats, stats)
            else:
                times[name].append(elapsed)
                wall_times[name].append(wall)
            expected = digests.get(name) or (pinned_digests or {}).get(name)
            digests[name] = check_clean(
                outcome, name, tables[name], result, expected, full=name not in digests
            )
            tokens[name] = llm_tokens(cleaner.llm.history)
        pass_seconds.append(pass_total)

    if any(not times[name] for name in DATASETS):
        outcome.fail("some dataset has no successful clean", operations=0)
        return outcome

    outcome.note(f"clean_registry: {passes} passes of {len(PASS)} cleans at scale {SCALE}")
    if not trace:
        cleans = sum(len(times[name]) for name in DATASETS)
        outcome.metric("setup_s", median(setups), "s", len(setups))
        outcome.metric("peak_rss_mb", peak_rss_mb_self(), "MB")
        outcome.metric("cold_s", median(pass_seconds), "s", len(pass_seconds))
        outcome.metric("op_ms", 1000 * geomean_of_medians(times), "ms", cleans)
        outcome.metric("tail_ms", 1000 * max(median(v) for v in times.values()), "ms", passes)
        outcome.note("breakdown (printed only, not in the JSON result; normalised / wall):")
        for name in DATASETS:
            outcome.note(
                f"clean_s.{name:<10} {median(times[name]):10.4f} / {median(wall_times[name]):.4f} s"
                f"  (n={len(times[name])}, llm_tokens={tokens[name]})"
            )
        gauge.report(outcome)
        outcome.note(f"llm_tokens per clean {sum(tokens.values()) / len(tokens):.1f}")
        return outcome

    # Traced run: per-layer metrics per clean, from the traced cleans only.
    missing = missing_layers("clean_registry", traced_stats)
    if missing:
        outcome.fail(f"traced run recorded no calls in layers {missing}", operations=0)
    traced_cleans = [t for name in DATASETS for t in traced_times[name]]
    overheads = [
        median(traced_times[name]) / median(times[name]) for name in DATASETS if traced_times[name]
    ]
    # Coverage compares layer time with wall time, both unscaled.
    outcome.layers = layer_metrics(traced_stats, len(traced_cleans), traced_wall, median(overheads))
    outcome.note(f"traced cleans: {len(traced_cleans)}")
    return outcome


def pinned_counters(seed: int) -> Dict[str, object]:
    """Work counters and digests of one traced pass, for ``pinned.json``."""
    tables = make_tables(seed)
    gauge = SpeedGauge(sample=False)
    tracer = LayerTracer()
    counters: Dict[str, Dict[str, int]] = {}
    digests: Dict[str, Dict[str, str]] = {}
    for name in DATASETS:
        tracer.install()
        try:
            before = tracer.snapshot()
            _, _, result, _ = _clean(tables[name], gauge)
            counters[name] = work_counters(diff(tracer.snapshot(), before))
        finally:
            tracer.uninstall()
        digests[name] = clean_digests(result)
    return {"counters": counters, "digests": digests}
