"""Workload ``stream_steady``: closed-loop steady-state micro-batches.

One producer feeds ``STREAMS`` independent streams in turn, each a
``StreamingCleaner`` with its defaults (drift detection on).  Each stream
primes on its own hospital scale-0.5 backfill (500 rows, plus the first
traffic batch), then receives a fixed number of steady 25-row batches sampled
from that backfill with ``steady_state_stream``.  The batch count follows from
``--seconds`` and a pinned rate, not from how fast batches run, so a parent
and a change do the same work (per-batch cost grows with stream length).
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List, Optional, Tuple

from common import (
    SETUP_REPEATS,
    Outcome,
    SpeedGauge,
    lineage_gate_errors,
    peak_rss_mb_self,
    percentile,
    sha256,
    time_setup,
)
from layers import LayerTracer, accumulate, diff
from perlayer import layer_metrics, missing_layers, work_counters

DATASET = "hospital"
SCALE = 0.5
BATCH_ROWS = 25
#: Independent streams per run; ``cold_s`` is the median of their primes.
STREAMS = 5
#: Steady batches per requested second, over all streams.  With the primes
#: (about 4.8 s each) a run of the seed commit lasts a little longer than
#: ``--seconds``, and a 30-s run has 180 steady batches.
BATCHES_PER_SECOND = 6
#: Steady batches in the pinned work-counter run.
PINNED_BATCHES = 20


def make_stream(seed: int, steady_batches: int) -> Tuple[object, int, List[object]]:
    """(whole table, priming window, batches).

    Batch 0 is the priming window (the backfill plus the first traffic
    batch); ``steady_batches`` steady batches follow it.
    """
    from repro.datasets import load_dataset
    from repro.stream import partition_table, steady_state_stream

    backfill = load_dataset(DATASET, seed=seed, scale=SCALE).dirty
    whole, prime_rows = steady_state_stream(backfill, steady_batches + 1, BATCH_ROWS, seed=seed)
    batches = partition_table(whole, list(range(prime_rows, whole.num_rows, BATCH_ROWS)))
    return whole, prime_rows, batches


def output_digest(cleaner) -> str:
    from repro.dataframe.io import to_csv_text

    return sha256(to_csv_text(cleaner.cleaned_table()))


def prime(prime_rows: int, first_batch, gauge: SpeedGauge) -> Tuple[object, float, object]:
    """(cleaner, normalised seconds, result) of priming a new stream."""
    from repro.stream import StreamingCleaner

    cleaner = StreamingCleaner(DATASET, prime_rows=prime_rows)
    elapsed, _, result = gauge.time(lambda: cleaner.process_batch(first_batch))
    return cleaner, elapsed, result


def check_steady(outcome: Outcome, index: int, result) -> None:
    if not result.replayed or result.llm_calls or result.drifted_columns:
        outcome.fail(
            f"batch {index}: replayed={result.replayed} llm_calls={result.llm_calls} "
            f"drifted={result.drifted_columns}"
        )


def check_final(
    outcome: Outcome, cleaner, whole, primed_digest: str, expected: Optional[str]
) -> str:
    """End-of-run checks: no re-plan, output unchanged by steady traffic, lineage gate."""
    if cleaner.stats.replans:
        outcome.fail(f"{cleaner.stats.replans} re-plans in a steady stream", operations=0)
    digest = output_digest(cleaner)
    # Steady traffic re-sends rows the backfill already holds, so it never
    # changes the cumulative output the prime produced.
    if digest != primed_digest:
        outcome.fail("steady batches changed the cumulative output", operations=0)
    if expected is not None and digest != expected:
        outcome.fail(f"final output digest {digest} != pinned {expected}", operations=0)
    ingested = whole.take(list(range(cleaner.stats.rows_ingested)))
    for problem in lineage_gate_errors(cleaner.lineage, ingested, cleaner.cleaned_table()):
        outcome.fail(f"stream lineage: {problem}", operations=0)
    return digest


def stream_seed(seed: int, index: int) -> int:
    """Data seed of stream ``index``: stream 0 uses the run seed itself."""
    return seed + 1000 * index


def run(seed: int, seconds: float, trace: bool, pinned: Optional[dict]) -> Outcome:
    # Traced runs take no probes inside operations: they would count in the
    # self time of whichever layer they interrupted.
    with SpeedGauge(sample=not trace) as gauge:
        return _run(seed, seconds, trace, pinned, gauge)


def _run(
    seed: int, seconds: float, trace: bool, pinned: Optional[dict], gauge: SpeedGauge
) -> Outcome:
    outcome = Outcome()
    per_stream = max(PINNED_BATCHES, int(seconds * BATCHES_PER_SECOND) // STREAMS)

    def make_streams():
        return [make_stream(stream_seed(seed, i), per_stream) for i in range(STREAMS)]

    setups: List[float] = []
    for _ in range(SETUP_REPEATS):
        streams = None
        elapsed, streams = time_setup(gauge, make_streams)
        setups.append(elapsed)

    tracer = LayerTracer() if trace else None
    primes: List[float] = []
    untraced: List[float] = []
    untraced_wall: List[float] = []
    traced: List[float] = []
    traced_wall = 0.0
    traced_stats: Dict[str, Dict[str, float]] = {}
    expected = pinned.get("final_csv") if pinned else None
    for number, (whole, prime_rows, batches) in enumerate(streams):
        outcome.attempted += 1
        cleaner, prime_s, primed = prime(prime_rows, batches[0], gauge)
        if not primed.primed:
            outcome.fail(f"stream {number}: the first batch did not prime the stream")
            continue
        primes.append(prime_s)
        primed_digest = output_digest(cleaner)
        for index, batch in enumerate(batches[1:], start=1):
            # Traced runs alternate traced and untraced batches, so the
            # overhead figure compares batches at the same stream length.
            traced_batch = tracer is not None and index % 2 == 0
            if traced_batch:
                tracer.install()
                before = tracer.snapshot()
            outcome.attempted += 1
            try:
                elapsed, wall, result = gauge.time(lambda: cleaner.process_batch(batch))
            except Exception as exc:  # noqa: BLE001 - a failed batch is a failed operation
                outcome.fail(f"stream {number} batch {index} raised {type(exc).__name__}: {exc}")
                continue
            finally:
                if traced_batch:
                    accumulate(traced_stats, diff(tracer.snapshot(), before))
                    tracer.uninstall()
            if traced_batch:
                traced.append(elapsed)
                traced_wall += wall
            else:
                untraced.append(elapsed)
                untraced_wall.append(wall)
            check_steady(outcome, index, result)
        # The pinned digest belongs to stream 0 of the committed seed.
        check_final(outcome, cleaner, whole, primed_digest, expected if number == 0 else None)

    outcome.note(
        f"stream_steady: {STREAMS} streams, each primed on {streams[0][1]} rows and then fed "
        f"{per_stream} steady {BATCH_ROWS}-row batches"
    )
    if len(untraced) < 2 or not primes:
        outcome.fail("fewer than two steady batches ran", operations=0)
        return outcome
    if not trace:
        outcome.metric("setup_s", median(setups), "s", len(setups))
        outcome.metric("peak_rss_mb", peak_rss_mb_self(), "MB")
        outcome.metric("cold_s", median(primes), "s", len(primes))
        outcome.metric("op_ms", 1000 * median(untraced), "ms", len(untraced))
        outcome.metric("tail_ms", 1000 * percentile(untraced, 90), "ms", len(untraced))
        outcome.note("breakdown (printed only, not in the JSON result; normalised / wall):")
        outcome.note(
            f"prime_s {median(primes):.4f} s (n={len(primes)}); batch_ms_p50 "
            f"{1000 * median(untraced):.3f} / {1000 * median(untraced_wall):.3f} ms, batch_ms_p90 "
            f"{1000 * percentile(untraced, 90):.3f} / {1000 * percentile(untraced_wall, 90):.3f} ms"
            f" (n={len(untraced)})"
        )
        gauge.report(outcome)
        return outcome

    missing = missing_layers("stream_steady", traced_stats)
    if missing:
        outcome.fail(f"traced run recorded no calls in layers {missing}", operations=0)
    outcome.layers = layer_metrics(
        traced_stats, len(traced), traced_wall, median(traced) / median(untraced)
    )
    outcome.note(f"traced batches: {len(traced)}, untraced batches: {len(untraced)}")
    return outcome


def pinned_counters(seed: int) -> Dict[str, object]:
    """Work counters of the first steady batches, and the final output digest."""
    _, prime_rows, batches = make_stream(seed, PINNED_BATCHES)
    cleaner, _, _ = prime(prime_rows, batches[0], SpeedGauge(sample=False))
    tracer = LayerTracer().install()
    try:
        for batch in batches[1:]:
            cleaner.process_batch(batch)
        counters = work_counters(tracer.snapshot())
    finally:
        tracer.uninstall()
    return {
        "batches": PINNED_BATCHES,
        "counters": counters,
        "final_csv": output_digest(cleaner),
    }
