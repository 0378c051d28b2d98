"""Shared helpers: statistics, digests, output checks and metric tables."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINNED_PATH = BENCH_DIR / "pinned.json"
#: Scratch space inside the checkout (listed in the root .gitignore).
WORK_DIR = ROOT / ".perfbench_work"

#: How many times each run repeats its set-up, one after another before the
#: measured operations; ``setup_s`` is the median.
SETUP_REPEATS = 7


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def geomean_of_medians(groups: Dict[Any, Sequence[float]]) -> float:
    """Geometric mean of each group's median: every group weighs the same."""
    return statistics.geometric_mean([statistics.median(v) for v in groups.values() if v])


#: Seconds one speed probe takes on the machine that normalised times are
#: expressed for (a 2-vCPU Xeon virtual machine at 2.1 GHz, where it takes
#: 2.5–5 ms).
PROBE_REFERENCE_S = 0.003
#: Seconds between speed probes taken inside a long operation.
PROBE_EVERY_S = 0.1


def probe(items: int = 4000) -> int:
    """A fixed pure-Python task that uses nothing from the program under test.

    String formatting, dict updates, tuple lists, a keyed sort and a join:
    the interpreter work a clean is made of, so a slower machine phase slows
    it about as much as it slows the program.
    """
    counts: Dict[str, int] = {}
    pairs = []
    for i in range(items):
        key = "k%d" % (i % 997)
        counts[key] = counts.get(key, 0) + len(key)
        pairs.append((key, i * 7919 % 10007))
    pairs.sort(key=lambda pair: pair[1])
    return len(counts) + len(",".join(key for key, _ in pairs[:1000]))


class SpeedGauge:
    """Rescales operation times to a machine of fixed speed.

    A shared host's speed drifts by up to 2× in phases of seconds to minutes,
    and the same single-threaded work slows with it (process CPU time too,
    so it is not steal time).  The gauge times ``probe`` just before and just
    after every operation and, when sampling, every ``PROBE_EVERY_S`` inside
    it from a ``SIGALRM`` handler; an operation's normalised time is its wall
    time, less the probes inside it, times ``PROBE_REFERENCE_S`` over the mean
    of those probes.  Use it as a context manager; only a sampling gauge
    touches the process's signal handler and interval timer.

    The probe runs with the collector off: after a large operation its
    allocations would otherwise trigger a collection of that operation's
    garbage and time it too.
    """

    def __init__(self, sample: bool) -> None:
        self.sample = sample
        self.probes: List[float] = []
        self._busy = False
        self._read()

    def __enter__(self) -> "SpeedGauge":
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, lambda *_: self._read())
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def _read(self) -> None:
        if self._busy:  # the timer fired during a probe
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            probe()
            self.probes.append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def time(self, operation: Callable[[], Any]) -> Tuple[float, float, Any]:
        """(normalised seconds, wall seconds, value) of ``operation()``.

        The wall time excludes the probes taken inside the operation.
        """
        first = len(self.probes)
        start = time.perf_counter()
        try:
            value = operation()
            wall = time.perf_counter() - start - sum(self.probes[first:])
        finally:
            self._read()
        speed = statistics.fmean(self.probes[first - 1 :])
        return wall * PROBE_REFERENCE_S / speed, wall, value

    def report(self, outcome: "Outcome") -> None:
        outcome.note(
            f"speed probe median {1000 * statistics.median(self.probes):.3f} ms "
            f"(reference {1000 * PROBE_REFERENCE_S:g} ms, n={len(self.probes)})"
        )


def time_setup(gauge: SpeedGauge, make: Callable[[], Any]) -> Tuple[float, Any]:
    """(normalised seconds, value) of one set-up, timed after a full garbage collection."""
    gc.collect()
    normalised, _, value = gauge.time(make)
    return normalised, value


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb_self() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set size of another live process, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def llm_tokens(history: Sequence[Any]) -> int:
    """Estimated prompt + completion tokens of the calls that reached the model."""
    from repro.llm.base import estimate_tokens

    return sum(
        estimate_tokens(record.prompt) + estimate_tokens(record.response)
        for record in history
        if not record.cache_hit
    )


def load_pinned() -> Dict[str, Any]:
    with open(PINNED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def lineage_gate_errors(recorder: Any, dirty: Any, cleaned: Any) -> List[str]:
    """Compare a run's lineage cells with the strict cell diff of input vs output.

    Returns human-readable problems (empty when lineage explains exactly the
    changed cells, with matching before/after values).
    """
    from repro.datasets.base import strict_differs
    from repro.obs.lineage import values_strictly_differ

    removed = recorder.removed_row_ids()
    survivors = [r for r in range(dirty.num_rows) if r not in removed]
    if cleaned.num_rows != len(survivors):
        return [f"row parity: {dirty.num_rows} in - {len(removed)} removed != {cleaned.num_rows} out"]
    shared = [c for c in dirty.column_names if c in cleaned.column_names]
    diff = {}
    for column in shared:
        before_values = dirty.column(column).values
        after_values = cleaned.column(column).values
        for position, row in enumerate(survivors):
            if strict_differs(before_values[row], after_values[position]):
                diff[(row, column)] = (before_values[row], after_values[position])
    cells = recorder.changed_cells()
    errors = []
    orphans = set(cells) - set(diff)
    unexplained = set(diff) - set(cells)
    if orphans:
        errors.append(f"lineage records for unchanged cells: {sorted(orphans)[:5]}")
    if unexplained:
        errors.append(f"changed cells without lineage: {sorted(unexplained)[:5]}")
    for cell, (before, after) in diff.items():
        if cell in cells and (
            values_strictly_differ(cells[cell][0], before)
            or values_strictly_differ(cells[cell][1], after)
        ):
            errors.append(f"lineage values differ at {cell}")
            break
    return errors


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Human-readable report lines printed before the JSON result.
    report: List[str] = field(default_factory=list)
    #: Per-layer metric values of a traced run (``perlayer.PER_LAYER`` names).
    layers: Dict[str, float] = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str, samples: Optional[int] = None) -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        suffix = f"  (n={samples})" if samples is not None else ""
        self.report.append(f"  {name:<36} {value:>14.6g} {unit}{suffix}")

    def note(self, line: str) -> None:
        self.report.append(f"  {line}")

    def fail(self, problem: str, operations: int = 1) -> None:
        """Record a failed operation or output check (counts into ``failed``)."""
        self.problems.append(problem)
        self.failed += operations

    @property
    def correct(self) -> bool:
        return not self.problems


def ensure_work_dir() -> Path:
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    return WORK_DIR


def source_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
