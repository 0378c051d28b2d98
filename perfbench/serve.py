"""Workload ``serve_jobs``: open-loop jobs against ``python -m repro.server``.

The server runs in its own process with ``--llm-latency 0.02`` and otherwise
default flags.  One client thread sends jobs on a fixed schedule at ``RATE``
jobs per second: first one original per slot (hospital, flights, beers and
rayyan at scale 0.1 in turn, data seeds from the run's seed), then each
original again, byte for byte, half the schedule later, so the resubmission
meets a warm prompt cache.  The order does not depend on the seed: which jobs
overlap in the server, and so contend for its interpreter lock, is the same
in every run.  A job is POST ``/v1/jobs``, polling ``/v1/jobs/{id}`` and GET
``/v1/jobs/{id}/result``; its latency runs from its scheduled send time.
"""

from __future__ import annotations

import http.client
import json
import math
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

from common import (
    BENCH_DIR,
    SETUP_REPEATS,
    Outcome,
    SpeedGauge,
    ensure_work_dir,
    geomean_of_medians,
    peak_rss_mb_of,
    percentile,
    sha256,
    source_env,
    time_setup,
)
from perlayer import layer_metrics, missing_layers, work_counters

DATASETS = ["hospital", "flights", "beers", "rayyan"]
SCALE = 0.1
LLM_LATENCY = 0.02
#: Jobs per second, pinned well below the default 4-worker server's capacity
#: (about 1.3 jobs/s when the machine is fast), so a slow machine phase
#: lengthens jobs without building a queue; at 0.8 jobs/s, first-submission
#: latencies in a slow phase rose up to 1.9×.
RATE = 0.5
POLL_SECONDS = 0.05
#: Give up on a job this long after its scheduled send time.
JOB_TIMEOUT_S = 90.0
BOOT_TIMEOUT_S = 30.0


@dataclass
class Job:
    name: str
    csv: str
    due: float
    original: bool
    job_id: Optional[int] = None
    lag_s: float = 0.0
    latency_s: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None


@dataclass
class Phase:
    """One server lifetime under one schedule."""

    jobs: List[Job] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    cache: Dict[str, Any] = field(default_factory=dict)
    layer_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)


def make_tables(seed: int, originals: int) -> List[Tuple[str, str]]:
    """(name, csv) of each original, datasets in turn, data seeds from ``seed``."""
    from repro.dataframe.io import to_csv_text
    from repro.datasets import load_dataset

    tables = []
    for index in range(originals):
        dataset = DATASETS[index % len(DATASETS)]
        data_seed = seed + index // len(DATASETS)
        table = load_dataset(dataset, seed=data_seed, scale=SCALE).dirty
        tables.append((f"{dataset}_s{data_seed}", to_csv_text(table)))
    return tables


def originals_for(seconds: float) -> int:
    """Originals in a schedule of ``seconds``, rounded up to a multiple of the dataset count."""
    per_round = len(DATASETS)
    return math.ceil(seconds * RATE / 2 / per_round) * per_round


def schedule(tables: List[Tuple[str, str]]) -> List[Job]:
    """The originals, then the same tables again in the same order."""
    jobs = [Job(name, csv, 0.0, True) for name, csv in tables]
    jobs += [Job(name, csv, 0.0, False) for name, csv in tables]
    for slot, job in enumerate(jobs):
        job.due = slot / RATE
    return jobs


# -- the server process ------------------------------------------------------------
class Server:
    def __init__(self, traced: bool, tag: str):
        work = ensure_work_dir()
        self.port_file = work / f"port-{tag}"
        self.dump_file = work / f"layers-{tag}.json"
        for path in (self.port_file, self.dump_file):
            path.unlink(missing_ok=True)
        server_args = [
            "--port", "0",
            "--port-file", str(self.port_file),
            "--llm-latency", str(LLM_LATENCY),
        ]
        if traced:
            command = [sys.executable, str(BENCH_DIR / "serve_traced.py"), str(self.dump_file)]
        else:
            command = [sys.executable, "-m", "repro.server"]
        self.process = subprocess.Popen(
            command + server_args,
            env=source_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        self.port = self._wait_healthy()
        self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def _wait_healthy(self) -> int:
        deadline = time.perf_counter() + BOOT_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with code {self.process.returncode}")
            text = self.port_file.read_text() if self.port_file.exists() else ""
            if text.strip():
                port = int(text)
                try:
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
                    conn.request("GET", "/healthz")
                    response = conn.getresponse()
                    body = json.loads(response.read())
                    conn.close()
                    if response.status == 200 and body.get("status") == "ok":
                        return port
                except OSError:
                    pass
            time.sleep(0.005)
        self.stop()
        raise RuntimeError("server did not become healthy")

    def request(self, method: str, path: str, payload: Optional[dict] = None) -> Tuple[int, Any]:
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        for attempt in range(2):
            try:
                self.conn.request(method, path, body=body, headers=headers)
                response = self.conn.getresponse()
                return response.status, json.loads(response.read())
            except (http.client.HTTPException, ConnectionError):
                # A dropped keep-alive connection: reconnect once.
                self.conn.close()
                self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def stop(self) -> None:
        """SIGTERM (the server drains and exits), then wait."""
        if hasattr(self, "conn"):
            self.conn.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()

    def layer_stats(self) -> Dict[str, Dict[str, float]]:
        return json.loads(self.dump_file.read_text()) if self.dump_file.exists() else {}


# -- load generation ---------------------------------------------------------------
def drive(server: Server, jobs: List[Job]) -> None:
    """Send every job on schedule from this one thread and collect its result."""
    start = time.perf_counter() + 0.01
    pending = list(jobs)
    outstanding: Dict[int, Job] = {}

    def send_due() -> None:
        # Called before every request, so polling never delays a send by
        # more than one request.
        while pending and start + pending[0].due <= time.perf_counter():
            job = pending.pop(0)
            job.lag_s = time.perf_counter() - (start + job.due)
            status, doc = server.request("POST", "/v1/jobs", {"csv": job.csv, "name": job.name})
            if status != 202:
                job.error = f"submit refused with {status}: {doc}"
                continue
            job.job_id = doc["job_id"]
            outstanding[job.job_id] = job

    while pending or outstanding:
        send_due()
        for job_id, job in list(outstanding.items()):
            send_due()
            status, doc = server.request("GET", f"/v1/jobs/{job_id}")
            if status == 200 and doc["done"]:
                status, result = server.request("GET", f"/v1/jobs/{job_id}/result")
                job.latency_s = time.perf_counter() - (start + job.due)
                del outstanding[job_id]
                if status != 200 or result.get("status") != "succeeded":
                    job.error = f"job failed ({status}): {result.get('error', result)}"
                else:
                    job.result = result
            elif time.perf_counter() - (start + job.due) > JOB_TIMEOUT_S:
                job.error = f"no result within {JOB_TIMEOUT_S:g} s"
                del outstanding[job_id]
        now = time.perf_counter()
        wake = now + POLL_SECONDS
        if pending:
            wake = min(wake, start + pending[0].due)
        if wake > now:
            time.sleep(wake - now)


def run_phase(server: Server, jobs: List[Job]) -> Phase:
    phase = Phase(jobs=jobs)
    try:
        drive(server, jobs)
        status, metrics = server.request("GET", "/metrics")
        if status == 200:
            phase.cache = metrics.get("cache", {})
        phase.peak_rss_mb = peak_rss_mb_of(server.process.pid)
    finally:
        server.stop()
    phase.layer_stats = server.layer_stats()
    return phase


def check_outputs(outcome: Outcome, phases: List[Phase]) -> int:
    """Every served CSV and script must equal an in-process clean of the same CSV.

    Returns the estimated tokens of the distinct prompts those cleans sent:
    what the model is billed when each prompt reaches it once and every
    repeat is a prompt-cache hit.
    """
    from repro.core.pipeline import CocoonCleaner
    from repro.dataframe.io import read_csv_text, to_csv_text
    from repro.llm.base import estimate_tokens

    references: Dict[str, Tuple[str, str]] = {}
    prompt_tokens: Dict[str, int] = {}
    for phase in phases:
        for job in phase.jobs:
            outcome.attempted += 1
            if job.error is not None or job.result is None:
                outcome.fail(f"{job.name}: {job.error}")
                continue
            if job.name not in references:
                table = read_csv_text(job.csv, name=job.name, infer_types=False)
                cleaner = CocoonCleaner()
                result = cleaner.clean(table)
                references[job.name] = (
                    sha256(to_csv_text(result.cleaned_table)),
                    sha256(result.sql_script),
                )
                for record in cleaner.llm.history:
                    prompt_tokens[record.cache_key] = estimate_tokens(
                        record.prompt
                    ) + estimate_tokens(record.response)
            served = (sha256(job.result["csv"]), sha256(job.result["sql_script"]))
            if served != references[job.name]:
                kind = "original" if job.original else "resubmission"
                outcome.fail(f"{job.name} ({kind}): served output differs from in-process clean")
    return sum(prompt_tokens.values())


def _setup(seed: int, originals: int, traced: bool) -> Tuple[List[Job], Server]:
    jobs = schedule(make_tables(seed, originals))
    return jobs, Server(traced=traced, tag="traced" if traced else "plain")


def run(seed: int, seconds: float, trace: bool, pinned: Optional[dict]) -> Outcome:
    outcome = Outcome()
    gauge = SpeedGauge(sample=False)
    setups: List[float] = []
    originals = originals_for(seconds / 2 if trace else seconds)
    for repeat in range(SETUP_REPEATS):
        elapsed, (jobs, server) = time_setup(gauge, lambda: _setup(seed, originals, traced=False))
        setups.append(elapsed)
        if repeat < SETUP_REPEATS - 1:
            server.stop()
    phases = [run_phase(server, jobs)]
    if trace:
        # Same schedule again against a traced server: the first phase is
        # the untraced baseline for the overhead figure.
        jobs, server = _setup(seed, originals, traced=True)
        phases.append(run_phase(server, jobs))
    distinct_tokens = check_outputs(outcome, phases)
    outcome.note(
        f"serve_jobs: {len(phases[0].jobs)} jobs per phase at {RATE:g}/s, "
        f"{originals} originals + {originals} resubmissions"
    )
    done = [[j for j in p.jobs if j.latency_s is not None and j.error is None] for p in phases]
    if not all(len(d) >= 2 for d in done):
        outcome.fail("fewer than two jobs completed", operations=0)
        return outcome
    latencies = [j.latency_s for j in done[0]]
    lags_ms = [1000 * j.lag_s for p in phases for j in p.jobs]
    if not trace:
        # Half the jobs are cold and half warm, so the plain median sits on
        # the gap between the two; per-group medians do not.
        groups: Dict[Tuple[str, bool], List[float]] = {}
        for job in done[0]:
            groups.setdefault((job.name.split("_")[0], job.original), []).append(job.latency_s)
        cold = {key: values for key, values in groups.items() if key[1]}
        outcome.metric("setup_s", median(setups), "s", len(setups))
        outcome.metric("peak_rss_mb", phases[0].peak_rss_mb, "MB")
        outcome.metric("cold_s", geomean_of_medians(cold), "s", sum(map(len, cold.values())))
        outcome.metric("op_ms", 1000 * geomean_of_medians(groups), "ms", len(latencies))
        outcome.metric("tail_ms", 1000 * percentile(latencies, 90), "ms", len(latencies))
        outcome.note("breakdown (printed only, not in the JSON result):")
        outcome.note(
            f"job_s_p50 {median(latencies):.4f} s, job_s_p90 {percentile(latencies, 90):.4f} s "
            f"(n={len(latencies)}); generator lag p90 {percentile(lags_ms, 90):.3f} ms"
        )
        outcome.note(
            f"llm_tokens per job {distinct_tokens / len(phases[0].jobs):.1f} (distinct prompts; "
            f"server prompt cache {phases[0].cache})"
        )
        return outcome

    traced = done[1]
    stats = phases[1].layer_stats
    missing = missing_layers("serve_jobs", stats)
    if missing:
        outcome.fail(f"traced run recorded no calls in layers {missing}", operations=0)
    run_s = [j.result["run_seconds"] for j in traced]
    wait_s = [j.result["wait_seconds"] for j in traced]
    overhead_s = [j.latency_s - j.result["run_seconds"] - j.result["wait_seconds"] for j in traced]
    # Coverage is measured against the jobs' run time on the worker threads.
    outcome.layers = layer_metrics(
        stats,
        len(traced),
        sum(run_s),
        median([j.latency_s for j in traced]) / median(latencies),
        **{
            "service.wait_s_p50": median(wait_s),
            "service.run_s_p50": median(run_s),
            "server.overhead_s_p50": median(overhead_s),
            "harness.generator_lag_ms_p90": percentile(lags_ms, 90),
        },
    )
    return outcome


def pinned_counters(seed: int) -> Dict[str, object]:
    """Order-independent work counters of one small traced schedule."""
    jobs = schedule(make_tables(seed, len(DATASETS)))
    server = Server(traced=True, tag="pinned")
    phase = run_phase(server, jobs)
    failed = [job.name for job in jobs if job.result is None]
    if failed:
        raise RuntimeError(f"pinned schedule jobs failed: {failed}")
    counters = work_counters(phase.layer_stats)
    # Cache hits depend on which job reaches a prompt first; logical calls,
    # profiles, statements, rows and lineage records do not.
    counters["llm.calls"] = sum(job.result["llm_calls"] for job in jobs)
    return {"jobs": len(jobs), "counters": counters}
