"""Per-layer timing and work counters, recorded from outside the program.

The benchmark does not change ``src/``.  Instead :class:`LayerTracer` wraps the
public functions of each layer at the name its callers look up — the
``profile_table`` that ``repro.core.context`` imported, the ``discover_fds``
that ``repro.profiling.table_profile`` imported, the ``sleep`` the simulated
model calls through ``repro.llm.simulated.time`` — and restores the originals
on :meth:`LayerTracer.uninstall`.

Each wrapped call records, per thread:

* ``calls`` — outermost entries into the layer (a recursive or nested call to
  the same layer, such as ``ColumnarBinding.compile`` on a sub-expression or a
  caching client delegating to its inner model, is part of the outer call);
* ``self_s`` — wall time inside the layer minus the time spent inside other
  wrapped layers it called, so the self times of all layers add up to the
  time covered by measured layers;
* work counters (rows out, tokens, lineage records, FD-operator runs).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.llm.base import estimate_tokens

# (layer, "module:attribute path").  A dotted attribute path names a method
# on a class; a plain name is a module global, patched in the module whose
# code calls it.
TARGETS: List[Tuple[str, str]] = [
    ("profiling.profile_table", "repro.core.context:profile_table"),
    ("profiling.discover_fds", "repro.profiling.table_profile:discover_fds"),
    ("profiling.profile_column", "repro.profiling.table_profile:profile_column"),
    ("profiling.duplicates", "repro.profiling.table_profile:duplicate_row_count"),
    ("profiling.duplicates", "repro.profiling.table_profile:duplicate_row_samples"),
    ("profiling.incremental", "repro.profiling.incremental:IncrementalFDState.update"),
    ("profiling.incremental", "repro.profiling.incremental:IncrementalFDState.candidates"),
    ("profiling.incremental", "repro.profiling.incremental:IncrementalFDState.violation_groups"),
    ("profiling.incremental", "repro.profiling.incremental:IncrementalDuplicateState.update"),
    ("profiling.mergeable", "repro.profiling.mergeable:MergeableColumnProfile.update"),
    ("profiling.mergeable", "repro.profiling.mergeable:MergeableColumnProfile.merge"),
    ("profiling.mergeable", "repro.profiling.mergeable:MergeableColumnProfile.profile"),
    ("profiling.mergeable", "repro.profiling.mergeable:MergeableColumnProfile.of"),
    ("llm.client", "repro.llm.base:LLMClient.complete"),
    ("llm.model", "repro.llm.simulated:SimulatedSemanticLLM._complete"),
    ("sql.query", "repro.sql.database:Database.sql"),
    ("sql.parse", "repro.sql.database:parse"),
    ("sql.plan", "repro.sql.executor:plan_select"),
    ("sql.compile", "repro.sql.compiler:ColumnarBinding.compile"),
    ("sql.compile", "repro.sql.compiler:ColumnarBinding.compile_aggregate"),
    ("sql.execute", "repro.sql.executor:Executor.execute"),
    ("core.diff_tables", "repro.core.operators.base:diff_tables"),
    ("obs.lineage", "repro.core.operators.base:strict_table_edits"),
    ("obs.lineage", "repro.core.plan:CleaningPlan._record_replay_step"),
    ("obs.lineage", "repro.obs.lineage:LineageRecorder.record_edit"),
    ("obs.lineage", "repro.obs.lineage:LineageRecorder.record_removal"),
    ("obs.lineage", "repro.obs.lineage:LineageRecorder.record_step_edits"),
    ("obs.lineage", "repro.obs.lineage:LineageRecorder.discard_removals"),
    ("stream.ingest", "repro.stream.engine:StreamingCleaner._ingest_raw"),
    ("stream.replay", "repro.stream.engine:StreamingCleaner._replay_rows"),
    ("stream.drift", "repro.stream.drift:DriftDetector.assess"),
    ("stream.state", "repro.stream.state:TableLevelState.apply_batch"),
    ("stream.state", "repro.stream.engine:StreamingCleaner._record_removals"),
]

#: Every cleaning operator's ``run`` is wrapped as this layer; its self time
#: is operator logic not covered by another layer.
OPERATOR_LAYER = "core.operators"
#: The simulated model's per-call latency, patched at ``repro.llm.simulated.time``.
WAIT_LAYER = "llm.wait"


def _count_rows_out(stats: Dict[str, float], args: tuple, kwargs: dict, result: Any) -> None:
    if result is not None:
        stats["rows_out"] = stats.get("rows_out", 0) + result.num_rows


def _count_tokens(stats: Dict[str, float], args: tuple, kwargs: dict, result: Any) -> None:
    prompt = args[1] if len(args) > 1 else kwargs.get("prompt", "")
    stats["tokens"] = stats.get("tokens", 0) + estimate_tokens(prompt) + estimate_tokens(result)


def _count_fd_operator(stats: Dict[str, float], args: tuple, kwargs: dict, result: Any) -> None:
    if type(args[0]).__name__ == "FunctionalDependencyOperator":
        stats["fd_operator_runs"] = stats.get("fd_operator_runs", 0) + 1


#: Work counters taken from a target's outermost call.
COUNTERS: Dict[str, Callable[..., None]] = {
    "repro.sql.executor:Executor.execute": _count_rows_out,
    "repro.llm.simulated:SimulatedSemanticLLM._complete": _count_tokens,
}
#: Lineage records are counted on every call, nested or not: the recorder's
#: batch entry point delegates to the per-record one.
RECORD_TARGETS = {
    "repro.obs.lineage:LineageRecorder.record_edit",
    "repro.obs.lineage:LineageRecorder.record_removal",
}


class _Frame:
    """One open outermost call: time spent in measured layers it called."""

    __slots__ = ("child_s",)

    def __init__(self) -> None:
        self.child_s = 0.0


class _ThreadState:
    def __init__(self) -> None:
        self.stack: List[_Frame] = []
        self.active: Set[str] = set()
        self.stats: Dict[str, Dict[str, float]] = {}


class _TimeShim:
    """Stands in for the ``time`` module inside one caller, with a wrapped ``sleep``."""

    def __init__(self, real: Any, sleep: Callable[[float], None]) -> None:
        self._real = real
        self.sleep = sleep

    def __getattr__(self, name: str) -> Any:
        return getattr(self._real, name)


class LayerTracer:
    """Installs layer wrappers and accumulates their per-thread statistics."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- installation -------------------------------------------------------------
    def install(self) -> "LayerTracer":
        if self._patches:
            return self
        for layer, target in TARGETS:
            self._patch_target(layer, target)
        from repro.core.workflow import default_operators

        for owner in {type(operator) for operator in default_operators()}:
            self._patch_attribute(owner, "run", OPERATOR_LAYER, _count_fd_operator)
        simulated = importlib.import_module("repro.llm.simulated")
        shim = _TimeShim(time, self._wrap(WAIT_LAYER, time.sleep))
        self._patches.append((simulated, "time", simulated.time))
        simulated.time = shim
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch_target(self, layer: str, target: str) -> None:
        module_name, path = target.split(":")
        owner: Any = importlib.import_module(module_name)
        *parents, name = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        counter = COUNTERS.get(target)
        self._patch_attribute(owner, name, layer, counter, count_records=target in RECORD_TARGETS)

    def _patch_attribute(
        self,
        owner: Any,
        name: str,
        layer: str,
        counter: Optional[Callable[..., None]] = None,
        count_records: bool = False,
    ) -> None:
        if inspect.isclass(owner) and name not in owner.__dict__:
            raise AttributeError(f"layer {layer}: {owner.__name__} does not define {name!r}")
        original = inspect.getattr_static(owner, name)
        if isinstance(original, (staticmethod, classmethod)):
            # Re-wrap the descriptor so a staticmethod stays callable without
            # an instance and a classmethod still receives the class.
            replacement: Any = type(original)(
                self._wrap(layer, original.__func__, counter, count_records)
            )
        else:
            replacement = self._wrap(layer, original, counter, count_records)
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    # -- the wrapper -----------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def _wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        counter: Optional[Callable[..., None]] = None,
        count_records: bool = False,
    ) -> Callable[..., Any]:
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = tracer._state()
            if count_records:
                stats = state.stats.setdefault(layer, {"calls": 0, "self_s": 0.0})
                stats["records"] = stats.get("records", 0) + 1
            if layer in state.active:
                return fn(*args, **kwargs)
            frame = _Frame()
            state.stack.append(frame)
            state.active.add(layer)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                state.stack.pop()
                state.active.discard(layer)
                if state.stack:
                    state.stack[-1].child_s += elapsed
                stats = state.stats.setdefault(layer, {"calls": 0, "self_s": 0.0})
                stats["calls"] += 1
                stats["self_s"] += elapsed - frame.child_s
            if counter is not None:
                counter(stats, args, kwargs, result)
            return result

        return wrapper

    # -- reading ---------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Merged statistics of every thread so far: layer -> counters."""
        merged: Dict[str, Dict[str, float]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            # Copies, since other threads may still be adding to their stats.
            accumulate(merged, {layer: dict(stats) for layer, stats in list(state.stats.items())})
        return merged


def accumulate(into: Dict[str, Dict[str, float]], stats: Dict[str, Dict[str, float]]) -> None:
    """Add one interval's per-layer counters into a running total."""
    for layer, values in stats.items():
        total = into.setdefault(layer, {})
        for key, value in values.items():
            total[key] = total.get(key, 0) + value


def diff(after: Dict[str, Dict[str, float]], before: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Per-layer counters accumulated between two snapshots."""
    out: Dict[str, Dict[str, float]] = {}
    for layer, stats in after.items():
        base = before.get(layer, {})
        out[layer] = {key: value - base.get(key, 0) for key, value in stats.items()}
    return out


def covered_seconds(stats: Dict[str, Dict[str, float]]) -> float:
    """Wall time inside any measured layer (the sum of self times)."""
    return sum(s.get("self_s", 0.0) for s in stats.values())
