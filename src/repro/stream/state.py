"""Cross-batch state for table-level plan steps (dedup, uniqueness).

Row-local plan steps replay on a micro-batch in isolation; duplicate removal
and key-uniqueness reason *across* rows, so their streaming replay keeps
state between batches.  This module mirrors the SQL the batch operators emit
— ``QUALIFY ROW_NUMBER() OVER (PARTITION BY ... ORDER BY ...) = 1`` — cell
for cell:

* partition keys use the engine's ``hashable`` normalisation (NULL folds
  to one key; unhashable values stringify);
* keep-order uses the engine's ``sort_key`` (NULLs last, numbers before
  text ascending and after it descending) with Python's stable sort, so
  ties keep the earliest row — exactly what ``ORDER BY`` + stable sort does
  in the executor;
* output preserves input row order, like QUALIFY filtering a SELECT.

Keep-first steps (dedup; uniqueness ordered by arrival) are *prefix-stable*:
a row once emitted can never lose, so the fold is incremental and O(batch).
Keep-best steps (uniqueness with ``ORDER BY col DESC``) are not — a later
row can beat an already-emitted one, which surfaces as a **retraction** in
the batch delta, the streaming-systems answer to non-monotonic operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.plan import PlanStep
# The QUALIFY replay must agree with the SQL engine bit for bit, so it
# borrows the engine's own key normalisers rather than re-deriving them.
from repro.sql.scalar import hashable, sort_key

Row = Tuple[Any, ...]  # data-column values, in plan column order


@dataclass
class TableLevelDelta:
    """What one batch did to the cumulative cleaned output."""

    kept: List[Tuple[int, Row]] = field(default_factory=list)
    dropped_row_ids: List[int] = field(default_factory=list)
    #: Previously emitted rows that a later row displaced (keep-best only).
    retracted_row_ids: List[int] = field(default_factory=list)
    #: row id → index (into the fold's step list) of the step that removed it,
    #: for dropped *and* retracted rows — the lineage layer's attribution.
    removed_by_step: Dict[int, int] = field(default_factory=dict)


class TableLevelState:
    """Streaming fold of a plan's table-level steps over arriving rows.

    ``apply_batch`` consumes rows *after* row-local replay, in row-id order,
    and returns the delta against the cumulative survivor set.  The
    invariant (pinned by the parity tests): after any sequence of batches,
    the surviving ``(row_id, row)`` pairs equal
    :func:`table_level_survivors` — and therefore the QUALIFY SQL — applied
    to the concatenation of all batches.
    """

    def __init__(self, steps: Sequence[PlanStep], column_names: Sequence[str]):
        for step in steps:
            if step.row_local:
                raise ValueError(f"Step {step.kind}:{step.target} is row-local")
        self.steps = list(steps)
        self.column_names = list(column_names)
        self._column_index = {name: i for i, name in enumerate(self.column_names)}
        self._has_keep_best = any(self._order_spec(s)[1] is not None for s in self.steps)
        # Keep-first fast path: per step, the set of partition keys already won.
        self._seen: List[Dict[Tuple, int]] = [dict() for _ in self.steps]
        # Slow path (keep-best): full post-row-local history to re-fold.
        self._history: List[Tuple[int, Row]] = []
        self._survivors: Dict[int, Row] = {}

    # -- step decoding --------------------------------------------------------------
    def _order_spec(self, step: PlanStep) -> Tuple[List[int], Optional[Tuple[int, bool]]]:
        """(partition column indexes, (order column index, descending) or None).

        ``None`` order means "first arrival wins" (ORDER BY the hidden row
        id), which every dedup step and order-less uniqueness step uses.
        """
        if step.kind == "dedup":
            cols = step.payload.get("columns") or self.column_names
            return [self._column_index[c] for c in cols], None
        if step.kind == "unique":
            key = [self._column_index[step.payload["column"]]]
            order_column = step.payload.get("order_column")
            if order_column is None:
                return key, None
            return key, (self._column_index[order_column], True)
        raise ValueError(f"Unknown table-level step kind {step.kind!r}")

    # -- folding ----------------------------------------------------------------------
    def apply_batch(self, rows: Sequence[Tuple[int, Row]]) -> TableLevelDelta:
        """Fold one batch of (row_id, values) pairs; row ids must be increasing."""
        if not self.steps:
            delta = TableLevelDelta(kept=list(rows))
            for row_id, row in rows:
                self._survivors[row_id] = row
            return delta
        self._history.extend(rows)
        if not self._has_keep_best:
            return self._apply_keep_first(rows)
        return self._refold(rows)

    def _apply_keep_first(self, rows: Sequence[Tuple[int, Row]]) -> TableLevelDelta:
        delta = TableLevelDelta()
        key_indexes = [self._order_spec(step)[0] for step in self.steps]
        # Column-major key building: each column referenced by any step is
        # normalised once per batch, and per-step keys come out of zip —
        # no per-row-per-step tuple comprehension.
        step_keys = _batch_step_keys([row for _, row in rows], key_indexes)
        for position, (row_id, row) in enumerate(rows):
            won = True
            # A row claims each step's key the moment it wins *that* step:
            # a row kept by step 1 but dropped by step 2 still shadows later
            # rows at step 1, exactly as the chained QUALIFY statements do.
            for step_index, (keys, seen) in enumerate(zip(step_keys, self._seen)):
                key = keys[position]
                if key in seen:
                    won = False
                    delta.removed_by_step[row_id] = step_index
                    break
                seen[key] = row_id
            if won:
                self._survivors[row_id] = row
                delta.kept.append((row_id, row))
            else:
                delta.dropped_row_ids.append(row_id)
        return delta

    def _refold(self, batch: Sequence[Tuple[int, Row]]) -> TableLevelDelta:
        """Recompute survivors over the full history (keep-best steps).

        Non-monotonic steps make incremental-only folding impossible without
        keeping the full candidate set anyway, so correctness wins: re-fold
        and report the delta.  ``kept`` may include *old* row ids when a
        displacement upstream lets a previously shadowed row resurface in a
        later step; ``retracted_row_ids`` lists previously emitted rows that
        vanished; ``dropped_row_ids`` lists this batch's rows that never
        surfaced.
        """
        previous = self._survivors
        removed_by: Dict[int, int] = {}
        new_survivors = dict(
            table_level_survivors(
                self.steps, self._history, self.column_names, removed_by_step=removed_by
            )
        )
        delta = TableLevelDelta()
        for row_id in sorted(new_survivors):
            if row_id not in previous:
                delta.kept.append((row_id, new_survivors[row_id]))
        delta.retracted_row_ids = [
            row_id for row_id in sorted(previous) if row_id not in new_survivors
        ]
        delta.dropped_row_ids = [
            row_id for row_id, _ in batch if row_id not in new_survivors
        ]
        delta.removed_by_step = {
            row_id: removed_by[row_id]
            for row_id in delta.retracted_row_ids + delta.dropped_row_ids
            if row_id in removed_by
        }
        self._survivors = new_survivors
        return delta

    # -- read side ----------------------------------------------------------------------
    @property
    def survivors(self) -> Dict[int, Row]:
        return dict(self._survivors)

    def reset(self) -> None:
        """Forget everything (used when a re-plan rebuilds the output)."""
        self._seen = [dict() for _ in self.steps]
        self._history = []
        self._survivors = {}


def _batch_step_keys(
    rows: Sequence[Row], key_indexes: Sequence[List[int]]
) -> List[List[Tuple]]:
    """Per-step partition keys for a batch, built column-major.

    Each column index referenced by any step is normalised through
    ``hashable`` exactly once for the whole batch; per-step key tuples are
    then assembled with ``zip`` over the shared normalised vectors.  Key
    tuples are identical to the row-major ``tuple(hashable(row[i]) ...)``
    form, so they interoperate with keys stored across batches.
    """
    needed = {i for key_idx in key_indexes for i in key_idx}
    normalised = {i: [hashable(row[i]) for row in rows] for i in needed}
    step_keys: List[List[Tuple]] = []
    for key_idx in key_indexes:
        if key_idx:
            step_keys.append(list(zip(*(normalised[i] for i in key_idx))))
        else:
            step_keys.append([()] * len(rows))
    return step_keys


def table_level_survivors(
    steps: Sequence[PlanStep],
    rows: Sequence[Tuple[int, Row]],
    column_names: Sequence[str],
    removed_by_step: Optional[Dict[int, int]] = None,
) -> List[Tuple[int, Row]]:
    """Batch oracle: apply the table-level steps to ``rows`` in one pass.

    Semantically identical to chaining the operators' QUALIFY statements on a
    table containing ``rows`` (in row-id order) — used by the streaming fold
    as its keep-best path and by tests as the reference implementation.

    When ``removed_by_step`` is given, every filtered row id is recorded in it
    against the index of the step that removed it.
    """
    column_index = {name: i for i, name in enumerate(column_names)}
    current = list(rows)
    for step_index, step in enumerate(steps):
        if step.kind == "dedup":
            cols = step.payload.get("columns") or list(column_names)
            key_idx = [column_index[c] for c in cols]
            order: Optional[Tuple[int, bool]] = None
        elif step.kind == "unique":
            key_idx = [column_index[step.payload["column"]]]
            order_column = step.payload.get("order_column")
            order = (column_index[order_column], True) if order_column is not None else None
        else:
            raise ValueError(f"Unknown table-level step kind {step.kind!r}")
        # Vectorised key/sort-key building: one pass per referenced column,
        # not one tuple comprehension per row.
        keys = _batch_step_keys([row for _, row in current], [key_idx])[0]
        sort_keys: Optional[List[Tuple]] = None
        if order is not None:
            order_idx, descending = order
            sort_keys = [sort_key(row[order_idx], descending) for _, row in current]
        winners: Dict[Tuple, int] = {}
        for position, key in enumerate(keys):
            if sort_keys is None:
                # ORDER BY row id: first arrival wins.
                if key not in winners:
                    winners[key] = position
                continue
            incumbent = winners.get(key)
            if incumbent is None:
                winners[key] = position
                continue
            # Strict improvement required: stable sort keeps the earlier row
            # on ties, and rows arrive in row-id order.
            if sort_keys[position] < sort_keys[incumbent]:
                winners[key] = position
        keep_positions = set(winners.values())
        if removed_by_step is not None:
            for position, (row_id, _row) in enumerate(current):
                if position not in keep_positions:
                    removed_by_step[row_id] = step_index
        current = [entry for position, entry in enumerate(current) if position in keep_positions]
    return current
