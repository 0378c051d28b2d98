"""Functional-dependency discovery and scoring.

Following Baran (and the paper's §2.1.6), only FDs with a single attribute
on each side are considered.  Candidate FDs are scored with the conditional
entropy of the dependent given the determinant: an FD that holds exactly has
conditional entropy 0, so the score ``1 - H(rhs | lhs) / H(rhs)`` is 1.0 for
exact dependencies and decreases as violations grow.

:func:`discover_fds` makes a single stringification pass over the table and
shares one non-null value index per determinant across all dependents, then
derives the entropy score and the violation groups for each pair from one
joint pass.  ``tests/profiling/fd_baseline.py`` keeps the naive per-pair
re-materialisation it replaced, and the parity tests pin the two together.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.dataframe.schema import is_null
from repro.dataframe.table import Table


@dataclass
class FDCandidate:
    """A candidate functional dependency ``determinant -> dependent``."""

    determinant: str
    dependent: str
    score: float
    violating_groups: int
    violating_rows: int

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"{self.determinant} -> {self.dependent} (score={self.score:.3f})"


def _entropy(counts: Sequence[int]) -> float:
    total = sum(counts)
    if total == 0:
        return 0.0
    entropy = 0.0
    for count in counts:
        if count == 0:
            continue
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


def fd_entropy_score(table: Table, determinant: str, dependent: str) -> float:
    """Score ``determinant -> dependent`` in [0, 1]; 1.0 means the FD holds exactly."""
    lhs = table.column(determinant).values
    rhs = table.column(dependent).values
    pairs = [
        (str(l), str(r))
        for l, r in zip(lhs, rhs)
        if not is_null(l) and not is_null(r)
    ]
    if not pairs:
        return 0.0
    rhs_counts = Counter(r for _, r in pairs)
    h_rhs = _entropy(list(rhs_counts.values()))
    if h_rhs == 0.0:
        return 1.0
    groups: Dict[str, Counter] = defaultdict(Counter)
    for l, r in pairs:
        groups[l][r] += 1
    total = len(pairs)
    h_conditional = 0.0
    for counter in groups.values():
        group_total = sum(counter.values())
        h_conditional += (group_total / total) * _entropy(list(counter.values()))
    return max(0.0, 1.0 - h_conditional / h_rhs)


def fd_violation_groups(
    table: Table, determinant: str, dependent: str
) -> List[Tuple[str, List[Tuple[str, int]]]]:
    """Groups of determinant values whose dependent values disagree.

    Each entry is ``(lhs_value, [(rhs_value, count), ...])`` with at least two
    distinct dependent values, sorted by descending disagreement size.
    """
    lhs = table.column(determinant).values
    rhs = table.column(dependent).values
    groups: Dict[str, Counter] = defaultdict(Counter)
    for l, r in zip(lhs, rhs):
        if is_null(l) or is_null(r):
            continue
        groups[str(l)][str(r)] += 1
    violations = []
    for lhs_value, counter in groups.items():
        if len(counter) > 1:
            violations.append((lhs_value, counter.most_common()))
    violations.sort(key=lambda item: -sum(c for _, c in item[1]))
    return violations


def discover_fds(
    table: Table,
    min_score: float = 0.9,
    max_determinant_distinct_ratio: float = 0.95,
    columns: Sequence[str] = (),
) -> List[FDCandidate]:
    """Discover single-attribute FD candidates whose entropy score exceeds ``min_score``.

    Determinants that are (nearly) unique are skipped — a key column trivially
    determines everything and offers no cleaning signal.  Dependents with a
    single distinct value are skipped for the symmetric reason.

    Each column is stringified exactly once, each determinant's non-null
    ``(row, value)`` index is built exactly once and shared across every
    dependent, and the entropy score and violation groups of a pair come out
    of one joint pass over that index — candidates are identical (to the
    bit, including float scores and tie order) to the quadratic
    re-materialising loop this replaced (``tests/profiling/fd_baseline.py``).
    """
    names = list(columns) if columns else table.column_names
    num_rows = table.num_rows
    # One stringification pass per column; None marks a NULL cell.
    col_strings: Dict[str, List] = {}
    distinct_ratio = {}
    distinct_count = {}
    for name in names:
        values = table.column(name).values
        strings = [None if is_null(v) else str(v) for v in values]
        col_strings[name] = strings
        non_null_count = num_rows - strings.count(None)
        distinct = len(set(strings)) - (1 if non_null_count < num_rows else 0)
        distinct_count[name] = distinct
        distinct_ratio[name] = distinct / non_null_count if non_null_count else 0.0
    candidates: List[FDCandidate] = []
    for determinant in names:
        if distinct_ratio[determinant] > max_determinant_distinct_ratio:
            continue
        if distinct_count[determinant] <= 1:
            continue
        det_strings = col_strings[determinant]
        # Shared per-determinant index: non-null cells in row order.
        det_cells = [(i, value) for i, value in enumerate(det_strings) if value is not None]
        for dependent in names:
            if dependent == determinant:
                continue
            if distinct_count[dependent] <= 1:
                continue
            dep_strings = col_strings[dependent]
            # Joint pass: determinant groups and dependent-value counts at once.
            rhs_counts: Counter = Counter()
            groups: Dict[str, Counter] = {}
            total = 0
            for i, lhs_value in det_cells:
                rhs_value = dep_strings[i]
                if rhs_value is None:
                    continue
                total += 1
                rhs_counts[rhs_value] += 1
                group = groups.get(lhs_value)
                if group is None:
                    group = groups[lhs_value] = Counter()
                group[rhs_value] += 1
            if total == 0:
                score = 0.0
            else:
                h_rhs = _entropy(list(rhs_counts.values()))
                if h_rhs == 0.0:
                    score = 1.0
                else:
                    h_conditional = 0.0
                    for counter in groups.values():
                        group_total = sum(counter.values())
                        h_conditional += (group_total / total) * _entropy(list(counter.values()))
                    score = max(0.0, 1.0 - h_conditional / h_rhs)
            if score < min_score:
                continue
            violations = [
                (lhs_value, counter.most_common())
                for lhs_value, counter in groups.items()
                if len(counter) > 1
            ]
            violations.sort(key=lambda item: -sum(c for _, c in item[1]))
            violating_rows = sum(
                sum(c for _, c in rhs[1:]) for _, rhs in violations
            )
            candidates.append(
                FDCandidate(
                    determinant=determinant,
                    dependent=dependent,
                    score=score,
                    violating_groups=len(violations),
                    violating_rows=violating_rows,
                )
            )
    candidates.sort(key=lambda c: (-c.score, c.determinant, c.dependent))
    return candidates
