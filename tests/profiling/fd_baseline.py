"""The reference FD discovery loop ``discover_fds`` replaced.

``test_fd_parity.py`` pins :func:`repro.profiling.discover_fds` to this
implementation's exact output.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.dataframe.table import Table
from repro.profiling.fd import FDCandidate, fd_entropy_score, fd_violation_groups


def discover_fds_baseline(
    table: Table,
    min_score: float = 0.9,
    max_determinant_distinct_ratio: float = 0.95,
    columns: Sequence[str] = (),
) -> List[FDCandidate]:
    """The original O(k²) re-materialising discovery loop.

    Calls ``fd_entropy_score`` and ``fd_violation_groups`` per column pair,
    re-reading and re-stringifying the table each time.
    """
    names = list(columns) if columns else table.column_names
    candidates: List[FDCandidate] = []
    distinct_ratio = {}
    distinct_count = {}
    for name in names:
        column = table.column(name)
        non_null = column.non_null()
        distinct = len(set(str(v) for v in non_null))
        distinct_count[name] = distinct
        distinct_ratio[name] = distinct / len(non_null) if non_null else 0.0
    for determinant in names:
        if distinct_ratio[determinant] > max_determinant_distinct_ratio:
            continue
        if distinct_count[determinant] <= 1:
            continue
        for dependent in names:
            if dependent == determinant:
                continue
            if distinct_count[dependent] <= 1:
                continue
            score = fd_entropy_score(table, determinant, dependent)
            if score < min_score:
                continue
            violations = fd_violation_groups(table, determinant, dependent)
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
