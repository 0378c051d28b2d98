"""Whole-table profile combining column profiles, FDs and duplicate stats."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.dataframe.table import Table
from repro.profiling.column_profile import ColumnProfile, profile_column
from repro.profiling.duplicates import duplicate_row_count, duplicate_row_samples
from repro.profiling.fd import FDCandidate, discover_fds


class TableProfile:
    """Statistical summary of one table version: the context Cocoon gives to the LLM.

    Tables are immutable, so each part of the profile is computed from the
    table on first read and cached: a column's profile when that column is
    asked for, the FD candidates and the duplicate statistics only when an
    operator reads them.
    """

    def __init__(self, table: Table, max_values_per_column: int = 1000, fd_min_score: float = 0.9):
        self.table_name = table.name
        self.row_count = table.num_rows
        self._table = table
        self._max_values = max_values_per_column
        self._fd_min_score = fd_min_score
        self._columns: Dict[str, ColumnProfile] = {}
        self._fd_candidates: Optional[List[FDCandidate]] = None
        self._duplicate_rows: Optional[int] = None
        self._duplicate_samples: Optional[List[Dict[str, Any]]] = None

    def column(self, name: str) -> ColumnProfile:
        profile = self._columns.get(name)
        if profile is None:
            profile = profile_column(self._table.column(name), max_values=self._max_values)
            self._columns[name] = profile
        return profile

    @property
    def column_names(self) -> List[str]:
        return self._table.column_names

    @property
    def column_profiles(self) -> Dict[str, ColumnProfile]:
        return {name: self.column(name) for name in self.column_names}

    @property
    def fd_candidates(self) -> List[FDCandidate]:
        if self._fd_candidates is None:
            self._fd_candidates = (
                discover_fds(self._table, min_score=self._fd_min_score) if self.row_count > 0 else []
            )
        return self._fd_candidates

    @property
    def duplicate_rows(self) -> int:
        if self._duplicate_rows is None:
            self._duplicate_rows = duplicate_row_count(self._table)
        return self._duplicate_rows

    @property
    def duplicate_samples(self) -> List[Dict[str, Any]]:
        if self._duplicate_samples is None:
            self._duplicate_samples = duplicate_row_samples(self._table)
        return self._duplicate_samples

    def summary_text(self) -> str:
        """Human-readable profile summary (used in reports and examples)."""
        lines = [f"Table {self.table_name}: {self.row_count} rows, {len(self.column_names)} columns"]
        for profile in self.column_profiles.values():
            lines.append(
                f"  - {profile.name} ({profile.dtype}): {profile.distinct_count} distinct, "
                f"{profile.null_fraction:.1%} null, unique ratio {profile.unique_ratio:.2f}"
            )
        if self.fd_candidates:
            lines.append("  Functional dependency candidates:")
            for fd in self.fd_candidates[:10]:
                lines.append(f"    * {fd}")
        lines.append(f"  Duplicate rows: {self.duplicate_rows}")
        return "\n".join(lines)


def profile_table(table: Table, max_values_per_column: int = 1000, fd_min_score: float = 0.9) -> TableProfile:
    """The lazy profile of ``table``: column stats, FD candidates and duplicate counts on first read."""
    return TableProfile(table, max_values_per_column=max_values_per_column, fd_min_score=fd_min_score)
