"""Statistical profiling of tables.

Cocoon builds on the authors' earlier table-profiling work: traditional
statistical methods summarise each column (value distribution, missing
percentage, min/max, unique ratio, structural patterns) and the whole table
(candidate functional dependencies scored by entropy, duplicate rows).
These summaries are what make LLM prompting feasible — the raw data never
fits in a prompt, the profile does.
"""

from repro.profiling.column_profile import ColumnProfile, profile_column
from repro.profiling.table_profile import TableProfile, profile_table
from repro.profiling.fd import (
    FDCandidate,
    discover_fds,
    fd_entropy_score,
    fd_violation_groups,
)
from repro.profiling.duplicates import duplicate_row_count, duplicate_row_samples
from repro.profiling.incremental import IncrementalDuplicateState, IncrementalFDState
from repro.profiling.mergeable import MergeableColumnProfile
from repro.profiling.patterns import pattern_counts, match_fraction

__all__ = [
    "IncrementalDuplicateState",
    "IncrementalFDState",
    "MergeableColumnProfile",
    "ColumnProfile",
    "profile_column",
    "TableProfile",
    "profile_table",
    "FDCandidate",
    "discover_fds",
    "fd_entropy_score",
    "fd_violation_groups",
    "duplicate_row_count",
    "duplicate_row_samples",
    "pattern_counts",
    "match_fraction",
]
