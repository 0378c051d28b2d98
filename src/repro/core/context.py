"""Configuration and shared state for one cleaning run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.dataframe.table import Table
from repro.llm.base import LLMClient
from repro.profiling.table_profile import TableProfile, profile_table
from repro.sql.database import Database

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.lineage import LineageRecorder

ROW_ID_COLUMN = "_cocoon_row_id"


@dataclass
class CleaningConfig:
    """Tunable knobs of the pipeline (defaults follow the paper)."""

    # Number of frequent values sampled for semantic detection (paper: 1000).
    sample_values: int = 1000
    # Batch size for semantic cleaning prompts (paper: 1000).
    cleaning_batch_size: int = 1000
    # Minimum entropy score for a functional dependency to be reviewed.  Dirty
    # data weakens real dependencies, so the statistical gate is deliberately
    # permissive; the semantic review is what rejects spurious candidates.
    fd_min_score: float = 0.75
    # Maximum number of FD candidates reviewed per table.
    fd_max_candidates: int = 40
    # Unique-ratio threshold above which a column is considered a key candidate.
    uniqueness_threshold: float = 0.95
    # Maximum distinct values for a column to be treated as categorical during
    # string-outlier review (very high-cardinality free text is skipped).
    max_categorical_distinct: int = 2000
    # Skip string review for columns whose values are mostly unique free text.
    max_free_text_unique_ratio: float = 0.8
    # Whether each issue type runs at all (used by the ablation benchmarks).
    enabled_issues: Optional[List[str]] = None
    # Whether to include statistical context in prompts (ablation).
    use_statistical_context: bool = True

    def issue_enabled(self, issue_type: str) -> bool:
        return self.enabled_issues is None or issue_type in self.enabled_issues


class CleaningContext:
    """Everything operators need: the database, the LLM, profiles and history."""

    def __init__(
        self,
        db: Database,
        llm: LLMClient,
        base_table: str,
        config: Optional[CleaningConfig] = None,
        lineage: Optional["LineageRecorder"] = None,
    ):
        self.db = db
        self.llm = llm
        self.base_table = base_table
        self.config = config or CleaningConfig()
        # Optional cell-level audit trail (repro.obs.lineage); operators record
        # every strict cell change into it when present.
        self.lineage = lineage
        self.current_table_name = base_table
        self._step = 0
        self._profile_cache: Dict[str, TableProfile] = {}
        self.sql_statements: List[str] = []

    # -- table versioning -----------------------------------------------------
    def current_table(self) -> Table:
        return self.db.table(self.current_table_name)

    def next_table_name(self, suffix: str) -> str:
        self._step += 1
        safe_suffix = suffix.lower().replace(" ", "_")
        return f"{self.base_table}_step{self._step}_{safe_suffix}"

    def advance(self, new_table_name: str, sql: str) -> None:
        """Record an executed cleaning statement and move to the new table version."""
        self.current_table_name = new_table_name
        self.sql_statements.append(sql)
        self._profile_cache.pop(new_table_name, None)

    # -- profiling --------------------------------------------------------------
    def profile(self) -> TableProfile:
        """Lazy profile of the *current* table version, built once per version."""
        name = self.current_table_name
        if name not in self._profile_cache:
            self._profile_cache[name] = profile_table(
                self.data_only_table(),
                max_values_per_column=self.config.sample_values,
                fd_min_score=self.config.fd_min_score,
            )
        return self._profile_cache[name]

    def data_only_table(self) -> Table:
        """The current table without the internal row-id bookkeeping column."""
        table = self.current_table()
        if ROW_ID_COLUMN in table.column_names:
            return table.drop([ROW_ID_COLUMN])
        return table

    def data_columns(self) -> List[str]:
        return [c for c in self.current_table().column_names if c != ROW_ID_COLUMN]
