"""§2.1.1 String outliers: typos and inconsistent representations.

Statistical step: sample the most frequent values of each text column
(1000 by default).  Semantic detection: ask the LLM whether the values
contain typos or redundant representations (Figure 2).  Semantic cleaning:
ask for an old → new value mapping in batches (Figure 3) and execute it
through a ``CASE WHEN`` rewrite.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.context import ROW_ID_COLUMN, CleaningContext
from repro.core.hil import HumanInTheLoop
from repro.core.operators.base import CleaningOperator
from repro.core.result import OperatorResult
from repro.core.sqlgen import case_when_mapping, select_with_replacements
from repro.dataframe.schema import ColumnType
from repro.llm import prompts


class StringOutlierOperator(CleaningOperator):

    issue_type = "string_outliers"

    def run(self, context: CleaningContext, hil: HumanInTheLoop) -> List[OperatorResult]:
        results: List[OperatorResult] = []
        profile = context.profile()
        for column_name in context.data_columns():
            column_profile = profile.column(column_name)
            if column_profile.dtype is not ColumnType.VARCHAR:
                continue
            with self.target_span(column_name):
                results.append(self._run_column(context, hil, column_name))
        return results

    def _run_column(self, context: CleaningContext, hil: HumanInTheLoop, column_name: str) -> OperatorResult:
        config = context.config
        profile = context.profile().column(column_name)
        result = OperatorResult(issue_type=self.issue_type, target=column_name)

        if profile.distinct_count > config.max_categorical_distinct:
            result.skipped_reason = (
                f"{profile.distinct_count} distinct values exceed the categorical limit "
                f"({config.max_categorical_distinct}); treated as free text."
            )
            return result
        if profile.unique_ratio > config.max_free_text_unique_ratio and profile.distinct_count > 50:
            result.skipped_reason = (
                f"unique ratio {profile.unique_ratio:.2f} indicates free text; skipped."
            )
            return result

        # Statistical step: the frequent-value sample that goes into the prompt.
        value_counts = profile.frequent_values(config.sample_values)
        if not value_counts:
            result.skipped_reason = "column has no non-null values"
            return result
        evidence = "value distribution: " + ", ".join(
            f"{value!r} {count / profile.row_count:.1%}" for value, count in value_counts[:5]
        )

        # Semantic detection (Figure 2).
        detection_prompt = prompts.string_outlier_detection(
            column_name, value_counts if config.use_statistical_context else [(v, 1) for v, _ in value_counts]
        )
        detection = self.ask_json(context, detection_prompt, purpose="string_outlier_detection")
        if detection is None:
            result.skipped_reason = "unparseable detection response"
            result.llm_calls = self.take_llm_calls()
            return result
        finding = self.make_finding(
            self.issue_type,
            column_name,
            evidence,
            bool(detection.get("Unusualness")),
            llm_reasoning=str(detection.get("Reasoning", "")),
            llm_summary=str(detection.get("Summary", "")),
        )
        result.finding = finding
        if not finding.detected or not hil.review_detection(finding).approved:
            result.llm_calls = self.take_llm_calls()
            return result

        # Semantic cleaning (Figure 3), batched to stay inside the context window.
        mapping: Dict[str, str] = {}
        distinct_values = [value for value, _ in value_counts]
        batch_size = config.cleaning_batch_size
        for start in range(0, len(distinct_values), batch_size):
            batch = distinct_values[start: start + batch_size]
            cleaning_prompt = prompts.string_outlier_cleaning(column_name, finding.llm_summary, batch)
            _explanation, batch_mapping = self.ask_mapping(context, cleaning_prompt, purpose="string_outlier_cleaning")
            for old, new in batch_mapping.items():
                if old != new:
                    mapping[old] = new
        if not mapping:
            result.llm_calls = self.take_llm_calls()
            return result

        target_table = context.next_table_name(f"string_{column_name}")
        expression = case_when_mapping(column_name, mapping)
        sql = select_with_replacements(
            context.current_table_name,
            target_table,
            [ROW_ID_COLUMN] + context.data_columns(),
            {column_name: expression},
            comments=[
                f"String outlier cleaning for column {column_name}.",
                f"Reasoning: {finding.llm_reasoning}",
                f"Summary: {finding.llm_summary}",
            ],
        )
        decision = hil.review_cleaning(finding, mapping, sql)
        if not decision.approved:
            result.skipped_reason = "cleaning rejected by reviewer"
            result.llm_calls = self.take_llm_calls()
            return result
        if decision.edited_mapping is not None:
            mapping = decision.edited_mapping
            expression = case_when_mapping(column_name, mapping)
            sql = select_with_replacements(
                context.current_table_name,
                target_table,
                [ROW_ID_COLUMN] + context.data_columns(),
                {column_name: expression},
                comments=[f"String outlier cleaning for column {column_name} (reviewer-edited mapping)."],
            )
        replay = {
            "kind": "value_map",
            "target_table": target_table,
            "column": column_name,
            "mapping": dict(mapping),
        }
        repairs, removed = self.apply_sql(
            context, sql, target_table, self.issue_type, finding.llm_summary,
            decision=replay, target=column_name,
        )
        result.repairs = repairs
        result.removed_row_ids = removed
        result.sql = sql
        result.replay = replay
        result.llm_calls = self.take_llm_calls()
        return result
