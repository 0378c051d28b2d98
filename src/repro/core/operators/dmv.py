"""§2.1.3 Disguised missing values.

Values like ``"N/A"``, ``"null"`` or ``"--"`` are not NULL in the database
but semantically mean that the value is missing.  The LLM reviews the
distinct values of each column; cleaning is a ``CASE WHEN ... THEN NULL``.
"""

from __future__ import annotations

from typing import List

from repro.core.context import ROW_ID_COLUMN, CleaningContext
from repro.core.hil import HumanInTheLoop
from repro.core.operators.base import CleaningOperator
from repro.core.result import OperatorResult
from repro.core.sqlgen import case_when_null, select_with_replacements
from repro.dataframe.schema import ColumnType
from repro.llm import prompts


class DisguisedMissingValueOperator(CleaningOperator):

    issue_type = "disguised_missing_value"

    def run(self, context: CleaningContext, hil: HumanInTheLoop) -> List[OperatorResult]:
        results: List[OperatorResult] = []
        profile = context.profile()
        for column_name in context.data_columns():
            column_profile = profile.column(column_name)
            if column_profile.dtype is not ColumnType.VARCHAR:
                continue
            if column_profile.distinct_count > context.config.max_categorical_distinct:
                continue
            with self.target_span(column_name):
                results.append(self._run_column(context, hil, column_name))
        return results

    def _run_column(self, context: CleaningContext, hil: HumanInTheLoop, column_name: str) -> OperatorResult:
        config = context.config
        result = OperatorResult(issue_type=self.issue_type, target=column_name)
        profile = context.profile().column(column_name)
        value_counts = profile.frequent_values(config.sample_values)
        if not value_counts:
            result.skipped_reason = "column has no non-null values"
            return result
        evidence = f"{profile.null_fraction:.1%} NULL, {profile.distinct_count} distinct values"

        detection_prompt = prompts.dmv_detection(column_name, value_counts)
        detection = self.ask_json(context, detection_prompt, purpose="dmv_detection")
        dmvs = []
        if detection is not None:
            dmvs = [str(v) for v in detection.get("DisguisedMissingValues", []) if str(v).strip() != ""]
        present = set(value for value, _ in value_counts)
        dmvs = [v for v in dmvs if v in present]
        finding = self.make_finding(
            self.issue_type,
            column_name,
            evidence,
            bool(dmvs),
            llm_reasoning=str(detection.get("Reasoning", "")) if detection else "",
            llm_summary=f"disguised missing values: {dmvs}" if dmvs else "no disguised missing values",
        )
        result.finding = finding
        if not dmvs or not hil.review_detection(finding).approved:
            result.llm_calls = self.take_llm_calls()
            return result

        target_table = context.next_table_name(f"dmv_{column_name}")
        expression = case_when_null(column_name, dmvs)
        sql = select_with_replacements(
            context.current_table_name,
            target_table,
            [ROW_ID_COLUMN] + context.data_columns(),
            {column_name: expression},
            comments=[
                f"Disguised missing value cleaning for column {column_name}.",
                f"Reasoning: {finding.llm_reasoning}",
            ],
        )
        mapping = {value: "" for value in dmvs}
        decision = hil.review_cleaning(finding, mapping, sql)
        if not decision.approved:
            result.skipped_reason = "cleaning rejected by reviewer"
            result.llm_calls = self.take_llm_calls()
            return result
        replay = {
            "kind": "null_values",
            "target_table": target_table,
            "column": column_name,
            "values": list(dmvs),
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
