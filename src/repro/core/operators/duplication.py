"""§2.1.7 Duplication.

Statistics select fully duplicated rows; the LLM decides whether duplicates
are semantically acceptable (e.g. coarse-grained logging) or erroneous.
Erroneous duplicates are removed with a ``SELECT DISTINCT``-equivalent that
keeps the first occurrence (implemented with ``ROW_NUMBER`` over the data
columns so the hidden row-id bookkeeping column is preserved).
"""

from __future__ import annotations

from typing import List

from repro.core.context import ROW_ID_COLUMN, CleaningContext
from repro.core.hil import HumanInTheLoop
from repro.core.operators.base import CleaningOperator
from repro.core.result import OperatorResult
from repro.core.sqlgen import keep_first_statement
from repro.llm import prompts


class DuplicationOperator(CleaningOperator):

    issue_type = "duplication"

    def run(self, context: CleaningContext, hil: HumanInTheLoop) -> List[OperatorResult]:
        result = OperatorResult(issue_type=self.issue_type, target=context.base_table)
        profile = context.profile()
        duplicate_rows = profile.duplicate_rows
        if duplicate_rows == 0:
            result.skipped_reason = "no duplicated rows detected statistically"
            return [result]

        with self.target_span(context.base_table, duplicate_rows=duplicate_rows):
            return self._review_and_clean(context, hil, result, duplicate_rows, profile)

    def _review_and_clean(
        self,
        context: CleaningContext,
        hil: HumanInTheLoop,
        result: OperatorResult,
        duplicate_rows: int,
        profile,
    ) -> List[OperatorResult]:
        evidence = f"{duplicate_rows} fully duplicated rows"
        review_prompt = prompts.duplication_review(context.base_table, duplicate_rows, profile.duplicate_samples)
        review = self.ask_json(context, review_prompt, purpose="duplication_review")
        erroneous = bool(review and review.get("Erroneous"))
        finding = self.make_finding(
            self.issue_type,
            context.base_table,
            evidence,
            erroneous,
            llm_reasoning=str(review.get("Reasoning", "")) if review else "",
            llm_summary="duplicates are erroneous" if erroneous else "duplicates are acceptable",
        )
        result.finding = finding
        if not erroneous or not hil.review_detection(finding).approved:
            result.llm_calls = self.take_llm_calls()
            return [result]

        data_columns = context.data_columns()
        target_table = context.next_table_name("dedup")
        sql = keep_first_statement(
            context.current_table_name,
            target_table,
            data_columns,
            ROW_ID_COLUMN,
            comments=[
                f"Duplication cleaning: remove {duplicate_rows} duplicated rows (keep the first occurrence).",
                f"Reasoning: {finding.llm_reasoning}",
            ],
        )
        decision = hil.review_cleaning(finding, {}, sql)
        if not decision.approved:
            result.skipped_reason = "cleaning rejected by reviewer"
            result.llm_calls = self.take_llm_calls()
            return [result]
        replay = {
            "kind": "dedup",
            "target_table": target_table,
            "columns": list(data_columns),
        }
        repairs, removed = self.apply_sql(
            context, sql, target_table, self.issue_type, finding.llm_summary,
            decision=replay, target=context.base_table,
        )
        result.repairs = repairs
        result.removed_row_ids = removed
        result.sql = sql
        result.replay = replay
        result.llm_calls = self.take_llm_calls()
        return [result]
