"""§2.1.2 Pattern outliers: inconsistent structural representations.

The operator asks the LLM for a list of semantically meaningful regular
expressions that cover the column values, verifies them with SQL
(``REGEXP_FULL_MATCH`` counts), asks whether the pattern mix is an
inconsistent representation of one concept, and cleans by rewriting the
non-conforming values into the standard pattern.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.context import ROW_ID_COLUMN, CleaningContext
from repro.core.hil import HumanInTheLoop
from repro.core.operators.base import CleaningOperator
from repro.core.result import OperatorResult
from repro.core.sqlgen import case_when_mapping, quote_identifier, quote_literal, select_with_replacements
from repro.dataframe.schema import ColumnType
from repro.llm import prompts
from repro.profiling.patterns import match_fraction, non_matching_values


class PatternOutlierOperator(CleaningOperator):

    issue_type = "pattern_outliers"
    # One retry when the first pattern list does not cover the column ("recursively ask").
    max_generation_rounds = 2
    coverage_threshold = 0.95

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

    def _verify_pattern_counts(self, context: CleaningContext, column: str, patterns: List[str]) -> List[Tuple[str, int]]:
        """Verify candidate patterns with SQL, as the paper prescribes."""
        counts: List[Tuple[str, int]] = []
        matched_clauses: List[str] = []
        col = quote_identifier(column)
        for pattern in patterns:
            clause = f"REGEXP_FULL_MATCH({col}, {quote_literal(pattern)})"
            exclusion = " AND ".join(f"NOT {c}" for c in matched_clauses)
            where = clause if not matched_clauses else f"{clause} AND {exclusion}"
            try:
                count = context.db.scalar(
                    f"SELECT COUNT(*) FROM {quote_identifier(context.current_table_name)} WHERE {where}"
                )
            except Exception:
                count = 0
            counts.append((pattern, int(count or 0)))
            matched_clauses.append(clause)
        return counts

    def _run_column(self, context: CleaningContext, hil: HumanInTheLoop, column_name: str) -> OperatorResult:
        config = context.config
        result = OperatorResult(issue_type=self.issue_type, target=column_name)
        profile = context.profile().column(column_name)
        value_counts = profile.frequent_values(config.sample_values)
        if not value_counts or profile.distinct_count <= 1:
            result.skipped_reason = "not enough distinct values for pattern analysis"
            return result
        values = context.current_table().column(column_name).values

        patterns: List[str] = []
        for _round in range(self.max_generation_rounds):
            generation_prompt = prompts.pattern_generation(column_name, value_counts)
            generated = self.ask_json(context, generation_prompt, purpose="pattern_generation")
            if generated is None:
                break
            patterns = [p for p in generated.get("Patterns", []) if isinstance(p, str) and p.strip()]
            if match_fraction(values, patterns) >= self.coverage_threshold:
                break
        if not patterns:
            result.skipped_reason = "no usable patterns generated"
            result.llm_calls = self.take_llm_calls()
            return result

        pattern_counts_sql = self._verify_pattern_counts(context, column_name, patterns)
        evidence = "pattern distribution: " + ", ".join(f"{p!r} x{c}" for p, c in pattern_counts_sql)

        consistency_prompt = prompts.pattern_consistency(column_name, pattern_counts_sql)
        consistency = self.ask_json(context, consistency_prompt, purpose="pattern_consistency")
        detected = bool(consistency and consistency.get("Inconsistent")) and len(
            [c for _, c in pattern_counts_sql if c > 0]
        ) > 1
        finding = self.make_finding(
            self.issue_type,
            column_name,
            evidence,
            detected,
            llm_reasoning=str(consistency.get("Reasoning", "")) if consistency else "",
            llm_summary=f"standard pattern {consistency.get('StandardPattern')}" if consistency else "",
        )
        result.finding = finding
        if not detected or not hil.review_detection(finding).approved:
            result.llm_calls = self.take_llm_calls()
            return result

        standard_pattern = str(consistency.get("StandardPattern", "")) if consistency else ""
        outliers = non_matching_values(values, standard_pattern)
        if not outliers:
            result.llm_calls = self.take_llm_calls()
            return result
        mapping: Dict[str, str] = {}
        batch_size = config.cleaning_batch_size
        for start in range(0, len(outliers), batch_size):
            batch = outliers[start: start + batch_size]
            cleaning_prompt = prompts.pattern_cleaning(column_name, standard_pattern, batch)
            _explanation, batch_mapping = self.ask_mapping(context, cleaning_prompt, purpose="pattern_cleaning")
            for old, new in batch_mapping.items():
                if old != new and new:
                    mapping[old] = new
        if not mapping:
            result.llm_calls = self.take_llm_calls()
            return result

        target_table = context.next_table_name(f"pattern_{column_name}")
        expression = case_when_mapping(column_name, mapping)
        sql = select_with_replacements(
            context.current_table_name,
            target_table,
            [ROW_ID_COLUMN] + context.data_columns(),
            {column_name: expression},
            comments=[
                f"Pattern outlier cleaning for column {column_name}.",
                f"Standard pattern: {standard_pattern}",
                f"Reasoning: {finding.llm_reasoning}",
            ],
        )
        decision = hil.review_cleaning(finding, mapping, sql)
        if not decision.approved:
            result.skipped_reason = "cleaning rejected by reviewer"
            result.llm_calls = self.take_llm_calls()
            return result
        replay = {
            "kind": "value_map",
            "target_table": target_table,
            "column": column_name,
            "mapping": dict(mapping),
            "standard_pattern": standard_pattern,
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
