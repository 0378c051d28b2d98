"""Tests for partitioned (chunked) cleaning."""

from __future__ import annotations

import threading
import warnings

import pytest

from repro import CocoonCleaner, load_dataset
from repro.dataframe import Table
from repro.llm import PromptCacheStore, SimulatedSemanticLLM
from repro.service import CleaningService, ChunkedCleaningResult, clean_chunked
from repro.service.chunking import SAFE_CHUNK_ROWS_FLOOR


@pytest.fixture(scope="module")
def hospital():
    return load_dataset("hospital", seed=0, scale=0.2)


@pytest.fixture(scope="module")
def hospital_whole(hospital):
    return CocoonCleaner().clean(hospital.dirty)


class TestChunkedMatchesWholeTable:
    def test_hospital_two_chunks(self, hospital, hospital_whole):
        chunked = clean_chunked(hospital.dirty, chunk_rows=100)
        assert isinstance(chunked, ChunkedCleaningResult)
        assert chunked.chunk_count == 2
        assert not chunked.fell_back
        assert chunked.cleaned_table == hospital_whole.cleaned_table

    def test_hospital_four_chunks_parallel(self, hospital, hospital_whole):
        # chunk_rows=50 sits below the statistical floor, so the run warns.
        with pytest.warns(UserWarning, match="statistically safe floor"):
            chunked = clean_chunked(hospital.dirty, chunk_rows=50, max_workers=4)
        assert chunked.chunk_count == 4
        assert chunked.parallel_workers == 4
        assert chunked.cleaned_table == hospital_whole.cleaned_table

    def test_repairs_carry_global_row_ids(self, hospital):
        chunked = clean_chunked(hospital.dirty, chunk_rows=100)
        rows = {repair.row_id for repair in chunked.repairs}
        # Repairs must land in the second chunk too, addressed by original row.
        assert any(row_id >= 100 for row_id in rows)
        assert all(0 <= row_id < hospital.dirty.num_rows for row_id in rows)

    def test_sql_script_documents_chunks(self, hospital):
        chunked = clean_chunked(hospital.dirty, chunk_rows=100)
        assert "chunk 0" in chunked.sql_script
        assert "chunk 1" in chunked.sql_script
        assert "table-level pass on the merged result" in chunked.sql_script

    def test_shared_cache_across_chunks_preserves_output(self, hospital, hospital_whole):
        store = PromptCacheStore()
        chunked = clean_chunked(hospital.dirty, chunk_rows=100, cache_store=store)
        assert chunked.cleaned_table == hospital_whole.cleaned_table
        assert store.stats()["size"] > 0


class TestEmptyTableAndFloorWarning:
    def test_empty_table_returns_empty_result_without_pipeline(self):
        empty = Table.from_dict("empty", {"a": [], "b": []})
        calls = []

        def counting_llm():
            llm = SimulatedSemanticLLM()
            calls.append(llm)
            return llm

        result = clean_chunked(empty, chunk_rows=200, llm_factory=counting_llm)
        assert isinstance(result, ChunkedCleaningResult)
        assert result.cleaned_table.num_rows == 0
        assert result.cleaned_table.column_names == ["a", "b"]
        assert result.chunk_count == 0
        assert result.llm_calls == 0
        assert not result.fell_back
        assert "no rows" in result.sql_script
        assert not calls  # no LLM was even constructed

    def test_small_chunk_rows_warns_below_safe_floor(self, hospital):
        with pytest.warns(UserWarning, match="statistically safe floor"):
            clean_chunked(hospital.dirty, chunk_rows=SAFE_CHUNK_ROWS_FLOOR - 90)

    def test_no_warning_at_or_above_floor(self, hospital):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clean_chunked(hospital.dirty, chunk_rows=SAFE_CHUNK_ROWS_FLOOR)

    def test_no_warning_when_table_fits_one_chunk(self):
        small = Table.from_dict("tiny", {"a": ["x", "y"]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clean_chunked(small, chunk_rows=10)


class TestSingleChunkAndFallback:
    def test_table_smaller_than_chunk_uses_whole_table(self, hospital, hospital_whole):
        chunked = clean_chunked(hospital.dirty, chunk_rows=10_000)
        assert chunked.chunk_count == 1
        assert not chunked.fell_back
        assert chunked.cleaned_table == hospital_whole.cleaned_table

    def test_chunk_failure_falls_back_to_whole_table(self, hospital, hospital_whole):
        class ExplodingLLM(SimulatedSemanticLLM):
            def _complete(self, prompt, system=None):
                raise RuntimeError("chunk worker outage")

        def flaky_factory():
            # Chunk clients are built on the chunk pool's threads and explode;
            # the fallback's whole-table client is built on the caller's
            # thread and works.  Counting calls would not do: once chunk 0
            # fails, the pool may cancel chunk 1 before its client is built.
            on_chunk_thread = threading.current_thread().name.startswith("repro-chunk")
            return ExplodingLLM() if on_chunk_thread else SimulatedSemanticLLM()

        chunked = clean_chunked(hospital.dirty, chunk_rows=100, llm_factory=flaky_factory)
        assert chunked.fell_back
        assert chunked.chunk_count == 1
        assert chunked.cleaned_table == hospital_whole.cleaned_table

    def test_chunk_rows_must_be_positive(self, hospital):
        with pytest.raises(ValueError):
            clean_chunked(hospital.dirty, chunk_rows=0)


class TestServiceChunkedJobs:
    def test_service_runs_chunked_jobs(self, hospital, hospital_whole):
        with CleaningService(workers=2, default_chunk_rows=100) as service:
            job = service.submit(hospital.dirty)
            result = job.wait(timeout=300)
        assert result.ok
        assert result.chunked
        assert result.chunk_count == 2
        assert result.cleaning_result.cleaned_table == hospital_whole.cleaned_table
        stats = service.stats()
        assert stats.chunked_jobs == 1

    def test_per_job_chunk_override(self, hospital):
        with CleaningService(workers=2, default_chunk_rows=100) as service:
            job = service.submit(hospital.dirty, chunk_rows=10_000)
            result = job.wait(timeout=300)
        assert result.ok
        assert not result.chunked
