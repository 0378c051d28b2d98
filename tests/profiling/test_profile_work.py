"""Profiling work per clean: each statistic is computed once per table version, on first read.

``TableProfile`` is lazy.  Only the FD operator reads the FD candidates and
only the duplication operator reads the duplicate statistics, so one clean
runs one FD pass and one duplicate count, and a clean without the FD operator
runs no FD pass at all.  The lazy values must equal the eager functions'.
"""

from __future__ import annotations

import pytest

from repro import CocoonCleaner, load_dataset
from repro.core.context import CleaningConfig
from repro.core.workflow import default_operators
from repro.datasets import dataset_names
from repro.profiling import (
    discover_fds,
    duplicate_row_count,
    duplicate_row_samples,
    profile_column,
    profile_table,
)
from repro.profiling import table_profile


@pytest.fixture
def calls(monkeypatch):
    """Count the calls the lazy profile makes to FD discovery and duplicate counting."""
    counts = {"discover_fds": 0, "duplicate_row_count": 0}

    def counting(name):
        original = getattr(table_profile, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(table_profile, name, wrapper)

    for name in counts:
        counting(name)
    return counts


@pytest.mark.parametrize("name", dataset_names())
def test_one_fd_pass_and_one_duplicate_count_per_clean(calls, name):
    CocoonCleaner().clean(load_dataset(name, seed=0, scale=0.05).dirty)
    assert calls == {"discover_fds": 1, "duplicate_row_count": 1}


def test_no_fd_pass_without_the_fd_operator(calls):
    issues = [op.issue_type for op in default_operators() if op.issue_type != "functional_dependency"]
    config = CleaningConfig(enabled_issues=issues)
    CocoonCleaner(config=config).clean(load_dataset("hospital", seed=0, scale=0.05).dirty)
    assert calls["discover_fds"] == 0
    assert calls["duplicate_row_count"] == 1


@pytest.mark.parametrize("name", ["hospital", "beers"])
def test_lazy_values_equal_the_direct_computation(name):
    table = load_dataset(name, seed=0, scale=0.05).dirty
    config = CleaningConfig()
    profile = profile_table(
        table, max_values_per_column=config.sample_values, fd_min_score=config.fd_min_score
    )
    assert profile.table_name == table.name
    assert profile.row_count == table.num_rows
    assert profile.column_names == table.column_names
    # Read the duplicate samples before the count, and the FDs before any column.
    assert profile.duplicate_samples == duplicate_row_samples(table)
    assert profile.duplicate_rows == duplicate_row_count(table)
    assert profile.fd_candidates == discover_fds(table, min_score=config.fd_min_score)
    for column in reversed(table.column_names):
        expected = profile_column(table.column(column), max_values=config.sample_values)
        assert profile.column(column) == expected
    assert list(profile.column_profiles) == table.column_names


def test_each_value_is_computed_once(calls):
    table = load_dataset("flights", seed=0, scale=0.05).dirty
    profile = profile_table(table)
    assert calls == {"discover_fds": 0, "duplicate_row_count": 0}
    first = profile.column(table.column_names[0])
    for _ in range(3):
        profile.fd_candidates
        profile.duplicate_rows
        profile.summary_text()
    assert calls == {"discover_fds": 1, "duplicate_row_count": 1}
    assert profile.column(table.column_names[0]) is first
