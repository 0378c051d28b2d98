"""Column-major batch key building for the streaming QUALIFY replay."""

from repro.stream.state import _batch_step_keys


def row_major_keys(rows, key_indexes):
    from repro.sql.scalar import hashable

    return [
        [tuple(hashable(row[i]) for i in key_idx) for row in rows]
        for key_idx in key_indexes
    ]


class TestBatchStepKeys:
    def test_matches_row_major_form(self):
        rows = [
            (1, "a", None),
            (2, "a", float("nan")),
            (1, "b", [1, 2]),
        ]
        key_indexes = [[0], [1, 2], [2, 0]]
        assert _batch_step_keys(rows, key_indexes) == row_major_keys(rows, key_indexes)

    def test_empty_batch(self):
        assert _batch_step_keys([], [[0], []]) == [[], []]

    def test_empty_key_index_yields_unit_keys(self):
        rows = [(1,), (2,), (3,)]
        assert _batch_step_keys(rows, [[]]) == [[(), (), ()]]

    def test_no_steps(self):
        assert _batch_step_keys([(1,), (2,)], []) == []

    def test_shared_column_normalised_once_consistently(self):
        # Two steps referencing the same column must observe identical
        # normalised values (NULL folds to the same sentinel in both).
        rows = [(None, "x"), (5, "y")]
        first, second = _batch_step_keys(rows, [[0], [0, 1]])
        assert first == [("\0null",), (5,)]
        assert second == [("\0null", "x"), (5, "y")]

    def test_keys_interoperate_with_cross_batch_storage(self):
        # Keys from two separate batches of the same stream must collide in
        # a dict exactly as if built row-by-row.
        batch_a = _batch_step_keys([(1, "g")], [[1]])[0]
        batch_b = _batch_step_keys([(2, "g")], [[1]])[0]
        assert batch_a[0] == batch_b[0]
        assert len({batch_a[0], batch_b[0]}) == 1
