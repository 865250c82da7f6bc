"""Unit tests for repro.kmodes.cost (Equation 4)."""

import numpy as np
import pytest

from repro.exceptions import DataValidationError
from repro.kmodes.cost import clustering_cost


class TestClusteringCost:
    def test_zero_when_items_equal_modes(self):
        X = np.array([[1, 2], [3, 4]])
        modes = X.copy()
        assert clustering_cost(X, modes, np.array([0, 1])) == 0

    def test_counts_total_mismatches(self):
        X = np.array([[1, 2], [3, 4]])
        modes = np.array([[1, 9], [9, 9]])
        assert clustering_cost(X, modes, np.array([0, 1])) == 3

    def test_maximum_is_n_times_m(self):
        X = np.zeros((4, 3), dtype=np.int64)
        modes = np.ones((2, 3), dtype=np.int64)
        assert clustering_cost(X, modes, np.array([0, 1, 0, 1])) == 12

    def test_equals_sum_of_matching_distances(self):
        from repro.kmodes.dissimilarity import matching_distance

        rng = np.random.default_rng(0)
        X = rng.integers(0, 5, (30, 7))
        modes = rng.integers(0, 5, (4, 7))
        labels = rng.integers(0, 4, 30)
        expected = sum(
            matching_distance(X[i], modes[labels[i]]) for i in range(30)
        )
        assert clustering_cost(X, modes, labels) == expected

    def test_blocked_count_equals_one_shot_count(self):
        # two whole row blocks and a partial third
        from repro.kmodes import cost

        rng = np.random.default_rng(4)
        n = 2 * cost._BLOCK_ROWS + 123
        X = rng.integers(0, 3, (n, 5))
        modes = rng.integers(0, 3, (6, 5))
        labels = rng.integers(0, 6, n)
        assert clustering_cost(X, modes, labels) == np.count_nonzero(
            X != modes[labels]
        )

    def test_empty_labels(self):
        X = np.zeros((0, 3), dtype=np.int64)
        modes = np.zeros((2, 3), dtype=np.int64)
        assert clustering_cost(X, modes, np.zeros(0, dtype=np.int64)) == 0

    def test_rejects_labels_out_of_range(self):
        X = np.zeros((2, 2), dtype=np.int64)
        modes = np.zeros((1, 2), dtype=np.int64)
        with pytest.raises(DataValidationError):
            clustering_cost(X, modes, np.array([0, 1]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DataValidationError):
            clustering_cost(
                np.zeros((2, 2), dtype=np.int64),
                np.zeros((1, 3), dtype=np.int64),
                np.array([0, 0]),
            )

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(DataValidationError):
            clustering_cost(
                np.zeros((2, 2), dtype=np.int64),
                np.zeros((1, 2), dtype=np.int64),
                np.array([0]),
            )
