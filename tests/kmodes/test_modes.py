"""Unit tests for repro.kmodes.modes (mode update, Equation 3)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DataValidationError, EmptyClusterError
from repro.kmodes.cost import clustering_cost
from repro.kmodes.modes import column_mode, compute_modes


class TestColumnMode:
    def test_most_frequent(self):
        assert column_mode(np.array([1, 2, 2, 3])) == 2

    def test_tie_break_smallest(self):
        assert column_mode(np.array([3, 1, 3, 1])) == 1

    def test_single_value(self):
        assert column_mode(np.array([9])) == 9

    def test_rejects_empty(self):
        with pytest.raises(DataValidationError):
            column_mode(np.array([], dtype=np.int64))


class TestComputeModes:
    def test_single_cluster_mode(self):
        X = np.array([[1, 5], [1, 6], [2, 5]])
        modes = compute_modes(X, np.zeros(3, dtype=np.int64), 1)
        assert modes.tolist() == [[1, 5]]

    def test_per_cluster_modes(self):
        X = np.array([[1, 1], [1, 1], [9, 9], [9, 8], [9, 8]])
        labels = np.array([0, 0, 1, 1, 1])
        modes = compute_modes(X, labels, 2)
        assert modes[0].tolist() == [1, 1]
        assert modes[1].tolist() == [9, 8]

    def test_mode_minimises_within_cluster_cost(self):
        # Equation 3: the mode is the vector minimising D(cluster, Q).
        rng = np.random.default_rng(5)
        X = rng.integers(0, 4, (40, 6))
        labels = rng.integers(0, 3, 40)
        modes = compute_modes(X, labels, 3)
        base_cost = clustering_cost(X, modes, labels)
        for cluster in range(3):
            for j in range(6):
                for candidate in range(4):
                    perturbed = modes.copy()
                    perturbed[cluster, j] = candidate
                    assert clustering_cost(X, perturbed, labels) >= base_cost

    def test_deterministic_tie_break(self):
        # Two values with equal counts: the smaller code must win.
        X = np.array([[2], [7], [7], [2]])
        labels = np.zeros(4, dtype=np.int64)
        assert compute_modes(X, labels, 1)[0, 0] == 2

    def test_preserves_dtype(self):
        X = np.array([[1, 2]], dtype=np.int32)
        modes = compute_modes(X, np.zeros(1, dtype=np.int64), 1)
        assert modes.dtype == np.int32

    def test_empty_policy_keep(self):
        X = np.array([[1, 1], [1, 1]])
        previous = np.array([[0, 0], [42, 43]])
        modes = compute_modes(
            X, np.zeros(2, dtype=np.int64), 2,
            previous_modes=previous, empty_policy="keep",
        )
        assert modes[1].tolist() == [42, 43]

    def test_empty_policy_keep_requires_previous(self):
        X = np.array([[1, 1]])
        with pytest.raises(ConfigurationError):
            compute_modes(X, np.zeros(1, dtype=np.int64), 2, empty_policy="keep")

    def test_empty_policy_error(self):
        X = np.array([[1, 1]])
        with pytest.raises(EmptyClusterError):
            compute_modes(X, np.zeros(1, dtype=np.int64), 2, empty_policy="error")

    def test_empty_policy_reinit_uses_items(self):
        X = np.array([[1, 2], [3, 4]])
        modes = compute_modes(
            X, np.zeros(2, dtype=np.int64), 2,
            empty_policy="reinit", rng=np.random.default_rng(0),
        )
        assert modes[1].tolist() in (X[0].tolist(), X[1].tolist())

    def test_rejects_unknown_policy(self):
        X = np.array([[1]])
        with pytest.raises(ConfigurationError):
            compute_modes(X, np.zeros(1, dtype=np.int64), 1, empty_policy="what")

    def test_rejects_labels_out_of_range(self):
        X = np.array([[1], [2]])
        with pytest.raises(DataValidationError):
            compute_modes(X, np.array([0, 5]), 2)
        with pytest.raises(DataValidationError):
            compute_modes(X, np.array([0, -1]), 2)

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(DataValidationError):
            compute_modes(np.array([[1], [2]]), np.array([0]), 1)

    def test_rejects_previous_modes_shape(self):
        X = np.array([[1, 1]])
        with pytest.raises(DataValidationError):
            compute_modes(
                X, np.zeros(1, dtype=np.int64), 2,
                previous_modes=np.zeros((1, 2), dtype=np.int64),
                empty_policy="keep",
            )

    def test_large_value_codes(self):
        # datgen uses a 40 000-value domain; the fused encoding must cope.
        X = np.array([[39_999, 0], [39_999, 5], [39_999, 5]])
        modes = compute_modes(X, np.zeros(3, dtype=np.int64), 1)
        assert modes[0].tolist() == [39_999, 5]

    def test_negative_codes(self):
        # the estimators reject them, but the public function takes any
        # int64 code; (cluster, value) encodings must not alias them
        X = np.array([[-1, 3], [-1, -7], [4, -7]])
        modes = compute_modes(X, np.array([0, 0, 1]), 2)
        assert modes.tolist() == [[-1, -7], [4, -7]]

    def test_codes_near_the_int64_limit(self):
        # a key of cluster * (max code + 1) + code would wrap int64
        X = np.array([[2**62], [2**62], [5], [2**63 - 1]], dtype=np.int64)
        modes = compute_modes(X, np.array([1, 1, 0, 0]), 2)
        assert modes[:, 0].tolist() == [5, 2**62]

    def test_matches_naive_implementation(self):
        rng = np.random.default_rng(9)
        X = rng.integers(0, 6, (60, 5))
        labels = rng.integers(0, 4, 60)
        fast = compute_modes(X, labels, 4, previous_modes=np.zeros((4, 5), dtype=X.dtype))
        for cluster in range(4):
            members = X[labels == cluster]
            if len(members) == 0:
                continue
            for j in range(5):
                assert fast[cluster, j] == column_mode(members[:, j])
