"""Unit tests for repro.core.shortlist."""

import numpy as np
import pytest

from repro.api import LSHSpec
from repro.core.mh_kmodes import MHKModes
from repro.core.shortlist import apply_fallback, best_centroids_full_scan
from repro.data.io import load_cluster_model, save_model
from repro.exceptions import ConfigurationError
from repro.kmeans.mh_kmeans import LSHKMeans
from repro.kmodes.dissimilarity import pairwise_matching


class TestApplyFallback:
    def test_non_empty_passthrough(self):
        shortlist = np.array([3, 1])
        out = apply_fallback(shortlist, n_clusters=10, policy="full")
        assert out is shortlist

    def test_full_fallback_returns_all_clusters(self):
        out = apply_fallback(np.empty(0, dtype=np.int64), 5, "full")
        assert out.tolist() == [0, 1, 2, 3, 4]

    def test_error_policy_raises_on_empty(self):
        with pytest.raises(ConfigurationError):
            apply_fallback(np.empty(0, dtype=np.int64), 5, "error")

    def test_error_policy_passthrough_when_non_empty(self):
        out = apply_fallback(np.array([2]), 5, "error")
        assert out.tolist() == [2]

    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError, match="unknown fallback policy"):
            apply_fallback(np.array([1]), 5, "sideways")


def _categorical_data(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Training codes below 30, and rows that miss any index over them.

    Seven of each row's ten codes lie in 30..59, which no training item
    holds, and the model bands six MinHash rows together, so a row
    never collides with an indexed item: every row takes the
    empty-shortlist full scan.  Its other three codes come from a
    training item, which keeps the rows' distances to the modes apart.
    """
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 30, size=(400, 10))
    rows = rng.integers(30, 60, size=(120, 10))
    rows[:, :3] = X[rng.integers(0, len(X), size=120), :3]
    return X, rows


def _categorical_model() -> MHKModes:
    return MHKModes(
        n_clusters=15, lsh=LSHSpec(bands=2, rows=6, seed=0), domain_size=60
    )


def _assert_all_novel(model: MHKModes, rows: np.ndarray) -> None:
    indptr, _ = model.index_.shortlists_for_signatures(model._signatures(rows))
    assert not np.any(np.diff(indptr))


def _brute_force_labels(rows: np.ndarray, modes: np.ndarray) -> list[int]:
    return np.argmin(pairwise_matching(rows, modes), axis=1).tolist()


class TestFullScan:
    def test_categorical_model_matches_brute_force(self):
        X, rows = _categorical_data(0)
        model = _categorical_model().fit(X)
        labels, distances = best_centroids_full_scan(model, rows, model.centroids_)
        reference = pairwise_matching(rows, model.centroids_)
        assert labels.tolist() == np.argmin(reference, axis=1).tolist()
        assert distances.dtype == np.float64
        assert distances.tolist() == reference.min(axis=1).astype(float).tolist()

    def test_numeric_model_keeps_the_broadcast_scan(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(300, 5))
        model = LSHKMeans(
            n_clusters=9, lsh=LSHSpec(family="pstable", bands=8, rows=2, seed=0)
        ).fit(X)
        assert model._mode_postings(model.centroids_) is None
        rows = rng.normal(size=(90, 5))
        labels, distances = best_centroids_full_scan(model, rows, model.centroids_)
        delta = model.centroids_[None, :, :] - rows[:, None, :]
        reference = np.einsum("csm,csm->cs", delta, delta)
        assert labels.tolist() == np.argmin(reference, axis=1).tolist()
        assert np.array_equal(distances, reference.min(axis=1))


class TestFullScanPostingsNeverStale:
    def test_scores_against_the_modes_passed_in(self):
        # the same array edited in place, then a new array: each call
        # must score against the content it is given
        X, rows = _categorical_data(2)
        model = _categorical_model().fit(X)
        modes = model.centroids_.copy()
        for step in range(3):
            labels, _ = best_centroids_full_scan(model, rows, modes)
            assert labels.tolist() == _brute_force_labels(rows, modes)
            modes[step] = rows[step]
        other = modes[::-1].copy()
        labels, _ = best_centroids_full_scan(model, rows, other)
        assert labels.tolist() == _brute_force_labels(rows, other)

    def test_refit_predicts_like_a_fresh_estimator(self):
        first_X, rows = _categorical_data(3)
        other_X, _ = _categorical_data(4)
        model = _categorical_model().fit(first_X)
        _assert_all_novel(model, rows)
        first = model.predict(rows)  # scanned through the first fit's modes
        model.fit(other_X)
        _assert_all_novel(model, rows)
        refit = model.predict(rows)
        fresh = _categorical_model().fit(other_X)
        assert refit.tolist() == fresh.predict(rows).tolist()
        assert refit.tolist() == _brute_force_labels(rows, model.centroids_)
        assert refit.tolist() != first.tolist()

    def test_saved_and_loaded_model_predicts_the_same(self, tmp_path):
        X, rows = _categorical_data(5)
        model = _categorical_model().fit(X)
        _assert_all_novel(model, rows)
        expected = model.predict(rows)
        assert expected.tolist() == _brute_force_labels(rows, model.centroids_)
        save_model(model, tmp_path / "model")
        loaded = load_cluster_model(tmp_path / "model")
        assert loaded.predict(rows).tolist() == expected.tolist()
