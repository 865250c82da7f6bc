"""Unit tests for LSHKMeans (the further-work numeric extension)."""

import numpy as np
import pytest

from repro.api import LSHSpec
from repro.exceptions import ConfigurationError, DataValidationError
from repro.kmeans.kmeans import KMeans
from repro.kmeans.mh_kmeans import LSHKMeans
from repro.metrics.external import adjusted_rand_index

#: LSHKMeans' default banding (16 bands x 4 rows, p-stable) with a seed.
PSTABLE = LSHSpec(family="pstable", bands=16, rows=4, seed=0)


@pytest.fixture
def blobs():
    rng = np.random.default_rng(7)
    centres = rng.normal(0, 10, (12, 6))
    labels = rng.integers(0, 12, 360)
    return centres[labels] + rng.normal(0, 0.4, (360, 6)), labels


class TestFit:
    def test_recovers_blobs_pstable(self, blobs):
        X, truth = blobs
        model = LSHKMeans(
            n_clusters=12,
            lsh=LSHSpec(family="pstable", bands=16, rows=4, width=4.0, seed=0),
        ).fit(X)
        assert adjusted_rand_index(model.labels_, truth) > 0.8

    def test_recovers_blobs_simhash(self, blobs):
        X, truth = blobs
        model = LSHKMeans(
            n_clusters=12,
            lsh=LSHSpec(family="simhash", bands=16, rows=4, seed=0),
        ).fit(X)
        assert adjusted_rand_index(model.labels_, truth) > 0.6

    def test_quality_close_to_exact_kmeans(self, blobs):
        X, truth = blobs
        init = X[np.random.default_rng(1).choice(len(X), 12, replace=False)]
        exact = KMeans(n_clusters=12, seed=0).fit(X, initial_centroids=init)
        fast = LSHKMeans(
            n_clusters=12,
            lsh=LSHSpec(family="pstable", bands=16, rows=4, width=4.0, seed=0),
        ).fit(X, initial_centroids=init)
        exact_ari = adjusted_rand_index(exact.labels_, truth)
        fast_ari = adjusted_rand_index(fast.labels_, truth)
        assert fast_ari > 0.8 * exact_ari

    def test_shortlists_smaller_than_k(self, blobs):
        X, _ = blobs
        model = LSHKMeans(
            n_clusters=12,
            lsh=LSHSpec(family="pstable", bands=16, rows=4, width=4.0, seed=0),
        ).fit(X)
        assert np.nanmean(model.stats_.shortlist_sizes) < 12

    def test_sse_non_increasing(self, blobs):
        X, _ = blobs
        model = LSHKMeans(n_clusters=12, lsh=PSTABLE).fit(X)
        costs = model.stats_.costs
        assert all(a >= b - 1e-6 for a, b in zip(costs, costs[1:]))

    def test_deterministic(self, blobs):
        X, _ = blobs
        lsh = LSHSpec(family="pstable", bands=8, rows=2, seed=2)
        a = LSHKMeans(n_clusters=12, lsh=lsh).fit(X)
        b = LSHKMeans(n_clusters=12, lsh=lsh).fit(X)
        assert np.array_equal(a.labels_, b.labels_)

    def test_predict_on_training_data(self, blobs):
        X, _ = blobs
        model = LSHKMeans(n_clusters=12, lsh=PSTABLE).fit(X)
        predicted = model.predict(X)
        assert np.mean(predicted == model.labels_) > 0.9

    def test_algorithm_name(self, blobs):
        X, _ = blobs
        model = LSHKMeans(
            n_clusters=12,
            lsh=LSHSpec(family="simhash", bands=8, rows=2, seed=0),
        ).fit(X)
        assert model.stats_.algorithm == "LSH-K-Means(simhash) 8b 2r"


class TestValidation:
    def test_rejects_unknown_family(self):
        with pytest.raises(ConfigurationError):
            LSHKMeans(n_clusters=2, lsh={"family": "euclid"})

    def test_rejects_nan(self):
        with pytest.raises(DataValidationError):
            LSHKMeans(n_clusters=1, lsh=PSTABLE).fit(np.array([[np.nan, 0.0]]))

    def test_rejects_k_above_n(self):
        with pytest.raises(ConfigurationError):
            LSHKMeans(n_clusters=9, lsh=PSTABLE).fit(np.zeros((2, 2)))

    def test_rejects_bad_initial_shape(self, blobs):
        X, _ = blobs
        with pytest.raises(DataValidationError):
            LSHKMeans(n_clusters=12, lsh=PSTABLE).fit(
                X, initial_centroids=np.zeros((3, 6))
            )
