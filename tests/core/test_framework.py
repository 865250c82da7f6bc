"""Tests for the generic framework loop via a minimal concrete subclass."""

import numpy as np
import pytest

from repro.api import LSHSpec, TrainSpec
from repro.core.framework import BaseLSHAcceleratedClustering
from repro.exceptions import ConfigurationError
from repro.lsh.minhash import MinHasher
from repro.lsh.tokens import TokenSets


class TinyMHKModes(BaseLSHAcceleratedClustering):
    """Smallest possible concrete algorithm: matching distance + modes.

    Kept deliberately independent of repro.core.mh_kmodes so framework
    bugs cannot hide behind the production subclass.
    """

    _default_lsh = LSHSpec(bands=8, rows=1)

    def __init__(self, n_clusters, bands=8, rows=1, seed=None, **kwargs):
        super().__init__(
            n_clusters, lsh=LSHSpec(bands=bands, rows=rows, seed=seed), **kwargs
        )
        self._hasher = MinHasher(bands * rows, seed=0)

    def _algorithm_name(self):
        return "tiny"

    def _validate_X(self, X):
        return np.asarray(X)

    def _initial_centroids(self, X, initial, rng):
        if initial is not None:
            return np.asarray(initial).copy()
        return X[rng.choice(len(X), self.n_clusters, replace=False)].copy()

    def _signatures(self, X):
        return self._hasher.signatures(
            TokenSets.from_categorical_matrix(X, domain_size=int(X.max()) + 1)
        )

    def _exhaustive_assign(self, X, centroids, labels):
        dists = np.count_nonzero(X[:, None, :] != centroids[None, :, :], axis=2)
        return np.argmin(dists, axis=1).astype(np.int64)

    def _point_distances(self, X, item, centroids):
        return np.count_nonzero(centroids != X[item][None, :], axis=1)

    def _update_centroids(self, X, labels, previous, rng):
        out = previous.copy()
        for cluster in range(self.n_clusters):
            members = X[labels == cluster]
            if len(members):
                for j in range(X.shape[1]):
                    values, counts = np.unique(members[:, j], return_counts=True)
                    out[cluster, j] = values[np.argmax(counts)]
        return out

    def _compute_cost(self, X, centroids, labels):
        return float(np.count_nonzero(X != centroids[labels]))


@pytest.fixture
def X():
    rng = np.random.default_rng(0)
    protos = rng.integers(0, 40, size=(4, 10))
    X = np.repeat(protos, 15, axis=0)
    noise = rng.random(X.shape) < 0.1
    X[noise] = rng.integers(0, 40, size=noise.sum())
    return X


class TestFrameworkLoop:
    def test_fit_runs_and_converges(self, X):
        model = TinyMHKModes(n_clusters=4, bands=16, rows=1, seed=0).fit(X)
        assert model.labels_.shape == (len(X),)
        assert model.n_iter_ >= 1
        assert model.stats_.setup_s > 0.0

    def test_setup_not_counted_as_iteration(self, X):
        model = TinyMHKModes(n_clusters=4, bands=16, rows=1, seed=0).fit(X)
        assert model.stats_.n_iterations == model.n_iter_

    def test_online_refs_visible_within_pass(self, X):
        # With online updates the shortlist must reflect reassignments
        # made earlier in the same pass; we verify indirectly: the run
        # converges and the index's final refs equal the final labels.
        model = TinyMHKModes(
            n_clusters=4,
            bands=16,
            rows=1,
            seed=0,
            train=TrainSpec(update_refs="online"),
        ).fit(X)
        assert np.array_equal(model.index_.assignments, model.labels_)

    def test_batch_refs_synchronised_after_pass(self, X):
        model = TinyMHKModes(
            n_clusters=4,
            bands=16,
            rows=1,
            seed=0,
            train=TrainSpec(update_refs="batch"),
        ).fit(X)
        assert np.array_equal(model.index_.assignments, model.labels_)

    def test_shortlist_sizes_recorded(self, X):
        model = TinyMHKModes(n_clusters=4, bands=16, rows=1, seed=0).fit(X)
        sizes = model.stats_.shortlist_sizes
        assert len(sizes) == model.n_iter_
        assert all(1.0 <= s <= 4.0 for s in sizes)

    def test_stop_on_max_iter(self, X):
        model = TinyMHKModes(
            n_clusters=4, bands=16, rows=1, seed=0, train=TrainSpec(max_iter=1)
        ).fit(X)
        assert model.n_iter_ == 1

    def test_track_cost_off(self, X):
        model = TinyMHKModes(
            n_clusters=4,
            bands=16,
            rows=1,
            seed=0,
            train=TrainSpec(track_cost=False),
        ).fit(X)
        assert all(np.isnan(c) for c in model.stats_.costs)

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            TinyMHKModes(n_clusters=0)
        with pytest.raises(ConfigurationError):
            TinyMHKModes(n_clusters=2, train={"max_iter": 0})
        with pytest.raises(ConfigurationError):
            TinyMHKModes(n_clusters=2, train={"update_refs": "never"})
        with pytest.raises(ConfigurationError):
            TinyMHKModes(n_clusters=2, train={"predict_fallback": "nope"})

    def test_repr_mentions_parameters(self):
        text = repr(TinyMHKModes(n_clusters=3, bands=16, rows=1, seed=1))
        assert "n_clusters=3" in text
        assert "bands=16" in text

    def test_repr_omits_default_parameters(self):
        # bands=8 / rows=1 are TinyMHKModes defaults, so the repr shows
        # only what was actually tuned.
        text = repr(TinyMHKModes(n_clusters=3, bands=8, rows=1, seed=1))
        assert text == "TinyMHKModes(n_clusters=3, seed=1)"
