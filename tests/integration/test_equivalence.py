"""Integration: MH-K-Modes vs exact K-Modes agreement.

The paper's correctness story (Section III-C) is that MH-K-Modes makes
the *same decisions* as K-Modes whenever the true best cluster reaches
the shortlist.  These tests drive that story end to end:

* with a *saturating* index (every item collides with every other),
  the shortlist contains every non-empty cluster and MH-K-Modes must
  replicate exact K-Modes decisions exactly;
* with realistic parameters, agreement is high but not guaranteed.
"""

import numpy as np
import pytest

from repro.api import LSHSpec, TrainSpec
from repro.core.mh_kmodes import MHKModes
from repro.kmodes.kmodes import KModes
from repro.metrics.external import adjusted_rand_index
from repro.metrics.purity import cluster_purity


@pytest.fixture
def saturating_dataset(rng):
    """Planted clusters plus one constant column shared by every item.

    The constant column guarantees every pair of items has Jaccard
    similarity at least 1/(2m-1); with 200 bands of 1 row the pair
    collision probability is 1-(1-J)^200 > 0.999, so under the fixed
    test seed every item's shortlist contains every populated cluster —
    the same search space exact K-Modes uses (empty clusters can never
    win under random-item initialisation because every initial mode is
    an item of some populated cluster).
    """
    k, per, m = 6, 25, 12
    protos = rng.integers(1, 400, size=(k, m))
    X = np.repeat(protos, per, axis=0)
    noise = rng.random(X.shape) < 0.2
    X[noise] = rng.integers(1, 400, size=noise.sum())
    X[:, 0] = 0  # shared constant column → universal collisions
    labels = np.repeat(np.arange(k), per)
    order = rng.permutation(len(X))
    return X[order], labels[order]


class TestSaturatedEquivalence:
    def test_identical_labels_with_full_shortlists(self, saturating_dataset, rng):
        X, _ = saturating_dataset
        k = 6
        init = X[rng.choice(len(X), k, replace=False)]
        exact = KModes(n_clusters=k, max_iter=30, seed=0).fit(X, initial_modes=init)
        accelerated = MHKModes(
            n_clusters=k,
            lsh=LSHSpec(bands=200, rows=1, seed=0),
            train=TrainSpec(max_iter=30),
        ).fit(X, initial_centroids=init)
        assert np.array_equal(exact.labels_, accelerated.labels_)
        assert exact.cost_ == accelerated.cost_

    def test_identical_modes_with_full_shortlists(self, saturating_dataset, rng):
        X, _ = saturating_dataset
        k = 6
        init = X[rng.choice(len(X), k, replace=False)]
        exact = KModes(n_clusters=k, max_iter=30, seed=0).fit(X, initial_modes=init)
        accelerated = MHKModes(
            n_clusters=k,
            lsh=LSHSpec(bands=200, rows=1, seed=0),
            train=TrainSpec(max_iter=30),
        ).fit(X, initial_centroids=init)
        assert np.array_equal(exact.modes_, accelerated.modes_)

    def test_saturated_shortlist_covers_nonempty_clusters(
        self, saturating_dataset, rng
    ):
        X, _ = saturating_dataset
        k = 6
        init = X[rng.choice(len(X), k, replace=False)]
        model = MHKModes(
            n_clusters=k,
            lsh=LSHSpec(bands=200, rows=1, seed=0),
            train=TrainSpec(max_iter=30),
        ).fit(X, initial_centroids=init)
        sizes = model.stats_.shortlist_sizes
        populated = len(np.unique(model.labels_))
        assert sizes[-1] >= populated


class TestRealisticAgreement:
    def test_high_agreement_with_generous_parameters(self, medium_planted_dataset):
        ds = medium_planted_dataset
        rng = np.random.default_rng(0)
        init = ds.X[rng.choice(ds.n_items, 60, replace=False)]
        exact = KModes(n_clusters=60, max_iter=30, seed=0).fit(
            ds.X, initial_modes=init
        )
        accelerated = MHKModes(
            n_clusters=60,
            lsh=LSHSpec(bands=30, rows=2, seed=0),
            train=TrainSpec(max_iter=30),
        ).fit(ds.X, initial_centroids=init)
        assert adjusted_rand_index(exact.labels_, accelerated.labels_) > 0.85

    def test_purity_comparable_across_parameters(self, medium_planted_dataset):
        # The paper's Figure 8 claim at laptop scale: purity within a
        # few points of exact K-Modes for all tested (b, r).
        ds = medium_planted_dataset
        rng = np.random.default_rng(1)
        init = ds.X[rng.choice(ds.n_items, 60, replace=False)]
        exact = KModes(n_clusters=60, max_iter=30, seed=0).fit(
            ds.X, initial_modes=init
        )
        exact_purity = cluster_purity(exact.labels_, ds.labels)
        for bands, rows in ((20, 2), (20, 5), (50, 5)):
            accelerated = MHKModes(
                n_clusters=60,
                lsh=LSHSpec(bands=bands, rows=rows, seed=0),
                train=TrainSpec(max_iter=30),
            ).fit(ds.X, initial_centroids=init)
            purity = cluster_purity(accelerated.labels_, ds.labels)
            assert purity > 0.85 * exact_purity, f"{bands}b {rows}r"

    def test_shortlists_shrink_search_space(self, medium_planted_dataset):
        ds = medium_planted_dataset
        model = MHKModes(
            n_clusters=60,
            lsh=LSHSpec(bands=20, rows=5, seed=0),
            train=TrainSpec(max_iter=30),
        ).fit(ds.X)
        assert np.nanmean(model.stats_.shortlist_sizes) < 60 / 4

    def test_mh_converges_no_slower_in_iterations(self, medium_planted_dataset):
        # Figure 2/3 observation: MH-K-Modes converges in no more
        # iterations than K-Modes (usually fewer).
        ds = medium_planted_dataset
        rng = np.random.default_rng(2)
        init = ds.X[rng.choice(ds.n_items, 60, replace=False)]
        exact = KModes(n_clusters=60, max_iter=40, seed=0).fit(
            ds.X, initial_modes=init
        )
        accelerated = MHKModes(
            n_clusters=60,
            lsh=LSHSpec(bands=20, rows=5, seed=0),
            train=TrainSpec(max_iter=40),
        ).fit(ds.X, initial_centroids=init)
        assert accelerated.n_iter_ <= exact.n_iter_ + 1
