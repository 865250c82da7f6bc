"""Unit tests for the MHKModes estimator (Algorithm 2 / §III-B)."""

import numpy as np
import pytest

from repro.api import LSHSpec, TrainSpec
from repro.core.mh_kmodes import MHKModes
from repro.exceptions import ConfigurationError, DataValidationError, NotFittedError
from repro.kmodes.kmodes import KModes
from repro.lsh.index import grouped_neighbour_csr
from repro.metrics.purity import cluster_purity


class TestFitBasics:
    def test_recovers_planted_clusters(self, small_planted_dataset):
        ds = small_planted_dataset
        model = MHKModes(
            n_clusters=ds.n_classes,
            lsh=LSHSpec(bands=20, rows=2, seed=0),
        ).fit(ds.X)
        assert cluster_purity(model.labels_, ds.labels) > 0.85

    def test_fitted_attributes(self, small_planted_dataset):
        ds = small_planted_dataset
        model = MHKModes(n_clusters=8, lsh=LSHSpec(bands=10, rows=2, seed=0)).fit(ds.X)
        assert model.modes_.shape == (8, ds.n_attributes)
        assert model.centroids_ is model.modes_ or np.array_equal(
            model.centroids_, model.modes_
        )
        assert model.labels_.shape == (ds.n_items,)
        assert model.index_ is not None
        assert model.stats_ is not None
        assert model.stats_.setup_s > 0.0

    def test_deterministic_given_seed(self, small_planted_dataset):
        ds = small_planted_dataset
        a = MHKModes(n_clusters=8, lsh=LSHSpec(bands=10, rows=2, seed=3)).fit(ds.X)
        b = MHKModes(n_clusters=8, lsh=LSHSpec(bands=10, rows=2, seed=3)).fit(ds.X)
        assert np.array_equal(a.labels_, b.labels_)

    def test_fit_predict(self, small_planted_dataset):
        ds = small_planted_dataset
        model = MHKModes(n_clusters=6, lsh=LSHSpec(bands=10, rows=2, seed=1))
        labels = model.fit_predict(ds.X)
        assert np.array_equal(labels, model.labels_)

    def test_algorithm_name_in_stats(self, small_planted_dataset):
        ds = small_planted_dataset
        model = MHKModes(n_clusters=4, lsh=LSHSpec(bands=20, rows=5, seed=0)).fit(ds.X)
        assert model.stats_.algorithm == "MH-K-Modes 20b 5r"


class TestShortlistBehaviour:
    def test_shortlists_much_smaller_than_k(self, medium_planted_dataset):
        ds = medium_planted_dataset
        model = MHKModes(n_clusters=60, lsh=LSHSpec(bands=20, rows=5, seed=0)).fit(ds.X)
        sizes = model.stats_.shortlist_sizes
        assert all(size < 15 for size in sizes)

    def test_more_bands_wider_shortlists(self, medium_planted_dataset):
        # More bands → lower effective threshold → more candidates.
        ds = medium_planted_dataset
        narrow = MHKModes(n_clusters=60, lsh=LSHSpec(bands=5, rows=5, seed=0)).fit(ds.X)
        wide = MHKModes(n_clusters=60, lsh=LSHSpec(bands=50, rows=5, seed=0)).fit(ds.X)
        assert np.nanmean(wide.stats_.shortlist_sizes) >= np.nanmean(
            narrow.stats_.shortlist_sizes
        )

    def test_cost_non_increasing(self, small_planted_dataset):
        ds = small_planted_dataset
        model = MHKModes(n_clusters=8, lsh=LSHSpec(bands=20, rows=2, seed=0)).fit(ds.X)
        costs = model.stats_.costs
        assert all(a >= b - 1e-9 for a, b in zip(costs, costs[1:]))

    def test_converges_with_zero_final_moves(self, small_planted_dataset):
        ds = small_planted_dataset
        model = MHKModes(n_clusters=8, lsh=LSHSpec(bands=20, rows=2, seed=0)).fit(ds.X)
        if model.converged_:
            assert model.stats_.moves_per_iteration[-1] == 0

    def test_batch_update_refs_mode(self, small_planted_dataset):
        ds = small_planted_dataset
        model = MHKModes(
            n_clusters=8,
            lsh=LSHSpec(bands=20, rows=2, seed=0),
            train=TrainSpec(update_refs="batch"),
        ).fit(ds.X)
        assert cluster_purity(model.labels_, ds.labels) > 0.7

    @pytest.mark.parametrize("update_refs", ["online", "batch"])
    def test_pass_over_the_session_lists_matches_candidate_lookups(
        self, small_planted_dataset, update_refs
    ):
        # The pass walks slices of the grouped CSR a fit session builds;
        # they must be the index's candidate lists, so the pass equals
        # Algorithm 2 looking every item's candidates up in the index.
        ds = small_planted_dataset
        model = MHKModes(
            n_clusters=8,
            lsh=LSHSpec(bands=10, rows=2, seed=0),
            train=TrainSpec(max_iter=1, update_refs=update_refs),
        ).fit(ds.X)
        index, centroids = model.index_, model.centroids_
        start = np.random.default_rng(3).integers(0, 8, ds.n_items)

        expected = start.copy()
        working = expected if update_refs == "online" else start
        expected_moves = expected_total = 0
        for i in range(ds.n_items):
            shortlist = np.unique(working[index.candidate_items(i)])
            expected_total += len(shortlist)
            distances = np.count_nonzero(centroids[shortlist] != ds.X[i], axis=1)
            current = np.searchsorted(shortlist, working[i])
            if distances[current] > distances.min():
                expected[i] = shortlist[np.argmin(distances)]
                expected_moves += 1

        labels, moves, total = model._shortlist_pass(
            ds.X,
            centroids,
            start.copy(),
            index,
            grouped_neighbour_csr(index.band_keys),
        )
        assert expected_moves > 0
        assert moves == expected_moves
        assert total == expected_total
        assert np.array_equal(labels, expected)


class TestFixedInitialisationProtocol:
    def test_same_init_same_hashes_same_result(self, small_planted_dataset):
        ds = small_planted_dataset
        init = ds.X[:8].copy()
        a = MHKModes(n_clusters=8, lsh=LSHSpec(bands=10, rows=2, seed=5)).fit(
            ds.X, initial_centroids=init
        )
        b = MHKModes(n_clusters=8, lsh=LSHSpec(bands=10, rows=2, seed=5)).fit(
            ds.X, initial_centroids=init
        )
        assert np.array_equal(a.labels_, b.labels_)

    def test_rejects_wrong_init_shape(self, small_planted_dataset):
        ds = small_planted_dataset
        with pytest.raises(DataValidationError):
            MHKModes(
                n_clusters=8,
                lsh=LSHSpec(seed=0),
            ).fit(ds.X, initial_centroids=ds.X[:3])


class TestPresenceFiltering:
    def test_absent_code_changes_hashing_not_distances(self, binary_presence_dataset):
        ds = binary_presence_dataset
        model = MHKModes(
            n_clusters=8,
            lsh=LSHSpec(bands=10, rows=1, seed=0),
            absent_code=0,
        ).fit(ds.X)
        # Distances still use the full vectors: the cost must equal the
        # plain K-Modes cost for the same labels.
        from repro.kmodes.cost import clustering_cost

        assert model.cost_ == clustering_cost(ds.X, model.modes_, model.labels_)

    def test_presence_filtering_groups_by_shared_words(self, binary_presence_dataset):
        ds = binary_presence_dataset
        with_filter = MHKModes(
            n_clusters=8,
            lsh=LSHSpec(bands=10, rows=1, seed=0),
            absent_code=0,
        ).fit(ds.X)
        assert cluster_purity(with_filter.labels_, ds.labels) > 0.4

    def test_all_absent_items_cluster_together(self):
        X = np.zeros((10, 6), dtype=np.int64)
        X[:5, 0] = 1  # five items share one word; five are empty
        model = MHKModes(
            n_clusters=2,
            lsh=LSHSpec(bands=4, rows=1, seed=0),
            absent_code=0,
        ).fit(X)
        empty_labels = set(model.labels_[5:].tolist())
        assert len(empty_labels) == 1


class TestPredict:
    def test_predict_on_training_items(self, small_planted_dataset):
        ds = small_planted_dataset
        model = MHKModes(n_clusters=8, lsh=LSHSpec(bands=20, rows=2, seed=0)).fit(ds.X)
        predicted = model.predict(ds.X)
        agreement = np.mean(predicted == model.labels_)
        assert agreement > 0.9

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            MHKModes(n_clusters=2, lsh=LSHSpec(seed=0)).predict(np.array([[1, 2]]))

    def test_predict_attribute_check(self, small_planted_dataset):
        ds = small_planted_dataset
        model = MHKModes(n_clusters=4, lsh=LSHSpec(bands=10, rows=2, seed=0)).fit(ds.X)
        with pytest.raises(DataValidationError):
            model.predict(ds.X[:, :-1])

    def test_predict_fallback_error_policy(self, small_planted_dataset):
        # A constant vector inside the fitted domain shares almost no
        # tokens with any training item, so with rows=5 it collides
        # with nothing and the shortlist comes back empty.
        ds = small_planted_dataset
        model = MHKModes(
            n_clusters=4,
            lsh=LSHSpec(bands=4, rows=5, seed=0),
            train=TrainSpec(predict_fallback="error"),
        ).fit(ds.X)
        novel = np.full((1, ds.n_attributes), 499, dtype=np.int64)
        with pytest.raises(ConfigurationError):
            model.predict(novel)

    def test_predict_full_fallback_for_novel_item(self, small_planted_dataset):
        ds = small_planted_dataset
        model = MHKModes(
            n_clusters=4,
            lsh=LSHSpec(bands=4, rows=5, seed=0),
            train=TrainSpec(predict_fallback="full"),
        ).fit(ds.X)
        novel = np.full((1, ds.n_attributes), 499, dtype=np.int64)
        label = model.predict(novel)
        assert 0 <= label[0] < 4

    def test_predict_rejects_codes_outside_fitted_domain(self, small_planted_dataset):
        # The token encoding is frozen at fit time; unseen codes above
        # the fitted domain cannot be hashed consistently and must fail
        # loudly instead of silently mis-hashing.
        ds = small_planted_dataset
        model = MHKModes(n_clusters=4, lsh=LSHSpec(bands=4, rows=5, seed=0)).fit(ds.X)
        too_big = np.full((1, ds.n_attributes), 40_000, dtype=np.int64)
        with pytest.raises(DataValidationError):
            model.predict(too_big)


class TestValidation:
    def test_rejects_float_matrix(self):
        with pytest.raises(DataValidationError):
            MHKModes(n_clusters=2, lsh=LSHSpec(seed=0)).fit(np.array([[0.5, 1.5]]))

    def test_rejects_negative_codes(self):
        with pytest.raises(DataValidationError):
            MHKModes(n_clusters=1, lsh=LSHSpec(seed=0)).fit(np.array([[-3]]))

    def test_rejects_k_above_n(self):
        with pytest.raises(ConfigurationError):
            MHKModes(n_clusters=5, lsh=LSHSpec(seed=0)).fit(np.array([[1], [2]]))

    def test_rejects_bad_bands_rows(self):
        with pytest.raises(ConfigurationError):
            MHKModes(n_clusters=2, lsh={"bands": 0, "rows": 1})
        with pytest.raises(ConfigurationError):
            MHKModes(n_clusters=2, lsh={"bands": 1, "rows": 0})

    def test_rejects_bad_update_refs(self):
        with pytest.raises(ConfigurationError):
            MHKModes(n_clusters=2, train={"update_refs": "sometimes"})

    def test_rejects_bad_fallback(self):
        with pytest.raises(ConfigurationError):
            MHKModes(n_clusters=2, train={"predict_fallback": "maybe"})

    def test_rejects_bad_init(self):
        with pytest.raises(ConfigurationError):
            MHKModes(n_clusters=2, train=TrainSpec(init="nope"))


class TestEdgeCases:
    def test_single_cluster(self, small_planted_dataset):
        ds = small_planted_dataset
        model = MHKModes(n_clusters=1, lsh=LSHSpec(bands=4, rows=2, seed=0)).fit(ds.X)
        assert np.all(model.labels_ == 0)

    def test_k_equals_n(self):
        X = np.arange(12).reshape(4, 3)
        model = MHKModes(n_clusters=4, lsh=LSHSpec(bands=8, rows=1, seed=0)).fit(X)
        assert len(np.unique(model.labels_)) == 4

    def test_constant_data(self):
        X = np.tile([3, 3, 3], (15, 1))
        model = MHKModes(n_clusters=2, lsh=LSHSpec(bands=4, rows=2, seed=0)).fit(X)
        assert model.cost_ == 0

    def test_single_attribute(self):
        X = np.array([[0], [0], [0], [7], [7], [7]])
        init = np.array([[0], [7]])
        model = MHKModes(n_clusters=2, lsh=LSHSpec(bands=8, rows=1, seed=0)).fit(
            X, initial_centroids=init
        )
        truth = np.array([0, 0, 0, 1, 1, 1])
        assert cluster_purity(model.labels_, truth) == 1.0

    def test_max_iter_one(self, small_planted_dataset):
        ds = small_planted_dataset
        model = MHKModes(
            n_clusters=8,
            lsh=LSHSpec(bands=10, rows=2, seed=0),
            train=TrainSpec(max_iter=1),
        ).fit(ds.X)
        assert model.n_iter_ == 1

    def test_hash_seed_decoupled_from_init_seed(self, small_planted_dataset):
        # Different constructor seeds with identical explicit initial
        # modes should still produce valid (possibly different) runs;
        # the hashing stream is derived from the seed but must not
        # depend on the initialisation draw.
        ds = small_planted_dataset
        init = ds.X[:8].copy()
        a = MHKModes(n_clusters=8, lsh=LSHSpec(bands=10, rows=2, seed=1)).fit(
            ds.X, initial_centroids=init
        )
        b = MHKModes(n_clusters=8, lsh=LSHSpec(bands=10, rows=2, seed=2)).fit(
            ds.X, initial_centroids=init
        )
        for model in (a, b):
            assert cluster_purity(model.labels_, ds.labels) > 0.5
