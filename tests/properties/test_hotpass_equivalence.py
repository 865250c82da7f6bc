"""Label-identity properties of the vectorised batch hot path.

The engine's vectorised batch pass must be a pure performance
transformation: at a fixed seed it produces labels bit-identical to
the per-item batch pass for every estimator, backend and chunk size
— and the batched predict path must match the per-item
prediction loop row for row, including rows whose shortlist is empty.
"""

import numpy as np
import pytest

import repro.engine.parallel as parallel_mod
from repro.core.mh_kmodes import MHKModes
from repro.core.shortlist import apply_fallback
from repro.core.streaming import StreamingMHKModes
from repro.data.datgen import RuleBasedGenerator
from repro.exceptions import ConfigurationError
from repro.kmeans.mh_kmeans import LSHKMeans


@pytest.fixture(scope="module")
def categorical():
    data = RuleBasedGenerator(
        n_clusters=12, n_attributes=18, domain_size=600, noise_rate=0.2, seed=31
    ).generate(380)
    initial = data.X[
        np.random.default_rng(2).choice(len(data.X), 12, replace=False)
    ].copy()
    return data.X, initial


@pytest.fixture(scope="module")
def numeric():
    rng = np.random.default_rng(17)
    X = np.vstack([rng.normal(2.5 * c, 0.9, (45, 7)) for c in range(7)])
    initial = X[rng.choice(len(X), 7, replace=False)].copy()
    return X, initial


def _fit_kmodes(X, initial, per_item=False, **overrides):
    model = MHKModes(
        n_clusters=12,
        bands=8,
        rows=2,
        seed=0,
        max_iter=12,
        update_refs="batch",
        **overrides,
    )
    if per_item:
        model._force_per_item_pass = True
    model.fit(X, initial_centroids=initial)
    return model


def _fit_kmeans(X, initial, per_item=False, **overrides):
    model = LSHKMeans(
        n_clusters=7,
        bands=8,
        rows=2,
        seed=0,
        max_iter=12,
        update_refs="batch",
        **overrides,
    )
    if per_item:
        model._force_per_item_pass = True
    model.fit(X, initial_centroids=initial)
    return model


def _assert_same_fit(candidate, reference):
    assert np.array_equal(candidate.labels_, reference.labels_)
    assert np.array_equal(candidate.centroids_, reference.centroids_)
    assert candidate.n_iter_ == reference.n_iter_
    assert candidate.stats_.shortlist_sizes == reference.stats_.shortlist_sizes


ENGINE_CONFIGS = [
    {},
    {"backend": "thread", "n_jobs": 2},
    {"backend": "thread", "n_jobs": 3},
    {"backend": "process", "n_jobs": 2},
]


class TestVectorisedPassIdentity:
    @pytest.mark.parametrize("overrides", ENGINE_CONFIGS)
    def test_mh_kmodes_matches_per_item_pass(self, categorical, overrides):
        X, initial = categorical
        reference = _fit_kmodes(X, initial, per_item=True)
        candidate = _fit_kmodes(X, initial, **overrides)
        _assert_same_fit(candidate, reference)

    @pytest.mark.parametrize("overrides", ENGINE_CONFIGS)
    def test_lsh_kmeans_matches_per_item_pass(self, numeric, overrides):
        X, initial = numeric
        reference = _fit_kmeans(X, initial, per_item=True)
        candidate = _fit_kmeans(X, initial, **overrides)
        _assert_same_fit(candidate, reference)

    @pytest.mark.parametrize("block_items", [3, 17, 100_000])
    def test_identity_invariant_to_kernel_block_size(
        self, categorical, block_items, monkeypatch
    ):
        """The memory-capping sub-block size must never change labels."""
        X, initial = categorical
        reference = _fit_kmodes(X, initial, per_item=True)
        monkeypatch.setattr(parallel_mod, "_BLOCK_ITEMS", block_items)
        candidate = _fit_kmodes(X, initial)
        chunked = _fit_kmodes(X, initial, backend="thread", n_jobs=2)
        _assert_same_fit(candidate, reference)
        _assert_same_fit(chunked, reference)

    @pytest.mark.parametrize("element_budget", [50, 4_000_000])
    def test_identity_invariant_to_distance_budget(
        self, categorical, element_budget, monkeypatch
    ):
        X, initial = categorical
        reference = _fit_kmodes(X, initial, per_item=True)
        monkeypatch.setattr(
            parallel_mod, "_BLOCK_ELEMENT_BUDGET", element_budget
        )
        _assert_same_fit(_fit_kmodes(X, initial), reference)

    def test_duplicate_heavy_data_stays_grouped(self):
        """Many identical rows form one giant neighbour group; the batch
        pass must dedupe shortlist work at the group level (not expand
        per item) and still match the per-item pass exactly."""
        rng = np.random.default_rng(9)
        distinct = rng.integers(0, 50, size=(4, 10))
        X = np.vstack([np.repeat(distinct, 120, axis=0),
                       rng.integers(0, 50, size=(20, 10))])
        initial = X[rng.choice(len(X), 4, replace=False)].copy()

        def fit(per_item, **overrides):
            model = MHKModes(
                n_clusters=4, bands=6, rows=2, seed=0, max_iter=8,
                update_refs="batch", **overrides,
            )
            if per_item:
                model._force_per_item_pass = True
            return model.fit(X, initial_centroids=initial)

        reference = fit(per_item=True)
        vectorised = fit(per_item=False)
        threaded = fit(per_item=False, backend="thread", n_jobs=2)
        assert np.array_equal(vectorised.labels_, reference.labels_)
        assert np.array_equal(threaded.labels_, reference.labels_)
        # the whole clone cohort shares one group in the index CSR
        group_of, indptr, _ = vectorised.index_.neighbour_csr()
        assert len(np.unique(group_of[:480])) == 4
        assert len(indptr) - 1 == len(np.unique(group_of))

    def test_streaming_bootstrap_matches_per_item_pass(self):
        data = RuleBasedGenerator(
            n_clusters=6, n_attributes=12, domain_size=300, seed=13
        ).generate(260)
        vectorised = StreamingMHKModes(
            n_clusters=6, bands=8, rows=1, seed=0, update_refs="batch"
        )
        threaded = StreamingMHKModes(
            n_clusters=6, bands=8, rows=1, seed=0, update_refs="batch",
            backend="thread", n_jobs=2,
        )
        # per-item reference needs the hook on the inner bootstrap model,
        # so bootstrap manually through MHKModes
        inner = MHKModes(
            n_clusters=6, bands=8, rows=1, seed=0, update_refs="batch",
            precompute_neighbours=False,
        )
        inner._force_per_item_pass = True
        inner.fit(data.X[:200])
        vectorised.bootstrap(data.X[:200])
        threaded.bootstrap(data.X[:200])
        assert np.array_equal(vectorised._bootstrap_model.labels_, inner.labels_)
        assert np.array_equal(threaded._bootstrap_model.labels_, inner.labels_)
        # the streamed tail (insert + shortlist queries over the CSR-free
        # insertable index) agrees between backends too
        assert np.array_equal(
            vectorised.extend(data.X[200:]), threaded.extend(data.X[200:])
        )


class TestBatchedPredictRegression:
    def _per_item_predict(self, model, X):
        X = model._validate_X(X)
        signatures = model._signatures(X)
        out = np.empty(X.shape[0], dtype=np.int64)
        n_empty = 0
        for i in range(X.shape[0]):
            shortlist = model.index_.candidate_clusters_for_signature(
                signatures[i]
            )
            n_empty += int(shortlist.size == 0)
            shortlist = apply_fallback(
                shortlist, model.n_clusters, model.predict_fallback
            )
            distances = model._point_distances(X, i, model.centroids_[shortlist])
            out[i] = int(shortlist[np.argmin(distances)])
        return out, n_empty

    def test_kmodes_batched_predict_with_empty_and_nonempty_rows(self, categorical):
        X, initial = categorical
        model = _fit_kmodes(X, initial)
        novel = RuleBasedGenerator(
            n_clusters=12, n_attributes=18, domain_size=600, seed=77
        ).generate(60)
        # rows guaranteed to collide with nothing: an unseen constant row
        aliens = np.full((6, X.shape[1]), 599, dtype=np.int64)
        probes = np.vstack([novel.X, aliens, X[:10]])
        expected, n_empty = self._per_item_predict(model, probes)
        assert n_empty > 0, "probe set must include empty shortlists"
        assert (
            len(probes) - n_empty > 0
        ), "probe set must include non-empty shortlists"
        assert np.array_equal(model.predict(probes), expected)

    def test_kmeans_batched_predict(self, numeric):
        X, initial = numeric
        model = _fit_kmeans(X, initial)
        rng = np.random.default_rng(5)
        probes = np.vstack(
            [
                rng.normal(2.5 * c, 1.2, (8, X.shape[1]))
                for c in range(7)
            ]
            + [rng.normal(500.0, 0.1, (4, X.shape[1]))]  # colliders with nothing
        )
        expected, n_empty = self._per_item_predict(model, probes)
        assert n_empty > 0
        assert np.array_equal(model.predict(probes), expected)

    def test_error_fallback_raises_on_empty_rows(self, categorical):
        X, initial = categorical
        model = _fit_kmodes(X, initial, predict_fallback="error")
        aliens = np.full((3, X.shape[1]), 599, dtype=np.int64)
        with pytest.raises(ConfigurationError):
            model.predict(aliens)

    def test_error_fallback_passes_when_all_rows_collide(self, categorical):
        X, initial = categorical
        model = _fit_kmodes(X, initial, predict_fallback="error")
        full = _fit_kmodes(X, initial)
        assert np.array_equal(model.predict(X[:20]), full.predict(X[:20]))
