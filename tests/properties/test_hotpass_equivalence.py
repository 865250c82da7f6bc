"""Label-identity properties of the vectorised batch hot path.

The engine's vectorised batch pass must be a pure performance
transformation: at a fixed seed it produces labels bit-identical to
the per-item batch pass for every estimator, backend and chunk size
— and the batched predict path must match the per-item
prediction loop row for row, including rows whose shortlist is empty.
From the second pass on it scores only the items of dirty neighbour
groups (:func:`~repro.engine.parallel.dirty_groups`); every label,
centroid and per-iteration figure must still be the per-item pass's.
"""

import numpy as np
import pytest

import repro.engine.parallel as parallel_mod
import repro.kernels._numpy as numpy_kernels
from repro.api import EngineSpec, LSHSpec, TrainSpec
from repro.core.mh_kmodes import MHKModes
from repro.core.shortlist import apply_fallback
from repro.core.streaming import StreamingMHKModes
from repro.data.datgen import RuleBasedGenerator
from repro.exceptions import ConfigurationError
from repro.kmeans.mh_kmeans import LSHKMeans
from repro.engine.parallel import _assignment_chunk, _DirtyTracker, dirty_groups
from repro.lsh.index import grouped_neighbour_csr


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


#: The training settings of every fit here, the per-item reference's too.
BATCH = TrainSpec(max_iter=12, update_refs="batch")


def _fit_kmodes(X, initial, per_item=False, engine=None, train=BATCH):
    model = MHKModes(
        n_clusters=12,
        lsh=LSHSpec(bands=8, rows=2, seed=0),
        engine=engine,
        train=train,
    )
    if per_item:
        model._force_per_item_pass = True
    model.fit(X, initial_centroids=initial)
    return model


def _fit_kmeans(X, initial, per_item=False, engine=None):
    model = LSHKMeans(
        n_clusters=7,
        lsh=LSHSpec(family="pstable", bands=8, rows=2, seed=0),
        engine=engine,
        train=BATCH,
    )
    if per_item:
        model._force_per_item_pass = True
    model.fit(X, initial_centroids=initial)
    return model


def _iteration_figures(model):
    return [(it.moves, it.cost, it.mean_shortlist) for it in model.stats_.iterations]


def _assert_same_fit(candidate, reference):
    assert np.array_equal(candidate.labels_, reference.labels_)
    assert np.array_equal(candidate.centroids_, reference.centroids_)
    assert candidate.n_iter_ == reference.n_iter_
    assert _iteration_figures(candidate) == _iteration_figures(reference)


ENGINE_CONFIGS = [
    {},
    {"engine": EngineSpec(backend="thread", n_jobs=2)},
    {"engine": EngineSpec(backend="thread", n_jobs=3)},
    {"engine": EngineSpec(backend="process", n_jobs=2)},
]


class TestVectorisedPassIdentity:
    def test_fits_move_items_after_the_first_pass(self, categorical, numeric):
        # so the identity tests below cover the dirty-group passes
        for model in (
            _fit_kmodes(*categorical, per_item=True),
            _fit_kmeans(*numeric, per_item=True),
        ):
            assert model.n_iter_ >= 3
            assert any(it.moves for it in model.stats_.iterations[1:])

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

    @pytest.mark.parametrize("overrides", ENGINE_CONFIGS)
    @pytest.mark.parametrize("kind", ["kmodes", "kmeans"])
    def test_small_kernel_blocks_match_per_item_pass(
        self, kind, overrides, categorical, numeric, monkeypatch
    ):
        # dirty rows picked out of a chunk span several sub-blocks
        fit, (X, initial) = (
            (_fit_kmodes, categorical) if kind == "kmodes" else (_fit_kmeans, numeric)
        )
        reference = fit(X, initial, per_item=True)
        monkeypatch.setattr(parallel_mod, "_BLOCK_ITEMS", 17)
        _assert_same_fit(fit(X, initial, **overrides), reference)

    @pytest.mark.parametrize("block_items", [3, 17, 100_000])
    def test_identity_invariant_to_kernel_block_size(
        self, categorical, block_items, monkeypatch
    ):
        """The memory-capping sub-block size must never change labels."""
        X, initial = categorical
        reference = _fit_kmodes(X, initial, per_item=True)
        monkeypatch.setattr(parallel_mod, "_BLOCK_ITEMS", block_items)
        candidate = _fit_kmodes(X, initial)
        chunked = _fit_kmodes(
            X, initial, engine=EngineSpec(backend="thread", n_jobs=2)
        )
        _assert_same_fit(candidate, reference)
        _assert_same_fit(chunked, reference)

    @pytest.mark.parametrize(
        "kind, element_budget",
        [
            pytest.param("kmodes", 50, id="50"),
            pytest.param("kmodes", 4_000_000, id="4000000"),
            pytest.param("kmeans", 50, id="kmeans-50"),
            pytest.param("kmeans", 4_000_000, id="kmeans-4000000"),
        ],
    )
    def test_identity_invariant_to_distance_budget(
        self, kind, categorical, numeric, element_budget, monkeypatch
    ):
        # the padded-tile loop: LSHKMeans on every tier, MH-K-Modes on
        # the NumPy one (the compiled scorer builds no tiles)
        fit, (X, initial) = (
            (_fit_kmodes, categorical) if kind == "kmodes" else (_fit_kmeans, numeric)
        )
        reference = fit(X, initial, per_item=True)
        monkeypatch.setattr(numpy_kernels, "_BLOCK_ELEMENT_BUDGET", element_budget)
        _assert_same_fit(fit(X, initial), reference)

    def test_duplicate_heavy_data_stays_grouped(self):
        """Many identical rows form one giant neighbour group; the batch
        pass must dedupe shortlist work at the group level (not expand
        per item) and still match the per-item pass exactly."""
        rng = np.random.default_rng(9)
        distinct = rng.integers(0, 50, size=(4, 10))
        X = np.vstack([np.repeat(distinct, 120, axis=0),
                       rng.integers(0, 50, size=(20, 10))])
        initial = X[rng.choice(len(X), 4, replace=False)].copy()

        def fit(per_item, engine=None):
            model = MHKModes(
                n_clusters=4,
                lsh=LSHSpec(bands=6, rows=2, seed=0),
                engine=engine,
                train=TrainSpec(max_iter=8, update_refs="batch"),
            )
            if per_item:
                model._force_per_item_pass = True
            return model.fit(X, initial_centroids=initial)

        reference = fit(per_item=True)
        vectorised = fit(per_item=False)
        threaded = fit(
            per_item=False, engine=EngineSpec(backend="thread", n_jobs=2)
        )
        assert np.array_equal(vectorised.labels_, reference.labels_)
        assert np.array_equal(threaded.labels_, reference.labels_)
        # the whole clone cohort shares one group in the fit's CSR
        group_of, indptr, _ = grouped_neighbour_csr(vectorised.index_.band_keys)
        assert len(np.unique(group_of[:480])) == 4
        assert len(indptr) - 1 == len(np.unique(group_of))

    def test_streaming_bootstrap_matches_per_item_pass(self):
        data = RuleBasedGenerator(
            n_clusters=6, n_attributes=12, domain_size=300, seed=13
        ).generate(260)
        vectorised = StreamingMHKModes(
            n_clusters=6,
            lsh=LSHSpec(bands=8, rows=1, seed=0),
            train=TrainSpec(update_refs="batch"),
        )
        threaded = StreamingMHKModes(
            n_clusters=6,
            lsh=LSHSpec(bands=8, rows=1, seed=0),
            engine=EngineSpec(backend="thread", n_jobs=2),
            train=TrainSpec(update_refs="batch"),
        )
        # per-item reference needs the hook on the inner bootstrap model,
        # so bootstrap manually through MHKModes
        inner = MHKModes(
            n_clusters=6,
            lsh=LSHSpec(bands=8, rows=1, seed=0),
            train=TrainSpec(update_refs="batch"),
        )
        inner._force_per_item_pass = True
        inner.fit(data.X[:200])
        vectorised.bootstrap(data.X[:200])
        threaded.bootstrap(data.X[:200])
        assert np.array_equal(vectorised._bootstrap_model.labels_, inner.labels_)
        assert np.array_equal(threaded._bootstrap_model.labels_, inner.labels_)
        # the streamed tail (insert + shortlist queries over the
        # bootstrap's index) agrees between backends too
        assert np.array_equal(
            vectorised.extend(data.X[200:]), threaded.extend(data.X[200:])
        )


class TestDirtyGroupPasses:
    """Passes 2 and later score only the items of dirty groups."""

    @pytest.mark.parametrize("engine", ENGINE_CONFIGS[:2])
    def test_later_passes_score_fewer_rows(self, categorical, engine, monkeypatch):
        X, initial = categorical
        scored: list[list[int]] = []  # rows scored, per pass
        score = parallel_mod.best_shortlisted_centroids

        def spy(model, block, *rest):
            scored[-1].append(len(block))
            return score(model, block, *rest)

        run_pass = parallel_mod.FitSession.run_pass

        def counted(self, *args):
            scored.append([])
            return run_pass(self, *args)

        monkeypatch.setattr(parallel_mod.FitSession, "run_pass", counted)
        monkeypatch.setattr(parallel_mod, "best_shortlisted_centroids", spy)
        model = _fit_kmodes(X, initial, **engine)
        rows = [sum(calls) for calls in scored]
        assert len(rows) == model.n_iter_ >= 3
        assert rows[0] == len(X)
        assert 0 < rows[1] and all(count < len(X) for count in rows[1:]), rows

    def test_clean_items_keep_labels_and_shortlists_still_count(self, categorical):
        X, initial = categorical
        model = _fit_kmodes(X, initial)
        csr = grouped_neighbour_csr(model.index_.band_keys)
        # labels one pass from the fixed point, so the full pass moves items
        labels = _fit_kmodes(
            X, initial, train=BATCH.replace(max_iter=1)
        ).labels_
        dynamic = (model.centroids_, labels, csr)
        full = _assignment_chunk((model, X), dynamic, (0, len(X)))
        clean = np.zeros(len(csr[1]) - 1, dtype=bool)
        masked = _assignment_chunk((model, X), (*dynamic, clean), (0, len(X)))
        assert full[1] > 0
        assert np.array_equal(masked[0], labels) and masked[1] == 0
        assert masked[2:] == full[2:]  # shortlist total
        # an all-dirty mask is the full pass
        every = _assignment_chunk((model, X), (*dynamic, ~clean), (0, len(X)))
        assert np.array_equal(every[0], full[0]) and every[1:] == full[1:]


class TestDirtyRule:
    """:func:`dirty_groups` on a hand-built CSR of four groups.

    Lists: group 0 holds items 0 and 1, group 1 items 0-2, group 2
    items 1 and 2, group 3 only item 3.  Cluster 3 holds no item.
    """

    CSR = (
        np.arange(4),
        np.array([0, 2, 5, 7, 8]),
        np.array([0, 1, 0, 1, 2, 1, 2, 3]),
    )
    LABELS = np.array([0, 0, 1, 2])
    CENTROIDS = np.array([[0, 0], [1, 1], [2, 2], [3, 3]])

    def _dirty(self, labels=LABELS, centroids=CENTROIDS):
        return dirty_groups(
            self.CSR, labels, self.LABELS, centroids, self.CENTROIDS
        ).tolist()

    def test_nothing_shortlisted_changed(self):
        assert self._dirty(self.LABELS.copy(), self.CENTROIDS.copy()) == [False] * 4
        unheld = self.CENTROIDS.copy()
        unheld[3, 0] = 9
        assert self._dirty(centroids=unheld) == [False] * 4

    def test_a_neighbour_moved(self):
        labels = self.LABELS.copy()
        labels[0] = 2  # item 0 is in group 1's list, not its item
        assert self._dirty(labels) == [True, True, False, False]

    def test_an_item_moved_itself(self):
        labels = self.LABELS.copy()
        labels[3] = 0  # item 3 is only in its own list
        assert self._dirty(labels) == [False, False, False, True]

    def test_a_shortlisted_centroid_row_changed(self):
        centroids = self.CENTROIDS.copy()
        centroids[1, 1] = 5  # cluster 1 holds item 2, in groups 1 and 2
        assert self._dirty(centroids=centroids) == [False, True, True, False]

    def test_tracker_scores_everything_when_it_cannot_compare(self):
        tracker = _DirtyTracker()
        labels = self.LABELS.copy()
        assert tracker.mask(self.CSR, self.CENTROIDS, labels) is None  # first pass
        moved = labels.copy()
        moved[3] = 0
        assert tracker.mask(self.CSR, self.CENTROIDS.copy(), moved).tolist() == [
            False, False, False, True,
        ]
        # the same array again may have been written in place
        assert tracker.mask(self.CSR, self.CENTROIDS.copy(), moved) is None


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
        model = _fit_kmodes(
            X, initial, train=BATCH.replace(predict_fallback="error")
        )
        aliens = np.full((3, X.shape[1]), 599, dtype=np.int64)
        with pytest.raises(ConfigurationError):
            model.predict(aliens)

    def test_error_fallback_passes_when_all_rows_collide(self, categorical):
        X, initial = categorical
        model = _fit_kmodes(
            X, initial, train=BATCH.replace(predict_fallback="error")
        )
        full = _fit_kmodes(X, initial)
        assert np.array_equal(model.predict(X[:20]), full.predict(X[:20]))
