"""Unit tests for the streaming extension (repro.core.streaming)."""

import numpy as np
import pytest

from repro.api import LSHSpec
from repro.core.mh_kmodes import MHKModes
from repro.core.streaming import ClusterModeTracker, StreamingMHKModes
from repro.data.datgen import RuleBasedGenerator
from repro.exceptions import ConfigurationError, DataValidationError, NotFittedError
from repro.metrics.purity import cluster_purity


@pytest.fixture(scope="module")
def stream_data():
    """A planted dataset split into a bootstrap batch and a stream."""
    data = RuleBasedGenerator(
        n_clusters=12, n_attributes=20, domain_size=800, seed=31
    ).generate(600)
    return data, 360  # bootstrap on the first 360, stream the rest


class TestClusterModeTracker:
    def test_counts_and_mode(self):
        tracker = ClusterModeTracker(2, 3)
        tracker.add(np.array([1, 2, 3]), 0)
        tracker.add(np.array([1, 2, 9]), 0)
        tracker.add(np.array([7, 7, 7]), 1)
        fallback = np.zeros((2, 3), dtype=np.int64)
        modes = tracker.modes(fallback)
        assert modes[0].tolist() == [1, 2, 3]  # tie on col 2 → smaller code
        assert modes[1].tolist() == [7, 7, 7]

    def test_tie_break_matches_batch_modes(self):
        from repro.kmodes.modes import compute_modes

        rng = np.random.default_rng(0)
        X = rng.integers(0, 5, (40, 6))
        labels = rng.integers(0, 3, 40)
        tracker = ClusterModeTracker.from_assignment(X, labels, 3)
        batch = compute_modes(
            X, labels, 3, previous_modes=np.zeros((3, 6), dtype=X.dtype)
        )
        incremental = tracker.modes(np.zeros((3, 6), dtype=np.int64))
        populated = np.bincount(labels, minlength=3) > 0
        assert np.array_equal(incremental[populated], batch[populated])

    def test_empty_cluster_uses_fallback(self):
        tracker = ClusterModeTracker(2, 2)
        tracker.add(np.array([5, 5]), 0)
        fallback = np.array([[0, 0], [9, 9]])
        assert tracker.modes(fallback)[1].tolist() == [9, 9]

    def test_cluster_sizes(self):
        tracker = ClusterModeTracker(3, 2)
        tracker.add(np.array([1, 1]), 2)
        tracker.add(np.array([1, 1]), 2)
        assert tracker.cluster_sizes.tolist() == [0, 0, 2]

    def test_rejects_bad_cluster(self):
        tracker = ClusterModeTracker(2, 2)
        with pytest.raises(DataValidationError):
            tracker.add(np.array([1, 1]), 5)

    def test_rejects_bad_shape_config(self):
        with pytest.raises(ConfigurationError):
            ClusterModeTracker(0, 2)


class TestStreamingMHKModes:
    def test_requires_bootstrap(self):
        stream = StreamingMHKModes(n_clusters=3, lsh=LSHSpec(bands=4, rows=1, seed=0))
        with pytest.raises(NotFittedError):
            stream.push(np.array([1, 2, 3]))

    def test_bootstrap_then_stream(self, stream_data):
        data, split = stream_data
        stream = StreamingMHKModes(n_clusters=12, lsh=LSHSpec(bands=20, rows=2, seed=0))
        stream.bootstrap(data.X[:split])
        labels = stream.extend(data.X[split:])
        assert labels.shape == (data.n_items - split,)
        assert labels.min() >= 0 and labels.max() < 12
        assert stream.n_seen_ == data.n_items

    def test_streamed_purity_close_to_bootstrap(self, stream_data):
        # Streamed items should join the right planted clusters almost
        # as reliably as bootstrap items did.
        data, split = stream_data
        stream = StreamingMHKModes(n_clusters=12, lsh=LSHSpec(bands=20, rows=2, seed=0))
        stream.bootstrap(data.X[:split])
        streamed_labels = stream.extend(data.X[split:])
        purity = cluster_purity(streamed_labels, data.labels[split:])
        assert purity > 0.8

    def test_streamed_items_become_visible_to_queries(self, stream_data):
        data, split = stream_data
        stream = StreamingMHKModes(n_clusters=12, lsh=LSHSpec(bands=20, rows=2, seed=0))
        stream.bootstrap(data.X[:split])
        first_label = stream.push(data.X[split])
        # Pushing the identical item again must find the first copy's
        # cluster through the index (self-similar collision).
        second_label = stream.push(data.X[split])
        assert second_label == first_label

    def test_mode_refresh_interval(self, stream_data):
        data, split = stream_data
        stream = StreamingMHKModes(
            n_clusters=12,
            lsh=LSHSpec(bands=20, rows=2, seed=0),
            refresh_interval=10,
        )
        stream.bootstrap(data.X[:split])
        before = stream.modes_.copy()
        stream.extend(data.X[split : split + 50])
        # 50 arrivals with interval 10 → several refreshes happened;
        # modes may or may not change, but the machinery must have run.
        assert stream._since_refresh < 10
        assert stream.modes_.shape == before.shape

    def test_cluster_sizes_accumulate(self, stream_data):
        data, split = stream_data
        stream = StreamingMHKModes(n_clusters=12, lsh=LSHSpec(bands=20, rows=2, seed=0))
        stream.bootstrap(data.X[:split])
        stream.extend(data.X[split:])
        assert stream.cluster_sizes_.sum() == data.n_items

    def test_fallback_error_policy(self, stream_data):
        data, split = stream_data
        stream = StreamingMHKModes(
            n_clusters=12,
            lsh=LSHSpec(bands=4, rows=5, seed=0),
            stream_fallback="error",
        )
        stream.bootstrap(data.X[:split])
        alien = np.full(data.n_attributes, 1, dtype=np.int64)
        with pytest.raises(ConfigurationError):
            stream.push(alien)

    def test_fallback_full_policy_counts(self, stream_data):
        data, split = stream_data
        stream = StreamingMHKModes(
            n_clusters=12,
            lsh=LSHSpec(bands=4, rows=5, seed=0),
            stream_fallback="full",
        )
        stream.bootstrap(data.X[:split])
        alien = np.full(data.n_attributes, 1, dtype=np.int64)
        label = stream.push(alien)
        assert 0 <= label < 12
        assert stream.n_fallbacks_ == 1

    def test_push_validates_shape(self, stream_data):
        data, split = stream_data
        stream = StreamingMHKModes(n_clusters=12, lsh=LSHSpec(bands=8, rows=1, seed=0))
        stream.bootstrap(data.X[:split])
        with pytest.raises(DataValidationError):
            stream.push(np.array([1, 2]))

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            StreamingMHKModes(n_clusters=2, refresh_interval=0)
        with pytest.raises(ConfigurationError):
            StreamingMHKModes(n_clusters=2, stream_fallback="drop")

    def test_index_of_a_plain_fit_takes_inserts(self, stream_data):
        # The index stores no neighbour lists, so a default fit's index
        # grows the way the streaming model's own does.
        data, split = stream_data
        model = MHKModes(n_clusters=12, lsh=LSHSpec(bands=20, rows=2, seed=0)).fit(
            data.X[:split]
        )
        index = model.index_
        signatures = model._signatures(data.X[split : split + 5])
        ids = index.insert_batch(signatures, np.full(5, 7))
        assert ids.tolist() == list(range(split, split + 5))
        assert index.insert(signatures[0], 3) == split + 5
        assert index.n_items == split + 6
        for item in ids:
            assert 7 in index.candidate_clusters(int(item)).tolist()
        assert {3, 7} <= set(index.candidate_clusters(split + 5).tolist())


class TestBatchExtendPipeline:
    """Unit-level checks of the batch ingest path (the property suite in
    tests/properties/test_extend_equivalence.py pins full equivalence)."""

    def test_push_then_extend_matches_pure_push(self, stream_data):
        # a partial refresh window left by push() must carry into the
        # extend segmentation
        data, split = stream_data
        ref = StreamingMHKModes(
            n_clusters=12,
            lsh=LSHSpec(bands=20, rows=2, seed=0),
            refresh_interval=7,
        ).bootstrap(data.X[:split])
        mixed = StreamingMHKModes(
            n_clusters=12,
            lsh=LSHSpec(bands=20, rows=2, seed=0),
            refresh_interval=7,
        ).bootstrap(data.X[:split])
        ref_labels = np.array([ref.push(row) for row in data.X[split:]])
        head = [mixed.push(row) for row in data.X[split : split + 5]]
        tail = mixed.extend(data.X[split + 5 :])
        assert np.array_equal(ref_labels, np.concatenate([head, tail]))
        assert np.array_equal(ref.modes_, mixed.modes_)
        assert ref.n_fallbacks_ == mixed.n_fallbacks_

    def test_extend_records_phase_timings(self, stream_data):
        data, split = stream_data
        stream = StreamingMHKModes(n_clusters=12, lsh=LSHSpec(bands=20, rows=2, seed=0))
        stream.bootstrap(data.X[:split])
        stream.extend(data.X[split:])
        stats = stream.extend_stats_
        assert set(stats) == {
            "signatures", "shortlist", "walk", "update", "refresh"
        }
        assert all(value >= 0.0 for value in stats.values())

    def test_extend_validates_input(self, stream_data):
        data, split = stream_data
        stream = StreamingMHKModes(n_clusters=12, lsh=LSHSpec(bands=8, rows=1, seed=0))
        stream.bootstrap(data.X[:split])
        with pytest.raises(DataValidationError):
            stream.extend(data.X[split])  # 1-D
        with pytest.raises(DataValidationError):
            stream.extend(data.X[split:, :3])  # wrong width
        with pytest.raises(DataValidationError):
            stream.extend(data.X[split:].astype(float))  # non-integer

    def test_extend_error_fallback_commits_nothing_of_the_segment(
        self, stream_data
    ):
        data, split = stream_data
        stream = StreamingMHKModes(
            n_clusters=12,
            lsh=LSHSpec(bands=4, rows=5, seed=0),
            stream_fallback="error",
        )
        stream.bootstrap(data.X[:split])
        seen_before = stream.n_seen_
        alien = np.full((3, data.n_attributes), 1, dtype=np.int64)
        with pytest.raises(ConfigurationError):
            stream.extend(alien)
        assert stream.n_seen_ == seen_before

    def test_close_is_idempotent_and_context_managed(self, stream_data):
        from repro.api import StreamSpec
        from repro.engine.pool import live_pool_count

        data, split = stream_data
        with StreamingMHKModes(
            n_clusters=12,
            lsh=LSHSpec(bands=8, rows=1, seed=0),
            stream=StreamSpec(backend="thread", n_jobs=2, chunk_items=16),
        ) as stream:
            stream.bootstrap(data.X[:split])
            stream.extend(data.X[split:])
            assert stream._stream_pool is not None
            stream.close()
            stream.close()
            assert stream._stream_pool is None
        assert live_pool_count() == 0

    def test_set_params_releases_the_pool(self, stream_data):
        from repro.api import StreamSpec
        from repro.engine.pool import live_pool_count

        data, split = stream_data
        stream = StreamingMHKModes(
            n_clusters=12,
            lsh=LSHSpec(bands=8, rows=1, seed=0),
            stream=StreamSpec(backend="thread", n_jobs=2),
        )
        stream.bootstrap(data.X[:split])
        stream.extend(data.X[split:])
        assert stream._stream_pool is not None
        stream.set_params(stream=StreamSpec())
        assert live_pool_count() == 0
