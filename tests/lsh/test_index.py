"""Unit tests for repro.lsh.index (Algorithm 2's data structure)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DataValidationError, NotFittedError
from repro.lsh.index import ClusteredLSHIndex
from repro.lsh.minhash import MinHasher
from repro.lsh.tokens import TokenSets


def build_index(bands=8, rows=2, precompute=True):
    """Index over 3 near-duplicate pairs + 1 outlier, clusters 0..3."""
    rows_tokens = [
        [1, 2, 3, 4],
        [1, 2, 3, 5],      # near-duplicate of item 0
        [100, 200, 300],
        [100, 200, 301],   # near-duplicate of item 2
        [9_000, 9_001],    # outlier
    ]
    ts = TokenSets.from_lists(rows_tokens)
    sigs = MinHasher(bands * rows, seed=3).signatures(ts)
    index = ClusteredLSHIndex(bands, rows, precompute_neighbours=precompute)
    index.build(sigs, np.array([0, 1, 2, 3, 4]))
    return index


class TestBuild:
    def test_requires_build_before_query(self):
        index = ClusteredLSHIndex(4, 2)
        with pytest.raises(NotFittedError):
            index.candidate_clusters(0)
        with pytest.raises(NotFittedError):
            index.stats()

    def test_rejects_mismatched_assignments(self):
        sigs = np.zeros((3, 8), dtype=np.int64)
        with pytest.raises(DataValidationError):
            ClusteredLSHIndex(4, 2).build(sigs, np.array([0, 1]))

    def test_rejects_zero_items(self):
        with pytest.raises(DataValidationError):
            ClusteredLSHIndex(4, 2).build(
                np.zeros((0, 8), dtype=np.int64), np.zeros(0, dtype=np.int64)
            )

    def test_rejects_2d_assignments(self):
        sigs = np.zeros((3, 8), dtype=np.int64)
        with pytest.raises(DataValidationError):
            ClusteredLSHIndex(4, 2).build(sigs, np.zeros((3, 1), dtype=np.int64))

    def test_rejects_bad_band_config(self):
        with pytest.raises(ConfigurationError):
            ClusteredLSHIndex(0, 2)

    def test_n_items(self):
        assert build_index().n_items == 5

    def test_build_returns_self(self):
        sigs = np.zeros((2, 8), dtype=np.int64)
        index = ClusteredLSHIndex(4, 2)
        assert index.build(sigs, np.array([0, 1])) is index


class TestQueries:
    def test_item_is_own_candidate(self):
        index = build_index()
        for i in range(5):
            assert i in index.candidate_items(i).tolist()

    def test_own_cluster_always_in_shortlist(self):
        index = build_index()
        for i in range(5):
            assert i in index.candidate_clusters(i).tolist()

    def test_near_duplicates_are_candidates(self):
        index = build_index()
        assert 1 in index.candidate_items(0).tolist()
        assert 3 in index.candidate_items(2).tolist()

    def test_outlier_isolated(self):
        index = build_index()
        assert index.candidate_items(4).tolist() == [4]

    def test_shortlist_reflects_assignments(self):
        index = build_index()
        clusters = index.candidate_clusters(0)
        assert set(clusters.tolist()) == {0, 1}

    def test_precompute_matches_on_the_fly(self):
        fast = build_index(precompute=True)
        slow = build_index(precompute=False)
        for i in range(5):
            assert np.array_equal(fast.candidate_items(i), slow.candidate_items(i))

    def test_neighbour_groups_only_when_precomputed(self):
        assert build_index(precompute=True).neighbour_groups() is not None
        assert build_index(precompute=False).neighbour_groups() is None

    def test_identical_signatures_share_group(self):
        ts = TokenSets.from_lists([[1, 2], [1, 2], [50, 60]])
        sigs = MinHasher(8, seed=0).signatures(ts)
        index = ClusteredLSHIndex(4, 2).build(sigs, np.arange(3))
        groups = index.neighbour_groups()
        assert groups is not None
        group_of, _ = groups
        assert group_of[0] == group_of[1]
        assert group_of[0] != group_of[2]

    def test_candidates_sorted_unique(self):
        index = build_index()
        for i in range(5):
            c = index.candidate_items(i)
            assert np.array_equal(c, np.unique(c))


class TestNovelSignatureQueries:
    def test_known_signature_finds_cluster(self):
        ts = TokenSets.from_lists([[1, 2, 3, 4], [1, 2, 3, 5]])
        mh = MinHasher(16, seed=3)
        sigs = mh.signatures(ts)
        index = ClusteredLSHIndex(8, 2).build(sigs, np.array([7, 7]))
        novel = mh.signature(np.array([1, 2, 3, 4]))  # identical to item 0
        assert index.candidate_clusters_for_signature(novel).tolist() == [7]

    def test_unrelated_signature_returns_empty(self):
        index = build_index()
        mh = MinHasher(16, seed=3)
        novel = mh.signature(np.array([777_777, 888_888]))
        assert index.candidate_clusters_for_signature(novel).size == 0


class TestAssignmentUpdates:
    def test_update_assignment_changes_shortlist(self):
        index = build_index()
        index.update_assignment(1, 9)
        assert 9 in index.candidate_clusters(0).tolist()

    def test_set_assignments_bulk(self):
        index = build_index()
        index.set_assignments(np.array([5, 5, 5, 5, 5]))
        assert index.candidate_clusters(0).tolist() == [5]

    def test_set_assignments_shape_checked(self):
        index = build_index()
        with pytest.raises(DataValidationError):
            index.set_assignments(np.array([1, 2]))

    def test_assignments_property_is_copy(self):
        index = build_index()
        copy = index.assignments
        copy[:] = 99
        assert not np.array_equal(index.assignments, copy)

    def test_assignments_view_is_live(self):
        index = build_index()
        view = index.assignments_view()
        view[0] = 42
        assert index.assignments[0] == 42
        assert 42 in index.candidate_clusters(1).tolist()

    def test_set_assignments_copies_input(self):
        index = build_index()
        arr = np.array([0, 0, 0, 0, 0])
        index.set_assignments(arr)
        arr[0] = 77
        assert index.assignments[0] == 0


class TestStats:
    def test_stats_fields(self):
        stats = build_index().stats()
        assert stats.n_items == 5
        assert stats.bands == 8
        assert stats.rows == 2
        assert stats.n_buckets > 0
        assert stats.max_bucket_size >= 1
        assert stats.mean_bucket_size > 0
        assert stats.mean_neighbours >= 1.0

    def test_mean_neighbours_nan_without_precompute(self):
        stats = build_index(precompute=False).stats()
        assert np.isnan(stats.mean_neighbours)

    def test_bucket_count_bounded_by_bands_times_items(self):
        index = build_index()
        stats = index.stats()
        assert stats.n_buckets <= 8 * 5


class TestInsertBatch:
    """insert_batch == insert row by row."""

    @staticmethod
    def _signatures(n, width, seed=11):
        rng = np.random.default_rng(seed)
        ts = TokenSets.from_lists(
            [rng.integers(0, 50, size=rng.integers(1, 6)).tolist() for _ in range(n)]
        )
        return MinHasher(width, seed=5).signatures(ts)

    def _fresh_pair(self):
        sigs = self._signatures(12, 16)
        assignments = np.arange(12) % 4
        make = lambda: ClusteredLSHIndex(
            8, 2, precompute_neighbours=False
        ).build(sigs, assignments)
        return make(), make()

    def test_matches_sequential_insert(self):
        batched, sequential = self._fresh_pair()
        new_sigs = self._signatures(9, 16, seed=77)
        clusters = np.array([3, 1, 0, 2, 2, 1, 0, 3, 1])
        ids = batched.insert_batch(new_sigs, clusters)
        expected = [sequential.insert(s, int(c)) for s, c in zip(new_sigs, clusters)]
        assert ids.tolist() == expected
        assert batched.n_items == sequential.n_items == 21
        assert np.array_equal(batched.assignments, sequential.assignments)
        assert np.array_equal(batched.band_keys, sequential.band_keys)
        for item in range(21):
            assert np.array_equal(
                batched.candidate_items(item), sequential.candidate_items(item)
            )
        probe = self._signatures(5, 16, seed=99)
        for sig in probe:
            assert np.array_equal(
                batched.candidate_clusters_for_signature(sig),
                sequential.candidate_clusters_for_signature(sig),
            )

    def test_precomputed_band_keys_are_equivalent(self):
        from repro.lsh.bands import compute_band_keys

        with_keys, without = self._fresh_pair()
        new_sigs = self._signatures(6, 16, seed=42)
        clusters = np.array([0, 1, 2, 3, 0, 1])
        keys = compute_band_keys(new_sigs, 8, 2)
        with_keys.insert_batch(new_sigs, clusters, band_keys=keys)
        without.insert_batch(new_sigs, clusters)
        assert np.array_equal(with_keys.band_keys, without.band_keys)
        assert np.array_equal(with_keys.assignments, without.assignments)

    def test_empty_batch_is_a_noop(self):
        index, _ = self._fresh_pair()
        ids = index.insert_batch(
            np.empty((0, 16), dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert ids.shape == (0,)
        assert index.n_items == 12

    def test_rejects_precomputed_neighbours(self):
        index = build_index(precompute=True)
        sigs = self._signatures(2, 16)
        with pytest.raises(ConfigurationError):
            index.insert_batch(sigs, np.array([0, 1]))

    def test_rejects_frozen_index(self):
        index = build_index(precompute=False)
        index.freeze()
        sigs = self._signatures(2, 16)
        with pytest.raises(ConfigurationError):
            index.insert_batch(sigs, np.array([0, 1]))

    def test_validates_shapes(self):
        index = build_index(precompute=False)
        sigs = self._signatures(3, 16)
        with pytest.raises(DataValidationError):
            index.insert_batch(sigs, np.array([0, 1]))  # length mismatch
        with pytest.raises(DataValidationError):
            index.insert_batch(sigs[0], np.array([0]))  # 1-D signatures
        with pytest.raises(DataValidationError):
            index.insert_batch(
                sigs, np.array([0, 1, 2]), band_keys=np.zeros((3, 5), dtype=np.uint64)
            )  # wrong band count

    def test_growth_stays_amortised_over_many_batches(self):
        index = build_index(precompute=False)
        for chunk in range(10):
            sigs = self._signatures(7, 16, seed=chunk)
            index.insert_batch(sigs, np.arange(7) % 4)
        assert index.n_items == 5 + 70
        assert len(index._keys_buf) >= index.n_items
