"""Conformance suite for the clustered index against a brute-force reference.

Every fit, restore, stream and server builds one
:class:`~repro.lsh.index.ClusteredLSHIndex`.  This suite holds it to
the definition of Algorithm 2's index, recomputed by brute force from
the band keys alone:

* item ``j`` is a candidate of item ``i`` iff the two share a key in
  some band;
* a novel signature's shortlist is the sorted distinct clusters of the
  items sharing one of its band keys;
* bucket statistics count the distinct ``(band, key)`` pairs.

It runs against both construction routes (``build`` from signatures,
and ``from_band_keys``, which every restore and the streaming server
use before inserting), and against three band/row splits of the same
signatures, so both extremes of the S-curve are held to the definition
too.  The grouped neighbour CSR a fit walks
(:func:`~repro.lsh.index.grouped_neighbour_csr` over the band keys) is
held to the same reference, before and after inserts, on buckets that
hold several distinct groups and on a key matrix of a few rows repeated
thousands of times, whose builder memory must stay linear in the item
count; its groups must be numbered as ``np.unique(axis=0)`` numbers the
distinct key rows.  Growth is held
to it as well: inserts and queries interleaved across two merges of the
delta segment into the main one, statistics over main, delta and tail,
a frozen index after inserts, a pickle round trip with a pending delta,
and one 64-bit key value planted in two bands, which must not make a
collision.  Any future index layout must pass it unchanged.
"""

import pickle
import tracemalloc

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DataValidationError, NotFittedError
from repro.lsh.bands import compute_band_keys
from repro.lsh.index import (
    TAIL_ITEMS,
    BaseClusteredIndex,
    ClusteredLSHIndex,
    grouped_neighbour_csr,
)
from repro.lsh.minhash import MinHasher
from repro.lsh.tokens import TokenSets

N_HASHES = 12

#: ``(bands, rows)`` splits of the same 12-value signatures: a middle
#: setting, the single-band extreme (only identical signatures share a
#: bucket) and the single-row extreme (one shared MinHash value is
#: enough, so buckets are densest and candidate sets largest).
SHAPES = [
    pytest.param((4, 3), id="4x3"),
    pytest.param((1, 12), id="1x12"),
    pytest.param((12, 1), id="12x1"),
]
#: The split used by the validation checks, which do not depend on it.
BANDS, ROWS = 4, 3


def _build(shape, signatures, assignments):
    return ClusteredLSHIndex(*shape).build(signatures, assignments)


def _from_band_keys(shape, signatures, assignments):
    return ClusteredLSHIndex.from_band_keys(
        *shape, compute_band_keys(signatures, *shape), assignments
    )


ROUTES = [
    pytest.param(_build, id="build"),
    pytest.param(_from_band_keys, id="from-band-keys"),
]


# ----------------------------------------------------------------------
# the brute-force reference
# ----------------------------------------------------------------------


def brute_candidates(keys: np.ndarray) -> list[np.ndarray]:
    """Per item, the sorted items sharing its key in at least one band."""
    shares = (keys[:, None, :] == keys[None, :, :]).any(axis=2)
    return [np.flatnonzero(row) for row in shares]


def brute_shortlist(
    keys: np.ndarray, assignments: np.ndarray, probe_keys: np.ndarray
) -> np.ndarray:
    """Sorted distinct clusters of the items sharing a band key with a probe."""
    return np.unique(assignments[(keys == probe_keys).any(axis=1)])


def brute_bucket_sizes(keys: np.ndarray) -> np.ndarray:
    """Member count of every distinct ``(band, key)`` pair."""
    return np.concatenate(
        [np.unique(keys[:, j], return_counts=True)[1] for j in range(keys.shape[1])]
    )


def assert_matches_brute_force(index, keys, assignments, n_hashes=N_HASHES):
    """Candidates, shortlists and bucket statistics equal the reference."""
    assert np.array_equal(index.band_keys, keys)
    assert np.array_equal(index.assignments, assignments)
    candidates = brute_candidates(keys)
    for item, expected in enumerate(candidates):
        assert np.array_equal(index.candidate_items(item), expected)
        assert np.array_equal(
            index.candidate_clusters(item), np.unique(assignments[expected])
        )
    sizes = brute_bucket_sizes(keys)
    stats = index.stats()
    assert stats.n_items == len(keys)
    assert stats.bands == keys.shape[1]
    assert stats.bands * stats.rows == n_hashes
    assert stats.n_buckets == len(sizes)
    assert stats.mean_bucket_size == float(sizes.mean())
    assert stats.max_bucket_size == int(sizes.max())


def assert_csr_matches_brute_force(keys):
    """The grouped neighbour CSR of ``keys`` lists every item's candidates."""
    group_of, indptr, indices = grouped_neighbour_csr(keys)
    assert len(group_of) == len(keys)
    assert np.all(np.diff(indptr) >= 0)
    assert indptr[0] == 0 and indptr[-1] == len(indices)
    for item, expected in enumerate(brute_candidates(keys)):
        group = group_of[item]
        assert np.array_equal(indices[indptr[group] : indptr[group + 1]], expected)
    # items share a group exactly when their key rows are equal (the
    # fixture's duplicated tail among them)
    assert_groups_are_unique_rows(keys, group_of, indptr)


def assert_groups_are_unique_rows(keys, group_of, indptr):
    """Groups are numbered as ``np.unique(axis=0)`` numbers the distinct
    key rows: by their lexicographic rank."""
    unique_rows, row_of = np.unique(keys, axis=0, return_inverse=True)
    assert np.array_equal(group_of, row_of.ravel())
    assert len(indptr) - 1 == len(unique_rows)


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------


def _minhash(token_lists):
    return MinHasher(n_hashes=N_HASHES, seed=6).signatures(
        TokenSets.from_lists(token_lists)
    )


@pytest.fixture(scope="module")
def signatures():
    """Eight cohorts of near-duplicates (0-3 of 8 tokens swapped out).

    At 4x3, cohort members collide in some bands but not all — 178
    colliding pairs, 79 of them in a single band — so every band's
    buckets matter to the reference.
    """
    rng = np.random.default_rng(42)
    bases = [rng.choice(60, size=8, replace=False) for _ in range(8)]
    items = []
    for i in range(80):
        item = bases[i % 8].copy()
        swapped = rng.integers(0, 4)
        item[rng.choice(8, size=swapped, replace=False)] = rng.integers(
            60, 200, size=swapped
        )
        items.append(item)
    # exact duplicates share one neighbour group
    return _minhash(items + items[:5])


@pytest.fixture(scope="module", params=SHAPES)
def shape(request):
    return request.param


@pytest.fixture(scope="module")
def keys(signatures, shape):
    return compute_band_keys(signatures, *shape)


@pytest.fixture(scope="module")
def assignments(signatures):
    return np.random.default_rng(3).integers(0, 9, len(signatures)).astype(np.int64)


@pytest.fixture(scope="module")
def probes(signatures):
    """Indexed signatures (non-empty shortlists) plus noise that collides with nothing."""
    rng = np.random.default_rng(11)
    noise = _minhash([rng.integers(5_000, 9_000, size=4) for _ in range(10)])
    return np.vstack([signatures[:25], noise])


# ----------------------------------------------------------------------
# queries
# ----------------------------------------------------------------------


@pytest.mark.parametrize("make", ROUTES)
class TestQuerySurface:
    def test_is_base_subclass(self, make, shape, signatures, assignments):
        assert isinstance(make(shape, signatures, assignments), BaseClusteredIndex)

    def test_matches_brute_force(self, make, shape, signatures, keys, assignments):
        index = make(shape, signatures, assignments)
        assert_matches_brute_force(index, keys, assignments)

    def test_candidates_sorted_unique(self, make, shape, signatures, assignments):
        index = make(shape, signatures, assignments)
        for item in range(len(assignments)):
            candidates = index.candidate_items(item)
            assert item in candidates
            assert np.array_equal(candidates, np.unique(candidates))

    def test_novel_shortlists_match_brute_force(
        self, make, shape, signatures, keys, assignments, probes
    ):
        index = make(shape, signatures, assignments)
        probe_keys = compute_band_keys(probes, *shape)
        saw_empty = False
        for probe, row_keys in zip(probes, probe_keys):
            expected = brute_shortlist(keys, assignments, row_keys)
            saw_empty = saw_empty or expected.size == 0
            assert np.array_equal(
                index.candidate_clusters_for_signature(probe), expected
            )
        assert saw_empty, "probe set should exercise empty shortlists"

    def test_batched_signature_shortlists_match_per_item(
        self, make, shape, signatures, assignments, probes
    ):
        index = make(shape, signatures, assignments)
        indptr, clusters = index.shortlists_for_signatures(probes)
        assert len(indptr) == len(probes) + 1
        for row, probe in enumerate(probes):
            assert np.array_equal(
                clusters[indptr[row] : indptr[row + 1]],
                index.candidate_clusters_for_signature(probe),
            )
        # the same query from keys banded beforehand
        keyed = index.shortlists_for_signatures(
            None, band_keys=compute_band_keys(probes, *shape)
        )
        assert np.array_equal(keyed[0], indptr)
        assert np.array_equal(keyed[1], clusters)

    def test_assignment_updates(self, make, shape, signatures, keys, assignments):
        index = make(shape, signatures, assignments)
        index.update_assignment(0, 77)
        assert index.assignments[0] == 77
        assert 77 in index.candidate_clusters(0)
        view = index.assignments_view()
        view[1] = 78
        assert index.assignments[1] == 78
        copied = index.assignments
        copied[:] = -5
        assert index.assignments[2] == assignments[2]
        index.set_assignments(assignments[::-1])
        assert_matches_brute_force(index, keys, assignments[::-1])
        with pytest.raises(DataValidationError):
            index.set_assignments(np.zeros(3, dtype=np.int64))

    def test_from_band_keys_round_trip(
        self, make, shape, signatures, keys, assignments
    ):
        built = make(shape, signatures, assignments)
        rebuilt = ClusteredLSHIndex.from_band_keys(
            *shape, built.band_keys, assignments
        )
        assert_matches_brute_force(rebuilt, keys, assignments)


def test_grouped_neighbour_csr_matches_brute_force(shape, signatures, keys, probes):
    # The CSR is a function of the band keys alone; inserts append rows
    # to them (``TestInsertSurface`` holds the index to that).
    assert_csr_matches_brute_force(keys)
    # after inserts: novel rows and copies of indexed ones
    arrivals = np.vstack([probes, signatures[:20], signatures[7:8]])
    assert_csr_matches_brute_force(
        np.vstack([keys, compute_band_keys(arrivals, *shape)])
    )


class TestValidation:
    def test_unbuilt_index_rejects_queries(self, signatures):
        index = ClusteredLSHIndex(BANDS, ROWS)
        for query in (
            lambda: index.candidate_items(0),
            lambda: index.candidate_clusters_for_signature(signatures[0]),
            lambda: index.shortlists_for_signatures(signatures[:2]),
            lambda: index.insert_batch(signatures[:2], np.array([0, 1])),
            lambda: index.stats(),
        ):
            with pytest.raises(NotFittedError):
                query()

    def test_query_band_keys_of_the_wrong_width_rejected(self, signatures):
        index = ClusteredLSHIndex(BANDS, ROWS).build(
            signatures, np.zeros(len(signatures), dtype=np.int64)
        )
        with pytest.raises(DataValidationError):
            index.shortlists_for_signatures(
                None, band_keys=np.zeros((2, BANDS + 1), dtype=np.uint64)
            )

    def test_mismatched_assignments_rejected(self, signatures):
        short = np.zeros(3, dtype=np.int64)
        keys = compute_band_keys(signatures, BANDS, ROWS)
        with pytest.raises(DataValidationError):
            ClusteredLSHIndex(BANDS, ROWS).build(signatures, short)
        with pytest.raises(DataValidationError):
            ClusteredLSHIndex.from_band_keys(BANDS, ROWS, keys, short)


# ----------------------------------------------------------------------
# insertion
# ----------------------------------------------------------------------


@pytest.mark.parametrize("make", ROUTES)
class TestInsertSurface:
    def test_streamed_inserts_grow_and_answer_queries(
        self, make, shape, signatures, keys, assignments
    ):
        index = make(shape, signatures, assignments)
        n = len(assignments)
        n_inserts = 300
        inserted = np.array([100 + (i % 5) for i in range(n_inserts)])
        for i in range(n_inserts):
            item = index.insert(signatures[i % n], cluster=int(inserted[i]))
            assert item == n + i
        assert index.n_items == n + n_inserts
        assert len(index.assignments_view()) == n + n_inserts
        grown_keys = np.vstack([keys, keys[np.arange(n_inserts) % n]])
        assert_matches_brute_force(
            index, grown_keys, np.concatenate([assignments, inserted])
        )

    def test_insert_batch_matches_brute_force(
        self, make, shape, signatures, keys, assignments, probes
    ):
        index = make(shape, signatures, assignments)
        arrivals = np.vstack([probes, signatures[10:20]])
        clusters = np.arange(len(arrivals), dtype=np.int64) % 7 + 20
        ids = index.insert_batch(arrivals, clusters)
        n = len(assignments)
        assert ids.tolist() == list(range(n, n + len(arrivals)))
        grown_keys = np.vstack([keys, compute_band_keys(arrivals, *shape)])
        grown_assignments = np.concatenate([assignments, clusters])
        assert_matches_brute_force(index, grown_keys, grown_assignments)
        for probe, row_keys in zip(probes, grown_keys[n : n + len(probes)]):
            assert np.array_equal(
                index.candidate_clusters_for_signature(probe),
                brute_shortlist(grown_keys, grown_assignments, row_keys),
            )

    def test_set_assignments_after_inserts(
        self, make, shape, signatures, assignments
    ):
        index = make(shape, signatures, assignments)
        index.insert(signatures[0], cluster=9)
        new = np.arange(index.n_items, dtype=np.int64)
        index.set_assignments(new)
        assert np.array_equal(index.assignments, new)


# ----------------------------------------------------------------------
# growth: the tail, the delta segment and its merges into the main one
# ----------------------------------------------------------------------


def brute_candidates_of(keys: np.ndarray, items) -> list[np.ndarray]:
    """Per listed item, the sorted items sharing its key in some band."""
    return [np.flatnonzero((keys == keys[item]).any(axis=1)) for item in items]


def assert_queries_match(index, keys, assignments, probes, items):
    """Probe shortlists (one by one and batched) and sampled candidates."""
    probe_keys = compute_band_keys(probes, index.bands, index.rows)
    indptr, clusters = index.shortlists_for_signatures(probes)
    for row, (probe, row_keys) in enumerate(zip(probes, probe_keys)):
        expected = brute_shortlist(keys, assignments, row_keys)
        assert np.array_equal(clusters[indptr[row] : indptr[row + 1]], expected)
        assert np.array_equal(index.candidate_clusters_for_signature(probe), expected)
    for item, expected in zip(items, brute_candidates_of(keys, items)):
        assert np.array_equal(index.candidate_items(item), expected)
        assert np.array_equal(
            index.candidate_clusters(item), np.unique(assignments[expected])
        )


@pytest.mark.parametrize("make", ROUTES)
class TestGrowth:
    """Inserts through the tail and the delta segment, held to the reference."""

    def test_interleaved_inserts_and_queries_across_merges(
        self, make, shape, signatures, keys, assignments, probes
    ):
        index = make(shape, signatures, assignments)
        pool = np.vstack([signatures, probes])
        pool_keys = compute_band_keys(pool, *shape)
        rng = np.random.default_rng(17)
        grown_keys, grown_assignments = keys, assignments
        merges, main_entries = 0, None
        while merges < 2:
            # one batch, then single inserts that stay in the tail
            picks = [rng.integers(0, len(pool), size=150)] + [
                rng.integers(0, len(pool), size=1) for _ in range(TAIL_ITEMS // 2)
            ]
            for pick in picks:
                clusters = rng.integers(0, 9, size=len(pick))
                if len(pick) == 1:
                    index.insert(pool[pick[0]], int(clusters[0]))
                else:
                    index.insert_batch(pool[pick], clusters)
                grown_keys = np.vstack([grown_keys, pool_keys[pick]])
                grown_assignments = np.concatenate([grown_assignments, clusters])
            assert index.n_items == len(grown_keys)
            sample = rng.choice(len(grown_keys), size=12, replace=False)
            assert_queries_match(index, grown_keys, grown_assignments, probes, sample)
            # the layout under test: count merges of the delta into main
            main = len(index._buckets().main.members)
            merges += main_entries is not None and main > main_entries
            main_entries = main
        assert np.array_equal(index.band_keys, grown_keys)
        assert np.array_equal(index.assignments, grown_assignments)
        stats = index.stats()
        sizes = brute_bucket_sizes(grown_keys)
        assert (stats.n_buckets, stats.max_bucket_size) == (len(sizes), sizes.max())
        assert stats.mean_bucket_size == float(sizes.mean())

    def test_stats_cover_main_delta_and_tail(
        self, make, shape, signatures, keys, assignments, probes
    ):
        index = make(shape, signatures, assignments)
        index.shortlists_for_signatures(probes[:1])  # build the main segment
        arrivals = np.vstack([probes, signatures[:TAIL_ITEMS]])
        clusters = np.arange(len(arrivals)) % 4
        index.insert_batch(arrivals, clusters)
        for i in range(3):
            index.insert(signatures[i], cluster=50 + i)
        state = index._buckets()
        assert len(state.delta.members) and state.covered < index.n_items
        grown_keys = np.vstack([keys, compute_band_keys(arrivals, *shape), keys[:3]])
        grown_assignments = np.concatenate([assignments, clusters, [50, 51, 52]])
        assert_matches_brute_force(index, grown_keys, grown_assignments)

    def test_frozen_after_inserts(
        self, make, shape, signatures, keys, assignments, probes
    ):
        index = make(shape, signatures, assignments)
        index.insert_batch(probes, np.arange(len(probes)) % 3)
        index.insert(signatures[7], cluster=60)
        assert index.freeze() is index
        state = index._buckets()
        assert state.covered == index.n_items  # nothing left to build or fold
        grown_keys = np.vstack([keys, compute_band_keys(probes, *shape), keys[7:8]])
        grown_assignments = np.concatenate(
            [assignments, np.arange(len(probes)) % 3, [60]]
        )
        assert_matches_brute_force(index, grown_keys, grown_assignments)
        assert_queries_match(
            index, grown_keys, grown_assignments, probes, range(len(grown_keys))
        )
        assert index._buckets() is state
        assert not index.band_keys.flags.writeable
        with pytest.raises(ConfigurationError):
            index.insert(signatures[0], cluster=1)
        with pytest.raises(ConfigurationError):
            index.insert_batch(signatures[:2], np.array([0, 1]))

    def test_pickle_round_trip_with_pending_delta(
        self, make, shape, signatures, keys, assignments, probes
    ):
        index = make(shape, signatures, assignments)
        index.shortlists_for_signatures(probes[:1])
        arrivals = np.vstack([probes, signatures[:TAIL_ITEMS]])
        clusters = np.arange(len(arrivals)) % 5
        index.insert_batch(arrivals, clusters)
        index.insert(signatures[3], cluster=70)
        state = index._buckets()
        assert len(state.delta.members) and state.covered < index.n_items
        copy = pickle.loads(pickle.dumps(index))
        grown_keys = np.vstack([keys, compute_band_keys(arrivals, *shape), keys[3:4]])
        grown_assignments = np.concatenate([assignments, clusters, [70]])
        assert_matches_brute_force(copy, grown_keys, grown_assignments)
        # both go on growing identically
        for grown in (index, copy):
            grown.insert_batch(signatures[:40], np.full(40, 80))
        more_keys = np.vstack([grown_keys, keys[:40]])
        more_assignments = np.concatenate([grown_assignments, np.full(40, 80)])
        for grown in (index, copy):
            assert_matches_brute_force(grown, more_keys, more_assignments)


@pytest.mark.parametrize("multi_band", [(4, 3), (12, 1)], ids=["4x3", "12x1"])
def test_equal_key_in_two_bands_is_no_collision(multi_band):
    """One 64-bit value is band 0's key of item 0 and band 1's of item 1.

    Planted keys reach the index through ``from_band_keys``; ``build``
    differs only in computing them, so it would test the same state.
    The neighbour CSR a fit walks must keep the value apart too.
    """
    bands, rows = multi_band
    rng = np.random.default_rng(23)
    keys = rng.integers(1, 2**63, size=(6, bands), dtype=np.uint64)
    shared = np.uint64(0x5EED5EED5EED5EED)
    keys[0, 0] = keys[1, 1] = shared
    assignments = np.arange(6, dtype=np.int64)
    index = ClusteredLSHIndex.from_band_keys(bands, rows, keys, assignments)
    assert index.candidate_items(0).tolist() == [0]
    assert index.candidate_items(1).tolist() == [1]
    assert_matches_brute_force(index, keys, assignments, n_hashes=bands * rows)
    assert_csr_matches_brute_force(keys)
    # the same value in two more bands, arriving through the delta
    # segment (a batch of TAIL_ITEMS rows) and through the tail
    arrivals = rng.integers(1, 2**63, size=(TAIL_ITEMS + 1, bands), dtype=np.uint64)
    arrivals[0, 2] = arrivals[-1, 3] = shared
    index.insert_batch(None, np.full(TAIL_ITEMS, 6), band_keys=arrivals[:-1])
    index.insert_batch(None, np.array([7]), band_keys=arrivals[-1:])
    state = index._buckets()
    assert len(state.delta.members) and state.covered == index.n_items - 1
    grown = np.vstack([keys, arrivals])
    grown_assignments = np.concatenate([assignments, np.full(TAIL_ITEMS, 6), [7]])
    for item in (0, 1, 6, len(grown) - 1):
        assert index.candidate_items(item).tolist() == [item]
    assert_matches_brute_force(index, grown, grown_assignments, n_hashes=bands * rows)
    assert_csr_matches_brute_force(grown)


# ----------------------------------------------------------------------
# neighbour lists over duplicate-heavy keys
# ----------------------------------------------------------------------


def duplicate_heavy_keys(n_rows: int, bands: int = 20, seed: int = 0) -> np.ndarray:
    """``n_rows`` rows drawn from five key rows, plus four singletons.

    Key rows 0 and 1 share band 0's bucket; key rows 2 and 3 and the
    first singleton share band 1's, so those buckets hold several
    distinct groups of thousands of identical rows each.
    """
    rng = np.random.default_rng(seed)
    base = rng.integers(1, 2**63, size=(5, bands), dtype=np.uint64)
    base[1, 0] = base[0, 0]
    base[3, 1] = base[2, 1]
    singles = rng.integers(1, 2**63, size=(4, bands), dtype=np.uint64)
    singles[0, 1] = base[2, 1]
    return np.concatenate([base[rng.integers(0, 5, size=n_rows)], singles])


def assert_groups_match_unique_rows(keys):
    group_of, indptr, _ = grouped_neighbour_csr(keys)
    assert_groups_are_unique_rows(keys, group_of, indptr)


class TestRowGrouping:
    """Rows are grouped off band 0's sort; the numbering must not move."""

    @pytest.mark.parametrize("seed", range(6))
    def test_small_matrices_with_many_duplicates(self, seed):
        # three values per band, the uint64 extremes among them, so rows
        # share band-0 keys while differing further on
        rng = np.random.default_rng(seed)
        n_rows, bands = int(rng.integers(2, 60)), int(rng.integers(2, 6))
        values = rng.integers(1, 2**64 - 1, size=(3, bands), dtype=np.uint64)
        values[0, ::2] = 0
        values[1, 1::2] = 2**64 - 1
        keys = values[rng.integers(0, 3, size=(n_rows, bands)), np.arange(bands)]
        assert_groups_match_unique_rows(keys)

    def test_one_band(self):
        rng = np.random.default_rng(1)
        assert_groups_match_unique_rows(
            rng.integers(0, 5, size=(40, 1)).astype(np.uint64)
        )

    def test_all_rows_equal(self):
        assert_groups_match_unique_rows(np.full((30, 4), 7, dtype=np.uint64))

    @pytest.mark.parametrize("shared_first_keys", [False, True])
    def test_all_rows_distinct(self, shared_first_keys):
        rng = np.random.default_rng(2)
        keys = rng.integers(1, 2**63, size=(200, 5), dtype=np.uint64)
        if shared_first_keys:
            keys[100:, 0] = keys[:100, 0]
        assert_groups_match_unique_rows(keys)

    def test_duplicate_heavy_keys(self):
        assert_groups_match_unique_rows(duplicate_heavy_keys(20_000))


class TestNeighbourListsOnSharedBuckets:
    #: Peak bytes traced per item while the lists are built.  A linear
    #: builder stays near 0.35 KiB here; expanding every member of a
    #: bucket by every other member (quadratic in a group of identical
    #: rows) exceeds 100 KiB per item at 1,000 rows.
    PEAK_BYTES_PER_ITEM = 2048

    def test_bucket_of_several_groups_matches_brute_force(self):
        rng = np.random.default_rng(31)
        rows = rng.integers(1, 2**63, size=(6, 4), dtype=np.uint64)
        rows[1:4, 2] = rows[0, 2]  # one bucket, four distinct groups
        rows[5, 0] = rows[4, 0]
        keys = rows[[0, 1, 1, 2, 3, 3, 3, 4, 5, 0, 5]]
        assert_csr_matches_brute_force(keys)
        group_of, indptr, indices = grouped_neighbour_csr(keys)
        first = group_of[0]
        assert indices[indptr[first] : indptr[first + 1]].tolist() == [
            0, 1, 2, 3, 4, 5, 6, 9,
        ]

    def test_duplicate_heavy_keys_match_brute_force(self):
        assert_csr_matches_brute_force(duplicate_heavy_keys(600))

    def test_duplicate_heavy_lists_stay_linear_in_memory(self):
        # 1,000 rows first, so a quadratic builder fails there, before
        # it can ask for gigabytes at 20,000
        for n_rows in (1_000, 20_000):
            keys = duplicate_heavy_keys(n_rows)
            tracemalloc.start()
            try:
                group_of, indptr, indices = grouped_neighbour_csr(keys)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak / len(keys) < self.PEAK_BYTES_PER_ITEM, (n_rows, peak)
            assert len(indptr) == 10  # five key rows, four singletons
            assert len(indices) < 3 * len(keys)
