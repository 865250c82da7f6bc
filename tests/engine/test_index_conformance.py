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

It runs against every construction route (``build`` with and without
precomputed neighbours, and ``from_band_keys``), so the neighbour-CSR
fast path and the bucket walk answer the same question, and against
three band/row splits of the same signatures, so both extremes of the
S-curve are held to the definition too.  Any future index layout must
pass it unchanged.
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DataValidationError, NotFittedError
from repro.lsh.bands import compute_band_keys
from repro.lsh.index import BaseClusteredIndex, ClusteredLSHIndex
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


def _build_walk(shape, signatures, assignments):
    return ClusteredLSHIndex(*shape, precompute_neighbours=False).build(
        signatures, assignments
    )


def _from_band_keys(shape, signatures, assignments):
    return ClusteredLSHIndex.from_band_keys(
        *shape, compute_band_keys(signatures, *shape), assignments
    )


PRECOMPUTED = [
    pytest.param(_build, id="build"),
    pytest.param(_from_band_keys, id="from-band-keys"),
]
ROUTES = PRECOMPUTED + [pytest.param(_build_walk, id="build-bucket-walk")]


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


def assert_matches_brute_force(index, keys, assignments):
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
    assert stats.bands * stats.rows == N_HASHES
    assert stats.n_buckets == len(sizes)
    assert stats.mean_bucket_size == float(sizes.mean())
    assert stats.max_bucket_size == int(sizes.max())
    if index.precompute_neighbours:
        lengths = np.array([len(c) for c in candidates], dtype=np.int64)
        assert stats.mean_neighbours == float(lengths.mean())
    else:
        assert np.isnan(stats.mean_neighbours)


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
            *shape,
            built.band_keys,
            assignments,
            precompute_neighbours=built.precompute_neighbours,
        )
        assert_matches_brute_force(rebuilt, keys, assignments)


@pytest.mark.parametrize("make", PRECOMPUTED)
def test_neighbour_csr_consistent_with_candidates(
    make, shape, signatures, assignments
):
    index = make(shape, signatures, assignments)
    group_of, indptr, indices = index.neighbour_csr()
    assert len(group_of) == len(assignments)
    assert np.all(np.diff(indptr) >= 0)
    assert indptr[-1] == len(indices)
    _, group_neighbours = index.neighbour_groups()
    for item in range(len(assignments)):
        group = group_of[item]
        span = indices[indptr[group] : indptr[group + 1]]
        assert item in span
        assert np.array_equal(span, index.candidate_items(item))
        assert np.array_equal(group_neighbours[group], span)
    # the duplicated tail shares its originals' groups
    n = len(assignments)
    assert np.array_equal(group_of[n - 5 :], group_of[:5])


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


class TestInsertSurface:
    @pytest.mark.parametrize("make", PRECOMPUTED)
    def test_insert_rejected_with_precomputed_neighbours(
        self, make, shape, signatures, assignments
    ):
        index = make(shape, signatures, assignments)
        with pytest.raises(ConfigurationError):
            index.insert(signatures[0], cluster=1)
        with pytest.raises(ConfigurationError):
            index.insert_batch(signatures[:2], np.array([0, 1]))

    def test_streamed_inserts_grow_and_answer_queries(
        self, shape, signatures, keys, assignments
    ):
        index = _build_walk(shape, signatures, assignments)
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
        self, shape, signatures, keys, assignments, probes
    ):
        index = _build_walk(shape, signatures, assignments)
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

    def test_set_assignments_after_inserts(self, shape, signatures, assignments):
        index = _build_walk(shape, signatures, assignments)
        index.insert(signatures[0], cluster=9)
        new = np.arange(index.n_items, dtype=np.int64)
        index.set_assignments(new)
        assert np.array_equal(index.assignments, new)
