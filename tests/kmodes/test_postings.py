"""Brute-force conformance of repro.kmodes.postings.ModePostings.

Every answer is held to the dense compare it replaces: labels are the
first-minimum ``argmin`` of ``pairwise_matching(X, modes)`` (ties to the
smallest mode id), distances are its row minimum, and with current
labels the keep-current-on-ties rule equals ``KModes._assign``.  Each
drawn input is checked on both scoring routes, the postings scan and
the dense compare, whichever one the build-time choice would pick.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DataValidationError
from repro.kmodes.dissimilarity import pairwise_matching
from repro.kmodes.kmodes import KModes
from repro.kmodes.postings import DENSE_SHARE, ModePostings


def assert_conforms(modes, X, current=None, block_rows=256):
    """Both routes of ``ModePostings(modes)`` against the brute force."""
    reference = pairwise_matching(X, modes)
    postings = ModePostings(modes)
    for dense in (False, True):
        postings._dense = dense
        labels, distances = postings.nearest(X, block_rows=block_rows)
        assert labels.dtype == np.int64 and distances.dtype == np.int64
        assert labels.tolist() == np.argmin(reference, axis=1).tolist()
        assert distances.tolist() == reference.min(axis=1).tolist()
        if current is not None:
            kept, _ = postings.nearest(X, current=current, block_rows=block_rows)
            expected, _ = KModes(len(modes), chunk_items=block_rows)._assign(
                X, modes, current
            )
            assert kept.tolist() == expected.tolist()


def near_modes(rng, modes, n, mutate, high):
    """Rows copied from random modes with a share of cells redrawn."""
    rows = modes[rng.integers(0, len(modes), size=n)].copy()
    redraw = rng.random(rows.shape) < mutate
    rows[redraw] = rng.integers(0, high, size=int(redraw.sum()))
    return rows


class TestBruteForceConformance:
    @given(
        seed=st.integers(0, 2**32 - 1),
        domain=st.sampled_from([1, 2, 3, 30, 40_000, 2**62]),
        shift=st.sampled_from([0, -5, -(2**62)]),
        k=st.integers(1, 12),
        m=st.integers(1, 6),
        n=st.integers(0, 25),
        duplicates=st.integers(0, 4),
        mutate=st.floats(0.0, 1.0),
        block_rows=st.sampled_from([1, 3, 256]),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_inputs(
        self, seed, domain, shift, k, m, n, duplicates, mutate, block_rows
    ):
        rng = np.random.default_rng(seed)
        modes = rng.integers(0, domain, size=(k, m))
        # duplicated modes tie on every row: the smallest id must win
        for _ in range(duplicates):
            modes[rng.integers(0, k)] = modes[rng.integers(0, k)]
        # codes up to domain + 2 lie above every mode's maximum
        X = near_modes(rng, modes, n, mutate, domain + 2)
        current = rng.integers(-1, k, size=n)
        # negative codes; at domain 2**62, m · span passes 2**63 - 1
        assert_conforms(modes + shift, X + shift, current, block_rows)

    def test_single_mode(self):
        modes = np.array([[4, 0, 7]])
        X = np.array([[4, 0, 7], [1, 1, 1], [4, 9, 7]])
        assert_conforms(modes, X, current=np.array([-1, 0, -1]))
        labels, distances = ModePostings(modes).nearest(X)
        assert labels.tolist() == [0, 0, 0]
        assert distances.tolist() == [0, 3, 1]

    def test_single_attribute(self):
        rng = np.random.default_rng(1)
        modes = rng.integers(0, 5, size=(9, 1))
        X = rng.integers(0, 7, size=(40, 1))
        assert_conforms(modes, X, current=rng.integers(-1, 9, size=40))

    def test_duplicate_modes_tie_to_smallest_id(self):
        modes = np.array([[3, 4], [1, 2], [1, 2], [1, 2]])
        labels, distances = ModePostings(modes).nearest(np.array([[1, 2], [1, 9]]))
        assert labels.tolist() == [1, 1]
        assert distances.tolist() == [0, 1]
        # keep-current: an equally near current mode is kept
        kept, _ = ModePostings(modes).nearest(
            np.array([[1, 2], [1, 2]]), current=np.array([3, 0])
        )
        assert kept.tolist() == [3, 1]

    def test_codes_outside_the_modes_range_never_match(self):
        # span 1: attribute 0's value 1 would alias attribute 1's key 1·1 + 0
        modes = np.array([[0, 0]])
        postings = ModePostings(modes)
        X = np.array([[1, 0], [0, 1], [5, 5], [-1, 0]])
        labels, distances = postings.nearest(X)
        assert distances.tolist() == [1, 1, 2, 1]
        assert_conforms(modes, X)

    def test_empty_batch(self):
        postings = ModePostings(np.array([[1, 2, 3], [4, 5, 6]]))
        for dense in (False, True):
            postings._dense = dense
            labels, distances = postings.nearest(
                np.empty((0, 3), dtype=np.int64), current=np.empty(0, dtype=np.int64)
            )
            assert labels.shape == (0,) and distances.shape == (0,)
            assert labels.dtype == np.int64 and distances.dtype == np.int64


class TestBuildTimeChoice:
    def test_sparse_binary_scans_long_run_complements(self):
        # presence data: value 0 is held by most modes on every attribute
        rng = np.random.default_rng(7)
        modes = (rng.random((60, 30)) < 0.08).astype(np.int64)
        postings = ModePostings(modes)
        assert not postings._dense
        assert np.any(2 * np.count_nonzero(modes == 0, axis=0) > len(modes))
        X = (rng.random((120, 30)) < 0.08).astype(np.int64)
        assert_conforms(modes, X, current=rng.integers(-1, 60, size=120), block_rows=32)

    def test_balanced_binary_uses_the_dense_compare(self):
        rng = np.random.default_rng(8)
        modes = rng.integers(0, 2, size=(50, 12))
        postings = ModePostings(modes)
        assert postings.scan_share > DENSE_SHARE
        assert postings._dense
        X = rng.integers(0, 2, size=(90, 12))
        assert_conforms(modes, X, current=rng.integers(-1, 50, size=90), block_rows=16)

    def test_high_cardinality_uses_the_postings(self):
        rng = np.random.default_rng(9)
        modes = rng.integers(0, 40_000, size=(80, 20))
        postings = ModePostings(modes)
        assert postings.scan_share < 2 / len(modes)  # 1/k when every code is unique
        assert not postings._dense
        X = near_modes(rng, modes, 200, 0.3, 40_000)
        assert_conforms(modes, X, current=rng.integers(-1, 80, size=200), block_rows=64)

    def test_scan_share_formula(self):
        # runs of 3 and 1 among k = 4 modes: (3/4)·1 + (1/4)·1 over k·m = 4
        postings = ModePostings(np.array([[0], [0], [0], [1]]))
        assert postings.scan_share == pytest.approx(0.25)


class TestInputs:
    def test_postings_keep_a_read_only_copy(self):
        source = np.array([[1, 2], [3, 4]])
        postings = ModePostings(source)
        source[0, 0] = 3
        assert postings.modes.tolist() == [[1, 2], [3, 4]]
        assert not postings.modes.flags.writeable
        assert postings.nearest(np.array([[1, 2]]))[0].tolist() == [0]

    @pytest.mark.parametrize("modes", [np.empty((0, 3)), np.array([1, 2, 3])])
    def test_rejects_malformed_modes(self, modes):
        with pytest.raises(DataValidationError):
            ModePostings(modes)

    def test_rejects_non_integer_codes(self):
        with pytest.raises(DataValidationError, match="integer"):
            ModePostings(np.array([[1.5, 2.0]]))
        with pytest.raises(DataValidationError, match="integer"):
            ModePostings(np.array([[1, 2]])).nearest(np.array([[1.5, 2.0]]))

    def test_rejects_rows_of_the_wrong_width(self):
        with pytest.raises(DataValidationError, match="3 attributes"):
            ModePostings(np.array([[1, 2, 3]])).nearest(np.array([[1, 2]]))

    def test_rejects_current_labels_of_the_wrong_length(self):
        with pytest.raises(DataValidationError, match="1 labels for 2 rows"):
            ModePostings(np.array([[1, 2]])).nearest(
                np.array([[1, 2], [3, 4]]), current=np.array([0])
            )

    @pytest.mark.parametrize("dense", [False, True], ids=["postings", "dense"])
    def test_rejects_current_labels_of_k_or_more(self, dense):
        postings = ModePostings(np.array([[1, 2], [3, 4]]))
        postings._dense = dense
        with pytest.raises(DataValidationError, match="current holds label 2"):
            postings.nearest(np.array([[1, 2], [3, 4]]), current=np.array([0, 2]))
