"""Compiled-vs-NumPy kernel conformance: bit-identical, always.

Every backend of :mod:`repro.kernels` must produce byte-for-byte the
same signatures, count tensors, nearest modes and shortlist winners.
Hypothesis drives random ragged token sets, labelled batches, mode
matrices and ragged candidate lists through the pure-NumPy
implementation, the loop-form reference oracle and (when the toolchain
allows) the compiled C backend, and asserts exact agreement — including
empty batches, empty rows, duplicate modes, codes outside the modes'
range, long runs, non-contiguous and narrower-dtype inputs.

The MinHash loop is compiled into several clones of which the loader
runs one, so the suite also builds the source with the clones compiled
out — the portable loop, and the AVX2 loop where the CPU has AVX2 — and
holds each build to NumPy, including fixed cases at every lane
remainder of the 4- and 8-lane clones and at the domain's extremes.
The matching kernels are held to NumPy on those builds too.
"""

from __future__ import annotations

import ctypes
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import DataValidationError
from repro.kernels import _cbuild
from repro.kernels import _numpy as numpy_impl
from repro.kernels._cbuild import KernelBuildError, load_compiled
from repro.kernels._reference import (
    reference_count_update,
    reference_minhash,
    reference_nearest_modes,
    reference_shortlist_matching,
)
from repro.kmodes.postings import ModePostings

P31 = (1 << 31) - 1

_HAVE_CC = shutil.which("cc") is not None


def _cpu_has_avx2() -> bool:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            return any(
                line.startswith("flags") and " avx2" in line for line in handle
            )
    except OSError:
        return False


#: Compiler flags of the builds with the load-time clones compiled out:
#: the portable loop, and the AVX2 loop where the CPU can run it.
SINGLE_CLONE_BUILDS = [
    pytest.param(("-DREPRO_NO_CLONES",), id="portable"),
    pytest.param(
        ("-DREPRO_NO_CLONES", "-mavx2"),
        id="avx2",
        marks=pytest.mark.skipif(not _cpu_has_avx2(), reason="CPU lacks AVX2"),
    ),
]
#: ... and the library the selector loads, its clone picked at load time.
BUILDS = [pytest.param(None, id="loaded"), *SINGLE_CLONE_BUILDS]


def _c_impl_or_none():
    if not _HAVE_CC:
        return None
    try:
        library = load_compiled()
    except KernelBuildError:  # pragma: no cover - toolchain present but broken
        return None
    from repro.kernels._cbuild import c_count_update, c_minhash_signatures

    return library, c_minhash_signatures, c_count_update


_C = _c_impl_or_none()


@st.composite
def ragged_token_sets(draw):
    """A random CSR token collection with empty rows sprinkled in."""
    n_rows = draw(st.integers(min_value=0, max_value=12))
    lengths = [
        draw(st.integers(min_value=0, max_value=9)) for _ in range(n_rows)
    ]
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    indices = np.array(
        [
            draw(st.integers(min_value=0, max_value=P31 - 1))
            for _ in range(int(indptr[-1]))
        ],
        dtype=np.int64,
    )
    n_hashes = draw(st.integers(min_value=1, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    a = rng.integers(1, P31, size=n_hashes, dtype=np.int64)
    b = rng.integers(0, P31, size=n_hashes, dtype=np.int64)
    return indices, indptr, a, b


@pytest.fixture(scope="module")
def compiled_build(request, tmp_path_factory):
    """The compiled library of one ``BUILDS`` entry (parametrized indirectly)."""
    if _C is None:
        pytest.skip("no C toolchain available")
    if request.param is None:
        return _C[0]
    target = tmp_path_factory.mktemp("kernels") / "repro_kernels.so"
    _cbuild._compile(
        _cbuild._SOURCE_PATH, target, (*_cbuild._FLAGS, *request.param)
    )
    return _cbuild._bind(ctypes.CDLL(str(target)))


#: Signature lengths around the 4- and 8-lane clones' remainders.
LANE_EDGES = [1, 7, 8, 9, 15, 16, 17, 100, 129]


class TestMinhashBuilds:
    """The loaded build meets the strategy in ``TestMinhashConformance``."""

    @pytest.mark.parametrize("compiled_build", SINGLE_CLONE_BUILDS, indirect=True)
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=ragged_token_sets())
    def test_single_clone_build_matches_numpy(self, compiled_build, case):
        indices, indptr, a, b = case
        compiled = _cbuild.c_minhash_signatures(
            compiled_build, indices, indptr, a, b, P31
        )
        vectorised = numpy_impl.minhash_signatures(indices, indptr, a, b, P31)
        assert compiled.dtype == np.int64
        assert np.array_equal(compiled, vectorised)

    @pytest.mark.parametrize("compiled_build", BUILDS, indirect=True)
    @pytest.mark.parametrize("n_hashes", LANE_EDGES)
    def test_lane_remainders_and_domain_extremes(self, compiled_build, n_hashes):
        # tokens 0 and 2**31 - 2 with a = b = 2**31 - 2: the largest
        # a * x + b the domain allows, beside the smallest; empty rows
        # sit between non-empty ones
        top = P31 - 1
        indices = np.array([0, top, top, 0, 5, top, 123_456_789, 0], dtype=np.int64)
        indptr = np.array([0, 0, 2, 2, 3, 3, 3, 8, 8], dtype=np.int64)
        rng = np.random.default_rng(n_hashes)
        a = rng.integers(1, P31, size=n_hashes, dtype=np.int64)
        b = rng.integers(0, P31, size=n_hashes, dtype=np.int64)
        a[0] = b[0] = top
        a[-1] = b[-1] = top
        expected = numpy_impl.minhash_signatures(indices, indptr, a, b, P31)
        assert np.array_equal(reference_minhash(indices, indptr, a, b, P31), expected)
        compiled = _cbuild.c_minhash_signatures(
            compiled_build, indices, indptr, a, b, P31
        )
        assert np.array_equal(compiled, expected)
        assert (compiled[[0, 2, 4, 5, 7]] == P31).all()


class TestMinhashAllocation:
    @pytest.mark.skipif(_C is None, reason="no C toolchain available")
    @pytest.mark.parametrize("n_hashes", [1 << 60, 1 << 62], ids=["2**60", "2**62"])
    def test_unallocatable_lanes_return_an_error(self, n_hashes):
        # 12 bytes of lanes per hash: 2**60 hashes exceed any address
        # space, and 2**62 overflow the size computation itself.  The
        # kernel must report either before it reads any argument.
        library = _C[0]
        null = ctypes.POINTER(ctypes.c_int64)()
        status = library.repro_minhash_signatures(
            1, n_hashes, null, null, null, null, P31, null
        )
        assert status == -1

    def test_wrapper_raises_memory_error_on_failed_status(self):
        class Failing:
            @staticmethod
            def repro_minhash_signatures(*args):
                return -1

        indices = np.array([1, 2], dtype=np.int64)
        indptr = np.array([0, 2], dtype=np.int64)
        coefficients = np.array([3, 5], dtype=np.int64)
        with pytest.raises(MemoryError, match="MinHash kernel"):
            _cbuild.c_minhash_signatures(
                Failing(), indices, indptr, coefficients, coefficients, P31
            )


class TestMinhashConformance:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=ragged_token_sets())
    def test_numpy_matches_reference_loops(self, case):
        indices, indptr, a, b = case
        vectorised = numpy_impl.minhash_signatures(indices, indptr, a, b, P31)
        looped = reference_minhash(indices, indptr, a, b, P31)
        assert vectorised.dtype == np.int64
        assert np.array_equal(vectorised, looped)

    @pytest.mark.skipif(_C is None, reason="no C toolchain available")
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=ragged_token_sets())
    def test_compiled_matches_numpy(self, case):
        indices, indptr, a, b = case
        library, c_minhash, _ = _C
        compiled = c_minhash(library, indices, indptr, a, b, P31)
        vectorised = numpy_impl.minhash_signatures(indices, indptr, a, b, P31)
        assert compiled.dtype == np.int64
        assert np.array_equal(compiled, vectorised)

    def test_empty_batch_and_all_empty_rows(self):
        a = np.array([7, 11], dtype=np.int64)
        b = np.array([1, 2], dtype=np.int64)
        none = np.array([], dtype=np.int64)
        for indptr in (
            np.array([0], dtype=np.int64),  # zero rows
            np.array([0, 0, 0], dtype=np.int64),  # two empty rows
        ):
            expected = numpy_impl.minhash_signatures(none, indptr, a, b, P31)
            assert (expected == P31).all()
            assert np.array_equal(
                reference_minhash(none, indptr, a, b, P31), expected
            )
            if _C is not None:
                library, c_minhash, _ = _C
                assert np.array_equal(
                    c_minhash(library, none, indptr, a, b, P31), expected
                )

    def test_narrow_dtype_and_non_contiguous_inputs(self):
        # The public wrapper normalises dtype/layout before dispatch.
        from repro import kernels

        indices32 = np.array([5, 9, 3, 12, 800], dtype=np.int32)
        indptr32 = np.array([0, 2, 2, 5], dtype=np.int32)
        a = np.array([3, 5, 7], dtype=np.int64)
        b = np.array([0, 1, 2], dtype=np.int64)
        strided = np.arange(10, dtype=np.int64)[::2]  # non-contiguous view
        expected = numpy_impl.minhash_signatures(
            np.ascontiguousarray(strided),
            np.array([0, 2, 5], dtype=np.int64),
            a,
            b,
            P31,
        )
        assert np.array_equal(
            kernels.minhash_signatures(
                strided, np.array([0, 2, 5], dtype=np.int64), a, b, P31
            ),
            expected,
        )
        assert np.array_equal(
            kernels.minhash_signatures(indices32, indptr32, a, b, P31),
            numpy_impl.minhash_signatures(
                indices32.astype(np.int64), indptr32.astype(np.int64), a, b, P31
            ),
        )


@st.composite
def count_batches(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=1, max_value=5))
    capacity = draw(st.integers(min_value=1, max_value=9))
    n_rows = draw(st.integers(min_value=0, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    dense = rng.integers(0, 50, size=(k, m, capacity)).astype(np.int64)
    values = rng.integers(0, capacity, size=(n_rows, m), dtype=np.int64)
    labels = rng.integers(0, k, size=n_rows, dtype=np.int64)
    return dense, values, labels


class TestCountUpdateConformance:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=count_batches())
    def test_numpy_matches_reference_loops(self, case):
        dense, values, labels = case
        dense_vec, dense_loop = dense.copy(), dense.copy()
        vectorised = numpy_impl.count_update(dense_vec, values, labels)
        looped = reference_count_update(dense_loop, values, labels)
        assert np.array_equal(dense_vec, dense_loop)
        assert np.array_equal(vectorised, looped)

    @pytest.mark.skipif(_C is None, reason="no C toolchain available")
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=count_batches())
    def test_compiled_matches_numpy(self, case):
        dense, values, labels = case
        library, _, c_counts = _C
        dense_c, dense_vec = dense.copy(), dense.copy()
        compiled = c_counts(library, dense_c, values, labels)
        vectorised = numpy_impl.count_update(dense_vec, values, labels)
        assert np.array_equal(dense_c, dense_vec)
        assert np.array_equal(compiled, vectorised)

    def test_duplicate_triples_all_read_final_count(self):
        # The incremental-argmax contract: every occurrence of a triple
        # reports the count *after* the whole batch landed.
        from repro import kernels

        dense = np.zeros((2, 1, 3), dtype=np.int64)
        values = np.array([[1], [1], [1]], dtype=np.int64)
        labels = np.array([0, 0, 0], dtype=np.int64)
        new_counts = kernels.count_update(dense, values, labels)
        assert new_counts.tolist() == [[3], [3], [3]]
        assert dense[0, 0, 1] == 3

    def test_empty_batch_is_a_no_op(self):
        from repro import kernels

        dense = np.arange(12, dtype=np.int64).reshape(2, 2, 3)
        before = dense.copy()
        out = kernels.count_update(
            dense,
            np.empty((0, 2), dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
        assert out.shape == (0, 2)
        assert np.array_equal(dense, before)

    def test_fortran_ordered_values_are_normalised(self):
        from repro import kernels

        dense_a = np.zeros((3, 2, 4), dtype=np.int64)
        dense_b = dense_a.copy()
        values = np.asfortranarray(
            np.array([[1, 3], [0, 2], [1, 3]], dtype=np.int64)
        )
        labels = np.array([2, 0, 2], dtype=np.int64)
        got = kernels.count_update(dense_a, values, labels)
        expected = numpy_impl.count_update(
            dense_b, np.ascontiguousarray(values), labels
        )
        assert np.array_equal(got, expected)
        assert np.array_equal(dense_a, dense_b)


INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


@st.composite
def mode_cases(draw):
    """Modes with duplicates and long runs, and rows near them.

    Rows copy random modes with a share of cells redrawn from a range
    two codes wider than the modes' on each side, and a few cells set
    to the int64 extremes; ``current`` mixes none (−1, −2) with labels.
    """
    k = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=0, max_value=20))
    domain = draw(st.sampled_from([1, 2, 3, 30, 40_000]))
    shift = draw(st.sampled_from([0, -7, -(2**62)]))
    mutate = draw(st.floats(min_value=0.0, max_value=1.0))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    modes = rng.integers(0, domain, size=(k, m)) + shift
    # duplicated modes tie on every row: the smallest id must win
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        modes[rng.integers(0, k)] = modes[rng.integers(0, k)]
    X = modes[rng.integers(0, k, size=n)]
    redraw = rng.random(X.shape) < mutate
    X[redraw] = rng.integers(-2, domain + 2, size=int(redraw.sum())) + shift
    extreme = rng.random(X.shape) < 0.05
    X[extreme] = rng.choice([INT64_MIN, INT64_MAX], size=int(extreme.sum()))
    current = rng.integers(-2, k, size=n)
    return modes, X, current


@st.composite
def shortlist_cases(draw):
    """Ragged sorted candidate lists, one entry or several, with ties."""
    k = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=0, max_value=20))
    domain = draw(st.sampled_from([1, 2, 3, 30, 40_000]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    centroids = rng.integers(0, domain, size=(k, m))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        centroids[rng.integers(0, k)] = centroids[rng.integers(0, k)]
    sizes = rng.integers(1, k + 1, size=n)
    candidates = np.concatenate(
        [np.sort(rng.choice(k, size=size, replace=False)) for size in sizes]
        + [np.empty(0, dtype=np.int64)]
    ).astype(np.int64)
    block = centroids[rng.integers(0, k, size=n)]
    redraw = rng.random(block.shape) < draw(st.floats(min_value=0.0, max_value=1.0))
    block[redraw] = rng.integers(-1, domain + 1, size=int(redraw.sum()))
    return block, candidates, sizes, centroids


def _runs(modes):
    runs = ModePostings(modes)._runs
    assert runs is not None
    return runs


def _assert_same(got, want):
    labels, distances = got
    assert labels.dtype == np.int64 and distances.dtype == np.int64
    assert labels.tolist() == want[0].tolist()
    assert distances.tolist() == want[1].tolist()


class TestMatchingBuilds:
    """The single-clone builds meet the matching kernels' strategies."""

    @pytest.mark.parametrize("compiled_build", SINGLE_CLONE_BUILDS, indirect=True)
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=mode_cases())
    def test_nearest_modes_match_numpy(self, compiled_build, case):
        modes, X, current = case
        runs = _runs(modes)
        for held in (None, current):
            _assert_same(
                _cbuild.c_nearest_modes(compiled_build, X, held, runs, 256),
                numpy_impl.nearest_modes(X, held, runs, 256),
            )

    @pytest.mark.parametrize("compiled_build", SINGLE_CLONE_BUILDS, indirect=True)
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=shortlist_cases())
    def test_shortlist_matching_matches_numpy(self, compiled_build, case):
        _assert_same(
            _cbuild.c_shortlist_matching(compiled_build, *case),
            numpy_impl.shortlist_matching(*case),
        )


class TestNearestModesConformance:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=mode_cases(), block_rows=st.sampled_from([1, 3, 256]))
    def test_numpy_matches_reference_loops(self, case, block_rows):
        modes, X, current = case
        runs = _runs(modes)
        for held in (None, current):
            _assert_same(
                numpy_impl.nearest_modes(X, held, runs, block_rows),
                reference_nearest_modes(X, held, modes),
            )

    @pytest.mark.skipif(_C is None, reason="no C toolchain available")
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=mode_cases())
    def test_compiled_matches_numpy(self, case):
        modes, X, current = case
        runs = _runs(modes)
        for held in (None, current):
            _assert_same(
                _cbuild.c_nearest_modes(_C[0], X, held, runs, 256),
                numpy_impl.nearest_modes(X, held, runs, 256),
            )

    @pytest.mark.parametrize(
        "modes",
        [np.array([[4, 0, 7]]), np.array([[3], [1], [3], [9]]), np.array([[5]])],
        ids=["k=1", "m=1", "k=m=1"],
    )
    def test_empty_batch_and_smallest_shapes(self, modes):
        from repro import kernels

        runs = _runs(modes)
        m = modes.shape[1]
        for X in (np.empty((0, m), dtype=np.int64), np.array([[3] * m, [9] * m])):
            current = np.full(len(X), len(modes) - 1)
            want = reference_nearest_modes(X, current, modes)
            _assert_same(kernels.nearest_modes(X, current, runs), want)
            _assert_same(numpy_impl.nearest_modes(X, current, runs, 256), want)

    def test_ties_and_the_keep_current_rule(self):
        from repro import kernels

        # modes 1-3 are equal: a row matching them goes to 1, unless its
        # current mode is one of them; mode 0 is farther on every row
        modes = np.array([[3, 4], [1, 2], [1, 2], [1, 2]])
        runs = _runs(modes)
        X = np.array([[1, 2], [1, 2], [1, 2], [1, 9], [3, 4]])
        current = np.array([-1, 3, 0, 2, 1])
        labels, distances = kernels.nearest_modes(X, current, runs)
        assert labels.tolist() == [1, 3, 1, 2, 0]
        assert distances.tolist() == [0, 0, 0, 1, 0]
        _assert_same((labels, distances), reference_nearest_modes(X, current, modes))

    def test_long_runs_scan_their_complement(self):
        from repro import kernels

        # presence data: value 0 is held by most modes on every attribute
        rng = np.random.default_rng(7)
        modes = (rng.random((40, 12)) < 0.1).astype(np.int64)
        runs = _runs(modes)
        assert np.any(2 * runs.run_lengths > len(modes))
        X = (rng.random((60, 12)) < 0.1).astype(np.int64)
        current = rng.integers(-1, 40, size=60)
        want = reference_nearest_modes(X, current, modes)
        _assert_same(kernels.nearest_modes(X, current, runs), want)
        _assert_same(numpy_impl.nearest_modes(X, current, runs, 7), want)

    def test_codes_outside_the_range_and_at_the_int64_extremes(self):
        from repro import kernels

        # span 1: attribute 0's code 1 would alias attribute 1's key
        modes = np.array([[0, 0], [0, 5]])
        runs = _runs(modes)
        X = np.array(
            [[1, 0], [0, 1], [INT64_MIN, 5], [INT64_MAX, INT64_MIN], [-1, 6]],
            dtype=np.int64,
        )
        want = reference_nearest_modes(X, None, modes)
        assert want[1].tolist() == [1, 1, 1, 2, 2]
        _assert_same(kernels.nearest_modes(X, None, runs), want)
        _assert_same(numpy_impl.nearest_modes(X, None, runs, 256), want)

    def test_narrow_dtype_and_fortran_order_are_normalised(self):
        from repro import kernels

        rng = np.random.default_rng(3)
        modes = rng.integers(0, 9, size=(7, 5))
        runs = _runs(modes)
        X = rng.integers(0, 11, size=(30, 5))
        current = rng.integers(-1, 7, size=30)
        want = reference_nearest_modes(X, current, modes)
        for variant in (np.asfortranarray(X), X.astype(np.int16), X.astype(np.uint8)):
            _assert_same(
                kernels.nearest_modes(variant, current.astype(np.int32), runs), want
            )

    def test_current_labels_of_k_or_more_are_rejected(self):
        from repro import kernels

        runs = _runs(np.array([[1, 2], [3, 4]]))
        with pytest.raises(DataValidationError, match="current holds id 2"):
            kernels.nearest_modes(np.array([[1, 2]]), np.array([2]), runs)
        with pytest.raises(DataValidationError, match="2 attributes"):
            kernels.nearest_modes(np.array([[1, 2, 3]]), None, runs)
        with pytest.raises(DataValidationError, match="labels for 1 rows"):
            kernels.nearest_modes(np.array([[1, 2]]), np.array([0, 1]), runs)


class TestShortlistMatchingConformance:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=shortlist_cases())
    def test_numpy_matches_reference_loops(self, case):
        _assert_same(
            numpy_impl.shortlist_matching(*case), reference_shortlist_matching(*case)
        )

    @pytest.mark.skipif(_C is None, reason="no C toolchain available")
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=shortlist_cases())
    def test_compiled_matches_numpy(self, case):
        _assert_same(
            _cbuild.c_shortlist_matching(_C[0], *case),
            numpy_impl.shortlist_matching(*case),
        )

    def test_one_entry_rows_ties_and_an_empty_batch(self):
        from repro import kernels

        centroids = np.array([[1, 2], [1, 2], [5, 5], [1, 2]])
        block = np.array([[1, 2], [1, 9], [5, 2], [7, 7]])
        candidates = np.array([3, 1, 3, 0, 1, 2, 2])
        sizes = np.array([1, 2, 3, 1])
        want = reference_shortlist_matching(block, candidates, sizes, centroids)
        assert want[0].tolist() == [3, 1, 0, 2]
        assert want[1].tolist() == [0, 1, 1, 2]
        _assert_same(kernels.shortlist_matching(block, candidates, sizes, centroids), want)
        _assert_same(numpy_impl.shortlist_matching(block, candidates, sizes, centroids), want)
        empty = (np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64))
        for impl in (kernels.shortlist_matching, numpy_impl.shortlist_matching):
            labels, distances = impl(empty[0], empty[1], empty[1], centroids)
            assert labels.shape == distances.shape == (0,)

    def test_narrow_dtype_and_fortran_order_are_normalised(self):
        from repro import kernels

        rng = np.random.default_rng(5)
        centroids = rng.integers(0, 6, size=(9, 4))
        sizes = rng.integers(1, 10, size=25)
        candidates = np.concatenate(
            [np.sort(rng.choice(9, size=s, replace=False)) for s in sizes]
        )
        block = rng.integers(0, 7, size=(25, 4))
        want = reference_shortlist_matching(block, candidates, sizes, centroids)
        for variant in (np.asfortranarray(block), block.astype(np.int16), block.astype(np.uint8)):
            _assert_same(
                kernels.shortlist_matching(
                    variant,
                    candidates.astype(np.int32),
                    sizes.astype(np.int32),
                    np.asfortranarray(centroids),
                ),
                want,
            )

    @pytest.mark.parametrize(
        "candidates, sizes, match",
        [
            ([0, 2], [1, 1], "id 2, but there are 2"),
            ([0, -1], [1, 1], "id -1"),
            ([0, 1], [2, 0], "at least one candidate"),
            ([0, 1], [1, 2], "sum to 3"),
        ],
        ids=["id-k", "negative-id", "empty-row", "short-candidates"],
    )
    def test_ids_outside_the_centroids_and_empty_rows_are_rejected(
        self, candidates, sizes, match
    ):
        from repro import kernels

        with pytest.raises(DataValidationError, match=match):
            kernels.shortlist_matching(
                np.array([[1, 2], [3, 4]]),
                np.array(candidates),
                np.array(sizes),
                np.array([[1, 2], [3, 4]]),
            )

    def test_malformed_blocks_are_rejected(self):
        from repro import kernels

        modes = np.array([[1, 2], [3, 4]])
        one = np.array([0])
        with pytest.raises(DataValidationError, match="block must be a 2-D integer"):
            kernels.shortlist_matching(np.array([1.0, 2.0]), one, one, modes)
        with pytest.raises(DataValidationError, match="centroids must be a 2-D integer"):
            kernels.shortlist_matching(np.array([[1, 2]]), one, one, modes * 0.5)
        with pytest.raises(DataValidationError, match="but centroids have 2"):
            kernels.shortlist_matching(np.array([[1, 2, 3]]), one, one, modes)
        with pytest.raises(DataValidationError, match="lengths for 1 rows"):
            kernels.shortlist_matching(np.array([[1, 2]]), one, np.array([1, 1]), modes)


class TestMatchingAllocation:
    @pytest.mark.skipif(_C is None, reason="no C toolchain available")
    @pytest.mark.parametrize("k", [1 << 60, 1 << 62], ids=["2**60", "2**62"])
    def test_unallocatable_counters_return_an_error(self, k):
        # 4 bytes of counters per mode: 2**60 modes exceed any address
        # space, and 2**62 overflow the size computation itself.  The
        # kernel must report either before it reads any argument.
        null = ctypes.POINTER(ctypes.c_int64)()
        status = _C[0].repro_nearest_modes(
            1, 1, k, null, null, 0, 1, null, null, null, null, null, null, null
        )
        assert status == -1

    def test_wrapper_raises_memory_error_on_failed_status(self):
        class Failing:
            @staticmethod
            def repro_nearest_modes(*args):
                return -1

        runs = _runs(np.array([[1, 2], [3, 4]]))
        with pytest.raises(MemoryError, match="nearest-mode kernel"):
            _cbuild.c_nearest_modes(
                Failing(), np.array([[1, 2]], dtype=np.int64), None, runs, 256
            )
