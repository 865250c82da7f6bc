"""Compiled-vs-NumPy kernel conformance: bit-identical, always.

Every backend of :mod:`repro.kernels` must produce byte-for-byte the
same signatures and count tensors.  Hypothesis drives random ragged
token sets and labelled batches through the pure-NumPy implementation,
the loop-form reference oracle and (when the toolchain allows) the
compiled C backend, and asserts exact agreement — including empty
batches, empty rows, non-contiguous and narrower-dtype inputs.

The MinHash loop is compiled into several clones of which the loader
runs one, so the suite also builds the source with the clones compiled
out — the portable loop, and the AVX2 loop where the CPU has AVX2 — and
holds each build to NumPy, including fixed cases at every lane
remainder of the 4- and 8-lane clones and at the domain's extremes.
"""

from __future__ import annotations

import ctypes
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kernels import _cbuild
from repro.kernels import _numpy as numpy_impl
from repro.kernels._cbuild import KernelBuildError, load_compiled
from repro.kernels._reference import reference_count_update, reference_minhash

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
def minhash_build(request, tmp_path_factory):
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

    @pytest.mark.parametrize("minhash_build", SINGLE_CLONE_BUILDS, indirect=True)
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=ragged_token_sets())
    def test_single_clone_build_matches_numpy(self, minhash_build, case):
        indices, indptr, a, b = case
        compiled = _cbuild.c_minhash_signatures(
            minhash_build, indices, indptr, a, b, P31
        )
        vectorised = numpy_impl.minhash_signatures(indices, indptr, a, b, P31)
        assert compiled.dtype == np.int64
        assert np.array_equal(compiled, vectorised)

    @pytest.mark.parametrize("minhash_build", BUILDS, indirect=True)
    @pytest.mark.parametrize("n_hashes", LANE_EDGES)
    def test_lane_remainders_and_domain_extremes(self, minhash_build, n_hashes):
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
            minhash_build, indices, indptr, a, b, P31
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
