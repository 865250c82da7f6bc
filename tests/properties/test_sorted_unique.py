"""The sort-based distinct values, and a guard against the hash path.

NumPy 2.3 and later answer a flagless ``np.unique(values)`` from a hash
set.  Measured with NumPy 2.4.6 on a 2-vCPU x86-64 virtual machine, that
is 4–36× slower on this library's integer keys than one ``np.sort`` and
a mask of run starts (266 values 18.1 vs 4.8 µs, 26,666 values 3.29 vs
0.36 ms, 666,666 values 342 vs 9.4 ms).
:func:`repro.sorting.sorted_unique` must return exactly what
``np.unique`` returns, and the modules on the fit, extend and serve
paths must not call the hashed form.  The flagged forms (``return_*``,
``axis``) still sort and stay allowed.
"""

import ast
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro
from repro.sorting import sorted_unique

INT64 = np.iinfo(np.int64)
UINT64 = np.iinfo(np.uint64)

#: Modules whose ``np.unique`` calls run on every fit pass, extend
#: segment or served request.
HOT_MODULES = (
    "engine/parallel.py",
    "lsh/index.py",
    "core/framework.py",
    "core/streaming.py",
    "kmodes/counts.py",
    "kmodes/kmodes.py",
    "kmeans/kmeans.py",
)


def _values(dtype, low, high):
    # the extremes drawn often, next to arbitrary values and repeats
    elements = st.one_of(
        st.sampled_from([low, high, 0, 1]), st.integers(min_value=low, max_value=high)
    )
    return arrays(dtype, st.integers(0, 60), elements=elements)


def _assert_like_np_unique(values):
    got = sorted_unique(values)
    expected = np.unique(values)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


class TestSortedUnique:
    @given(_values(np.int64, int(INT64.min), int(INT64.max)))
    def test_int64_matches_np_unique(self, values):
        _assert_like_np_unique(values)

    @given(_values(np.uint64, 0, int(UINT64.max)))
    def test_uint64_band_keys_match_np_unique(self, values):
        _assert_like_np_unique(values)

    def test_empty_and_one_element(self):
        for dtype in (np.int64, np.uint64):
            _assert_like_np_unique(np.empty(0, dtype=dtype))
            _assert_like_np_unique(np.array([7], dtype=dtype))

    def test_leaves_its_input_alone(self):
        values = np.array([3, 1, 3, 2])
        sorted_unique(values)
        assert values.tolist() == [3, 1, 3, 2]


def hashed_unique_lines(source: str) -> list[int]:
    """Lines of ``np.unique`` calls with no ``return_*`` flag and no ``axis``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unique"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np"
        ):
            continue
        names = {keyword.arg or "" for keyword in node.keywords}
        flagged = "axis" in names or any(name.startswith("return_") for name in names)
        # a second positional argument is return_index
        if not flagged and len(node.args) < 2:
            lines.append(node.lineno)
    return lines


class TestNoHashedUniqueOnHotPaths:
    def test_guard_sees_the_hashed_form(self):
        source = (
            "np.unique(a)\n"
            "np.unique(a, return_counts=True)\n"
            "np.unique(a, axis=0)\n"
            "np.unique(a, True)\n"
            "np.unique(a, sorted=True)\n"
        )
        assert hashed_unique_lines(source) == [1, 5]

    def test_hot_modules_call_only_sorted_forms(self):
        root = Path(repro.__file__).parent
        found = [
            f"{module}:{line}"
            for module in HOT_MODULES
            for line in hashed_unique_lines((root / module).read_text())
        ]
        assert not found, (
            "flagless np.unique (a hash set since NumPy 2.3) on a hot path; "
            f"use repro.sorting.sorted_unique: {found}"
        )
