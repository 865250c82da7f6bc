"""The sort-based distinct values, and a guard against the hash path.

NumPy 2.3 and later answer a flagless ``np.unique(values)`` from a hash
set.  Measured with NumPy 2.4.6 on a 2-vCPU x86-64 virtual machine, that
is 4–36× slower on this library's integer keys than one ``np.sort`` and
a mask of run starts (266 values 18.1 vs 4.8 µs, 26,666 values 3.29 vs
0.36 ms, 666,666 values 342 vs 9.4 ms).
:func:`repro.sorting.sorted_unique` must return exactly what
``np.unique`` returns, and the modules on the fit, extend and serve
paths must not call the hashed form, nor alias ``np.unique`` (which
hides the form its calls take), outside :data:`ALLOWED_SITES`.  The
flagged forms (``return_*``, ``axis``) still sort and stay allowed.
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


#: Hashed ``np.unique`` sites kept on purpose, as ``(module, function)``.
#: The paper's online per-item pass dedupes one item's neighbour labels
#: at a time.  On fig2's data those lists hold 1.6–5.2 values on
#: average, where the hashed form takes 2.2–2.4 µs per item against
#: 4.0–4.4 µs for ``sorted_unique`` (NumPy 2.4.6).
ALLOWED_SITES = {("core/framework.py", "_shortlist_pass")}


def _is_np_unique(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "unique"
        and isinstance(node.value, ast.Name)
        and node.value.id == "np"
    )


class _HashedUnique(ast.NodeVisitor):
    """Collects ``(line, enclosing function)`` of every hashed ``np.unique``."""

    def __init__(self) -> None:
        self.sites: list[tuple[int, str]] = []
        self._function = ""

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        outer, self._function = self._function, node.name
        self.generic_visit(node)
        self._function = outer

    def visit_Call(self, node: ast.Call) -> None:
        if not _is_np_unique(node.func):
            self.generic_visit(node)
            return
        names = {keyword.arg or "" for keyword in node.keywords}
        flagged = "axis" in names or any(name.startswith("return_") for name in names)
        # a second positional argument is return_index
        if not flagged and len(node.args) < 2:
            self.sites.append((node.lineno, self._function))
        for child in (*node.args, *node.keywords):
            self.visit(child)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # ``np.unique`` not called on the spot: an alias such as
        # ``unique = np.unique`` hides which form its calls take
        if _is_np_unique(node):
            self.sites.append((node.lineno, self._function))
        self.generic_visit(node)


def hashed_unique_sites(source: str) -> list[tuple[int, str]]:
    """``(line, function)`` of each ``np.unique`` call with no ``return_*``
    flag and no ``axis``, and of each bare ``np.unique`` reference."""
    visitor = _HashedUnique()
    visitor.visit(ast.parse(source))
    return sorted(visitor.sites)


class TestNoHashedUniqueOnHotPaths:
    def test_guard_sees_the_hashed_form(self):
        source = (
            "np.unique(a)\n"
            "np.unique(a, return_counts=True)\n"
            "np.unique(a, axis=0)\n"
            "np.unique(a, True)\n"
            "np.unique(a, sorted=True)\n"
            "def walk(a):\n"
            "    unique = np.unique\n"
            "    return unique(a)\n"
        )
        assert hashed_unique_sites(source) == [(1, ""), (5, ""), (7, "walk")]

    def test_hot_modules_call_only_sorted_forms(self):
        root = Path(repro.__file__).parent
        sites = [
            (module, function, line)
            for module in HOT_MODULES
            for line, function in hashed_unique_sites((root / module).read_text())
        ]
        # the allowance names a site that still exists
        assert ALLOWED_SITES <= {(module, function) for module, function, _ in sites}
        found = [
            f"{module}:{line} ({function})"
            for module, function, line in sites
            if (module, function) not in ALLOWED_SITES
        ]
        assert not found, (
            "np.unique with no return flag (a hash set since NumPy 2.3) on a "
            f"hot path; use repro.sorting.sorted_unique: {found}"
        )
