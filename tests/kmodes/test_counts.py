"""The sorted mode-count layout against a brute-force recount.

:class:`repro.kmodes.counts.ModeCounts` backs every fit's mode update
(:func:`repro.kmodes.modes.compute_modes` with ``counts=``) and the
stream tracker's sorted route.  Hypothesis drives random sequences of
batch adds, removes and label moves through it — codes from the whole
int64 range, ranges that grow, clusters that empty, ties — and after
every step the stored counts and the cached best values must equal a
plain dictionary recount.  A small delta threshold makes the delta
segment merge into main every few steps; one fixed case also crosses
the real threshold.
"""

from __future__ import annotations

import collections

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, DataValidationError, EmptyClusterError
from repro.kmodes import counts as counts_module
from repro.kmodes.counts import ModeCounts
from repro.kmodes.modes import compute_modes

INT64 = np.iinfo(np.int64)
EXTREMES = [int(INT64.min), int(INT64.min) + 1, -1, 0, 1, 2**62, int(INT64.max)]


class BruteCounts:
    """The reference: a dictionary of ``(cluster, attribute, value)`` counts."""

    def __init__(self, k: int, m: int) -> None:
        self.k, self.m = k, m
        self.counts: collections.Counter = collections.Counter()

    def add(self, X: np.ndarray, labels: np.ndarray, weight: int = 1) -> None:
        for row, cluster in zip(X.tolist(), labels.tolist()):
            for attribute, value in enumerate(row):
                self.counts[cluster, attribute, value] += weight

    def best(self) -> tuple[np.ndarray, np.ndarray]:
        value = np.zeros((self.k, self.m), dtype=np.int64)
        count = np.zeros((self.k, self.m), dtype=np.int64)
        for (c, a, v), n in self.counts.items():
            if n > count[c, a] or (n and n == count[c, a] and v < value[c, a]):
                value[c, a], count[c, a] = v, n
        return value, count

    def modes(self, previous: np.ndarray) -> np.ndarray:
        out = previous.copy()
        for cluster in range(self.k):
            for attribute in range(self.m):
                column = [
                    (-n, v)
                    for (c, a, v), n in self.counts.items()
                    if c == cluster and a == attribute and n
                ]
                if column:
                    out[cluster, attribute] = min(column)[1]
        return out


def stored(counts: ModeCounts) -> dict:
    """Every positive count the layout holds, decoded to triples."""
    out = {}
    m = counts.n_attributes
    for keys, values in (
        (counts._keys, counts._counts),
        (counts._delta_keys, counts._delta_counts),
    ):
        assert np.all(np.diff(keys) > 0), "a segment lost its order"
        pairs = keys // counts._span
        decoded = counts._decode(keys - pairs * counts._span)
        for pair, value, n in zip(pairs.tolist(), decoded.tolist(), values.tolist()):
            assert (pair // m, pair % m, value) not in out, "a triple is stored twice"
            if n:
                out[pair // m, pair % m, value] = n
    return out


def assert_matches(counts: ModeCounts, brute: BruteCounts) -> None:
    assert stored(counts) == {key: n for key, n in brute.counts.items() if n}
    value, count = brute.best()
    assert np.array_equal(counts.best_count, count)
    populated = count > 0
    assert np.array_equal(counts.best_value[populated], value[populated])


@st.composite
def value_pools(draw):
    """Codes to draw cells from: narrow, negative, or spread over int64."""
    kind = draw(st.sampled_from(["narrow", "negative", "wide"]))
    if kind == "narrow":
        size = draw(st.integers(1, 6))
        return list(range(size))
    if kind == "negative":
        low = draw(st.integers(-50, 0))
        return list(range(low, low + draw(st.integers(1, 8))))
    extra = draw(
        st.lists(st.integers(int(INT64.min), int(INT64.max)), max_size=4)
    )
    return sorted(set(EXTREMES[: draw(st.integers(2, len(EXTREMES)))] + extra))


@st.composite
def count_scripts(draw):
    k = draw(st.integers(1, 5))
    m = draw(st.integers(1, 4))
    pools = [draw(value_pools()) for _ in range(draw(st.integers(1, 3)))]
    seed = draw(st.integers(0, 2**16))
    ops = draw(
        st.lists(st.sampled_from(["add", "remove", "move"]), min_size=1, max_size=12)
    )
    return k, m, pools, seed, ops


def _rows(rng, pool, n, m):
    return np.array(pool, dtype=np.int64)[rng.integers(0, len(pool), size=(n, m))]


class TestModeCountsConformance:
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=count_scripts(), delta=st.sampled_from([1, 3, 40]))
    def test_adds_removes_and_moves_match_brute_force(self, script, delta):
        k, m, pools, seed, ops = script
        rng = np.random.default_rng(seed)
        counts, brute = ModeCounts(k, m), BruteCounts(k, m)
        rows = np.empty((0, m), dtype=np.int64)
        labels = np.empty(0, dtype=np.int64)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(counts_module, "_MIN_DELTA", delta)
            patch.setattr(counts_module, "_DELTA_RATIO", 2)
            for step, op in enumerate(ops):
                if op == "add" or not len(rows):
                    # later pools widen the range the layout has seen
                    pool = pools[min(step, len(pools) - 1)]
                    n = int(rng.integers(0, 9))
                    new_rows = _rows(rng, pool, n, m)
                    new_labels = rng.integers(0, k, size=n)
                    counts.add(new_rows, new_labels)
                    brute.add(new_rows, new_labels)
                    rows = np.vstack([rows, new_rows])
                    labels = np.concatenate([labels, new_labels])
                elif op == "remove":
                    gone = rng.random(len(rows)) < rng.random()
                    counts.remove(rows[gone], labels[gone])
                    brute.add(rows[gone], labels[gone], weight=-1)
                    rows, labels = rows[~gone], labels[~gone]
                else:
                    moved = rng.random(len(rows)) < rng.random()
                    target = labels.copy()
                    target[moved] = rng.integers(0, k, size=int(moved.sum()))
                    # one weighted update: -1 from the old, +1 to the new
                    cells = int(moved.sum()) * m
                    counts.add_triples(
                        np.repeat(np.concatenate([labels[moved], target[moved]]), m),
                        np.tile(np.arange(m), 2 * int(moved.sum())),
                        np.concatenate([rows[moved].ravel(), rows[moved].ravel()]),
                        np.repeat([-1, 1], cells),
                    )
                    brute.add(rows[moved], labels[moved], weight=-1)
                    brute.add(rows[moved], target[moved])
                    labels = target
                assert_matches(counts, brute)

    def test_delta_merges_at_the_real_threshold(self):
        rng = np.random.default_rng(3)
        k, m = 6, 5
        counts, brute = ModeCounts(k, m), BruteCounts(k, m)
        X = rng.integers(0, 20, size=(400, m))
        labels = rng.integers(0, k, size=400)
        counts.add(X, labels)
        brute.add(X, labels)
        merges, main_entries = 0, len(counts._keys)
        while merges < 2:
            # fresh codes: every cell is a new triple for the delta
            fresh = rng.integers(100, 10**9, size=(300, m))
            fresh_labels = rng.integers(0, k, size=300)
            counts.add(fresh, fresh_labels)
            brute.add(fresh, fresh_labels)
            # and take some of the planted rows out again
            gone = rng.choice(len(X), size=20, replace=False)
            counts.remove(X[gone], labels[gone])
            brute.add(X[gone], labels[gone], weight=-1)
            X, labels = np.delete(X, gone, axis=0), np.delete(labels, gone)
            assert_matches(counts, brute)
            merges += len(counts._keys) > main_entries
            main_entries = len(counts._keys)

    def test_a_removed_best_value_is_rescanned(self):
        counts = ModeCounts(1, 1)
        counts.add(np.array([[5], [5], [7], [9]]), np.zeros(4, dtype=np.int64))
        assert counts.best_value.tolist() == [[5]]
        counts.remove(np.array([[5]]), np.zeros(1, dtype=np.int64))
        assert (counts.best_value.tolist(), counts.best_count.tolist()) == ([[5]], [[1]])
        counts.remove(np.array([[5]]), np.zeros(1, dtype=np.int64))
        assert (counts.best_value.tolist(), counts.best_count.tolist()) == ([[7]], [[1]])
        counts.remove(np.array([[7], [9]]), np.zeros(2, dtype=np.int64))
        assert counts.best_count.tolist() == [[0]]

    def test_removing_uncounted_rows_raises_and_changes_nothing(self):
        counts = ModeCounts(2, 2)
        counts.add(np.array([[1, 2]]), np.array([0]))
        for X, labels in (
            (np.array([[1, 2]]), np.array([1])),  # counted elsewhere
            (np.array([[1, 2], [1, 2]]), np.array([0, 0])),  # counted once
            (np.array([[3, 2]]), np.array([0])),  # a value never seen
        ):
            with pytest.raises(DataValidationError):
                counts.remove(X, labels)
            assert stored(counts) == {(0, 0, 1): 1, (0, 1, 2): 1}

    def test_rejects_bad_input(self):
        with pytest.raises(ConfigurationError):
            ModeCounts(0, 3)
        counts = ModeCounts(2, 2)
        with pytest.raises(DataValidationError):
            counts.add(np.zeros((2, 3), dtype=np.int64), np.zeros(2))
        with pytest.raises(DataValidationError):
            counts.add(np.zeros((2, 2)), np.zeros(2))  # float codes
        with pytest.raises(DataValidationError):
            counts.add(np.zeros((2, 2), dtype=np.int64), np.array([0, 2]))
        with pytest.raises(DataValidationError):
            counts.add(np.zeros((2, 2), dtype=np.int64), np.zeros(3))
        with pytest.raises(DataValidationError):
            counts.add_triples([0], [2], [1], [1])
        with pytest.raises(DataValidationError):
            counts.add_triples([0, 1], [0], [1], [1])


# ----------------------------------------------------------------------
# compute_modes with and without carried counts
# ----------------------------------------------------------------------


@st.composite
def mode_cases(draw):
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 5))
    k = draw(st.integers(1, 6))
    pool = draw(value_pools())
    seed = draw(st.integers(0, 2**16))
    steps = draw(st.integers(1, 6))
    policy = draw(st.sampled_from(["keep", "reinit", "error"]))
    return n, m, k, pool, seed, steps, policy


class TestComputeModesWithCounts:
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=mode_cases())
    def test_moves_only_update_equals_recount(self, case):
        n, m, k, pool, seed, steps, policy = case
        rng = np.random.default_rng(seed)
        X = _rows(rng, pool, n, m)
        labels = rng.integers(0, k, size=n)
        previous = _rows(rng, pool, k, m)
        counts = ModeCounts(k, m)
        for _ in range(steps):
            rng_carried = np.random.default_rng(seed)
            rng_fresh = np.random.default_rng(seed)
            kwargs = dict(previous_modes=previous, empty_policy=policy)
            if policy == "error" and len(np.unique(labels)) < k:
                with pytest.raises(EmptyClusterError):
                    compute_modes(X, labels, k, rng=rng_carried, counts=counts, **kwargs)
                with pytest.raises(EmptyClusterError):
                    compute_modes(X, labels, k, rng=rng_fresh, **kwargs)
            else:
                carried = compute_modes(
                    X, labels, k, rng=rng_carried, counts=counts, **kwargs
                )
                fresh = compute_modes(X, labels, k, rng=rng_fresh, **kwargs)
                assert np.array_equal(carried, fresh)
                # reinit drew the same replacement rows in the same order
                assert rng_carried.integers(2**62) == rng_fresh.integers(2**62)
                brute = BruteCounts(k, m)
                brute.add(X, labels)
                populated = np.bincount(labels, minlength=k) > 0
                expected = brute.modes(previous)
                assert np.array_equal(carried[populated], expected[populated])
                if policy == "keep":
                    assert np.array_equal(carried[~populated], previous[~populated])
                previous = carried
            moved = rng.random(n) < rng.random()
            labels = labels.copy()
            labels[moved] = rng.integers(0, k, size=int(moved.sum()))

    def test_counts_of_another_matrix_raise(self):
        X = np.array([[1, 2], [3, 4]])
        counts = ModeCounts(2, 2)
        compute_modes(X, np.array([0, 1]), 2, counts=counts)
        with pytest.raises(DataValidationError):
            compute_modes(X.copy(), np.array([0, 1]), 2, counts=counts)
        with pytest.raises(DataValidationError):
            compute_modes(X, np.array([0, 1]), 3, counts=counts)
        used = ModeCounts(2, 2)
        used.add(X, np.array([0, 0]))
        with pytest.raises(DataValidationError):
            compute_modes(X, np.array([0, 1]), 2, counts=used)
