"""Streaming ingest equivalence: extend() IS the push() loop, faster.

The contract of the batch ingest pipeline
(:meth:`repro.core.StreamingMHKModes.extend`) is that for any spec,
dataset, chunk size (including 1) and backend (serial / thread /
process), the labels it returns, the modes it refreshes, the fallback
counter and the per-cluster sizes are **bit-identical** to feeding the
same rows one by one through the sequential :meth:`push` loop.
Hypothesis drives random scenarios through the serial and thread
paths; the process backend (expensive to spin per example) is pinned
to a representative fixed workload.

The :class:`repro.core.ClusterModeTracker` storage layouts (dense
count tensor with the incrementally maintained argmax vs the
dict-of-dicts fallback) are conformance-tested against each other and
against a brute-force recount.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import LSHSpec, StreamSpec, TrainSpec
from repro.core.streaming import ClusterModeTracker, StreamingMHKModes
from repro.data.datgen import RuleBasedGenerator
from repro.engine.pool import live_pool_count


def _bootstrap_pair(n, m, domain, k, bands, rows, seed, interval, stream=None):
    """Two independently bootstrapped streams over identical data."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, domain, size=(n, m))
    split = max(k, n // 2)
    kwargs = dict(
        n_clusters=k,
        lsh=LSHSpec(bands=bands, rows=rows, seed=seed),
        train=TrainSpec(max_iter=4),
        domain_size=domain,  # streamed draws stay inside the domain
        refresh_interval=interval,
    )
    reference = StreamingMHKModes(**kwargs).bootstrap(X[:split])
    candidate = StreamingMHKModes(
        stream=stream, **kwargs
    ).bootstrap(X[:split])
    return reference, candidate, X[split:]


def _assert_streams_equal(reference, candidate):
    assert np.array_equal(reference.modes_, candidate.modes_)
    assert reference.n_seen_ == candidate.n_seen_
    assert reference.n_fallbacks_ == candidate.n_fallbacks_
    assert np.array_equal(reference.cluster_sizes_, candidate.cluster_sizes_)
    ref_index = reference._bootstrap_model.index_
    got_index = candidate._bootstrap_model.index_
    assert ref_index.n_items == got_index.n_items
    assert np.array_equal(ref_index.assignments, got_index.assignments)
    assert np.array_equal(ref_index.band_keys, got_index.band_keys)


@st.composite
def stream_cases(draw):
    n = draw(st.integers(min_value=20, max_value=90))
    m = draw(st.integers(min_value=2, max_value=8))
    domain = draw(st.integers(min_value=2, max_value=60))
    k = draw(st.integers(min_value=1, max_value=6))
    bands = draw(st.integers(min_value=1, max_value=8))
    rows = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    interval = draw(st.sampled_from([1, 3, 7, 50, 1000]))
    chunk = draw(st.sampled_from([1, 2, 5, 8192]))
    backend = draw(st.sampled_from(["serial", "serial", "thread"]))
    return n, m, domain, k, bands, rows, seed, interval, chunk, backend


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=stream_cases())
def test_extend_bit_identical_to_push_loop(case):
    n, m, domain, k, bands, rows, seed, interval, chunk, backend = case
    stream = StreamSpec(backend=backend, n_jobs=2, chunk_items=chunk)
    reference, candidate, arrivals = _bootstrap_pair(
        n, m, domain, k, bands, rows, seed, interval, stream=stream
    )
    with candidate:
        pushed = np.array(
            [reference.push(row) for row in arrivals], dtype=np.int64
        )
        extended = candidate.extend(arrivals)
        assert np.array_equal(pushed, extended)
        _assert_streams_equal(reference, candidate)
        # an empty batch is a legal no-op with zero labels
        empty = candidate.extend(np.empty((0, m), dtype=np.int64))
        assert empty.shape == (0,) and empty.dtype == np.int64
        _assert_streams_equal(reference, candidate)
    assert live_pool_count() == 0


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=stream_cases())
def test_all_absent_rows_extend_bit_identical(case):
    """Rows where every cell is ``absent_code`` (empty token sets) take
    the fallback path identically through push() and extend()."""
    n, m, domain, k, bands, rows, seed, interval, chunk, backend = case
    rng = np.random.default_rng(seed)
    absent = int(rng.integers(0, domain))
    X = rng.integers(0, domain, size=(n, m))
    split = max(k, n // 2)
    X[rng.integers(0, split)] = absent  # an all-absent bootstrap row
    arrivals = X[split:]
    arrivals[rng.integers(0, len(arrivals))] = absent
    arrivals[0] = absent  # and one at a chunk boundary
    kwargs = dict(
        n_clusters=k,
        lsh=LSHSpec(bands=bands, rows=rows, seed=seed),
        train=TrainSpec(max_iter=4),
        domain_size=domain,
        refresh_interval=interval,
        absent_code=absent,
    )
    reference = StreamingMHKModes(**kwargs).bootstrap(X[:split])
    stream = StreamSpec(backend=backend, n_jobs=2, chunk_items=chunk)
    candidate = StreamingMHKModes(stream=stream, **kwargs).bootstrap(X[:split])
    with candidate:
        pushed = np.array(
            [reference.push(row) for row in arrivals], dtype=np.int64
        )
        extended = candidate.extend(arrivals)
        assert np.array_equal(pushed, extended)
        _assert_streams_equal(reference, candidate)
    assert live_pool_count() == 0


def test_all_novel_rows_scan_the_refreshed_modes():
    """Rows that miss the index take the full-scan fallback; after a
    refresh moves a mode, the next one must score against the new mode.

    One band of twelve MinHash rows keeps rows sharing half their
    tokens from colliding.  The first extend scores a novel row against
    the bootstrap modes; the second moves mode 1 to ``[2, 2, 2, 5, 5,
    5]`` at its refresh; the probe is then 3 from mode 1 and 6 from
    mode 0, where the bootstrap modes would tie it at 6 and give 0.
    """
    p0, p1 = [1] * 6, [2] * 6
    bootstrap = np.array([p0, p0, p1, p1])
    calls = [
        np.array([[1, 1, 1, 7, 7, 7]]),
        np.array([[2, 2, 2, 5, 5, 5]] * 3),
        np.array([[9, 9, 9, 5, 5, 5]]),
    ]
    kwargs = dict(
        n_clusters=2,
        lsh=LSHSpec(bands=1, rows=12, seed=0),
        train=TrainSpec(max_iter=2),
        domain_size=10,
        refresh_interval=4,
    )
    initial = np.array([p0, p1])
    reference = StreamingMHKModes(**kwargs).bootstrap(bootstrap, initial)
    candidate = StreamingMHKModes(**kwargs).bootstrap(bootstrap, initial)
    pushed = [reference.push(row) for row in np.vstack(calls)]
    extended = np.concatenate([candidate.extend(rows) for rows in calls])
    assert pushed == extended.tolist() == [0, 1, 1, 1, 1]
    assert candidate.modes_[1].tolist() == [2, 2, 2, 5, 5, 5]
    assert candidate.n_fallbacks_ == 3  # the first row of each call
    _assert_streams_equal(reference, candidate)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=stream_cases())
def test_extend_chunk_boundaries_do_not_leak(case):
    """Splitting one batch into several extend() calls changes nothing."""
    n, m, domain, k, bands, rows, seed, interval, chunk, _ = case
    one, many, arrivals = _bootstrap_pair(
        n, m, domain, k, bands, rows, seed, interval,
        stream=StreamSpec(chunk_items=chunk),
    )
    whole = one.extend(arrivals)
    parts = []
    cut = max(1, len(arrivals) // 3)
    for start in range(0, len(arrivals), cut):
        parts.append(many.extend(arrivals[start : start + cut]))
    assert np.array_equal(whole, np.concatenate(parts) if parts else whole)
    _assert_streams_equal(one, many)


@pytest.fixture(scope="module")
def fixed_workload():
    data = RuleBasedGenerator(
        n_clusters=10, n_attributes=14, domain_size=300, noise_rate=0.1, seed=17
    ).generate(700)
    return data


def _fixed_stream(stream=None):
    return StreamingMHKModes(
        n_clusters=10,
        lsh=LSHSpec(bands=10, rows=2, seed=3),
        train=TrainSpec(max_iter=4),
        domain_size=300,
        refresh_interval=37,
        stream=stream,
    )


class TestProcessBackendPinned:
    def test_process_extend_bit_identical(self, fixed_workload):
        X = fixed_workload.X
        reference = _fixed_stream().bootstrap(X[:400])
        pushed = np.array([reference.push(row) for row in X[400:]])
        spec = StreamSpec(backend="process", n_jobs=2, chunk_items=64)
        with _fixed_stream(stream=spec).bootstrap(X[:400]) as candidate:
            extended = candidate.extend(X[400:])
            assert np.array_equal(pushed, extended)
            _assert_streams_equal(reference, candidate)
        assert live_pool_count() == 0

    def test_pool_survives_multiple_extends(self, fixed_workload):
        X = fixed_workload.X
        spec = StreamSpec(backend="thread", n_jobs=2, chunk_items=32)
        with _fixed_stream(stream=spec).bootstrap(X[:400]) as candidate:
            candidate.extend(X[400:500])
            pool = candidate._stream_pool
            candidate.extend(X[500:600])
            assert candidate._stream_pool is pool  # kept warm across calls
        assert live_pool_count() == 0


class TestTrackerConformance:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n=st.integers(min_value=0, max_value=120),
        m=st.integers(min_value=1, max_value=6),
        k=st.integers(min_value=1, max_value=8),
        domain=st.integers(min_value=1, max_value=500),
        seed=st.integers(min_value=0, max_value=2**16),
        dense_limit=st.sampled_from([1, 4, 2048]),
    )
    def test_storages_agree_with_brute_force(self, n, m, k, domain, seed, dense_limit):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, domain, size=(n, m))
        labels = rng.integers(0, k, size=n)
        fallback = rng.integers(0, domain, size=(k, m))

        dense = ClusterModeTracker(k, m, storage="dense")
        dense.add_batch(X, labels)
        dict_ = ClusterModeTracker(k, m, storage="dict")
        for row, cluster in zip(X, labels):
            dict_.add(row, int(cluster))
        auto = ClusterModeTracker(k, m, dense_limit=dense_limit)
        half = n // 2
        auto.add_batch(X[:half], labels[:half])
        auto.add_batch(X[half:], labels[half:])

        expected = fallback.copy()
        for cluster in range(k):
            members = X[labels == cluster]
            if len(members) == 0:
                continue
            for j in range(m):
                values, counts = np.unique(members[:, j], return_counts=True)
                expected[cluster, j] = min(zip(-counts, values))[1]

        for tracker in (dense, dict_, auto):
            assert np.array_equal(tracker.modes(fallback), expected)
            for cluster in range(k):
                assert np.array_equal(
                    tracker.mode_of(cluster, fallback[cluster]),
                    expected[cluster],
                )
            assert tracker.cluster_sizes.tolist() == np.bincount(
                labels, minlength=k
            ).tolist()

    def test_auto_converts_to_dict_beyond_limit(self):
        tracker = ClusterModeTracker(2, 2, dense_limit=8)
        assert tracker.storage == "dense"
        tracker.add(np.array([3, 5]), 0)
        tracker.add(np.array([1000, 1000]), 1)  # outgrows the limit
        assert tracker.storage == "dict"
        fallback = np.zeros((2, 2), dtype=np.int64)
        assert tracker.modes(fallback)[0].tolist() == [3, 5]
        assert tracker.modes(fallback)[1].tolist() == [1000, 1000]

    def test_dense_storage_grows_within_limit(self):
        tracker = ClusterModeTracker(2, 2, n_categories=4, dense_limit=2048)
        tracker.add(np.array([900, 2]), 0)
        assert tracker.storage == "dense"
        assert tracker.mode_of(0, np.zeros(2, dtype=np.int64)).tolist() == [900, 2]


class TestTrackerEdgeCases:
    def test_huge_codes_do_not_overflow_the_batch_encoding(self):
        # (cluster, attribute, value) triple encoding would wrap int64
        # for 64-bit-hash-sized codes; the dict path must fall back to
        # row-by-row counting with identical results.
        tracker = ClusterModeTracker(800, 60, storage="dict")
        X = np.array([[2**62] * 60, [5] * 60, [5] * 60], dtype=np.int64)
        labels = np.array([799, 799, 799])
        tracker.add_batch(X, labels)
        reference = ClusterModeTracker(800, 60, storage="dict")
        for row, cluster in zip(X, labels):
            reference.add(row, int(cluster))
        fallback = np.zeros((800, 60), dtype=np.int64)
        assert np.array_equal(tracker.modes(fallback), reference.modes(fallback))
        assert tracker.mode_of(799, fallback[799]).tolist() == [5] * 60
        assert tracker.cluster_sizes[799] == 3

    def test_add_rejects_wrong_width_items(self):
        from repro.exceptions import DataValidationError

        tracker = ClusterModeTracker(3, 10)
        with pytest.raises(DataValidationError):
            tracker.add(np.zeros(12, dtype=np.int64), 0)  # too long
        with pytest.raises(DataValidationError):
            tracker.add(np.zeros(4, dtype=np.int64), 0)  # too short
