"""Backend-equivalence suite.

The engine's core contract: with a fixed seed and batch updates, the
``serial``, ``thread`` and ``process`` backends build the same index
and produce *identical* labels and centroids, because a batch pass
scores every item against the labels frozen at the start of the pass
and the chunked kernels replicate the serial tie-breaking exactly.
"""

import dataclasses

import numpy as np
import pytest

from repro.api import EngineSpec, LSHSpec, TrainSpec
from repro.core.mh_kmodes import MHKModes
from repro.core.streaming import StreamingMHKModes
from repro.data.datgen import RuleBasedGenerator
from repro.exceptions import ConfigurationError
from repro.kmeans.mh_kmeans import LSHKMeans

BACKEND_CONFIGS = [("serial", None), ("thread", 2), ("thread", 3), ("process", 2)]


@pytest.fixture(scope="module")
def categorical():
    data = RuleBasedGenerator(
        n_clusters=15, n_attributes=20, domain_size=800, noise_rate=0.15, seed=21
    ).generate(450)
    initial = data.X[
        np.random.default_rng(4).choice(len(data.X), 15, replace=False)
    ].copy()
    return data.X, initial


@pytest.fixture(scope="module")
def numeric():
    rng = np.random.default_rng(8)
    X = np.vstack([rng.normal(3 * c, 0.8, (50, 8)) for c in range(6)])
    initial = X[rng.choice(len(X), 6, replace=False)].copy()
    return X, initial


def _fit_kmodes(X, initial, backend, n_jobs):
    model = MHKModes(
        n_clusters=15,
        lsh=LSHSpec(bands=8, rows=2, seed=0),
        engine=EngineSpec(backend=backend, n_jobs=n_jobs),
        train=TrainSpec(max_iter=15, update_refs="batch"),
    )
    model.fit(X, initial_centroids=initial)
    return model


class TestKModesBackendEquivalence:
    @pytest.mark.parametrize("backend,n_jobs", BACKEND_CONFIGS[1:])
    def test_labels_and_centroids_match_serial(
        self, categorical, backend, n_jobs
    ):
        X, initial = categorical
        reference = _fit_kmodes(X, initial, "serial", None)
        candidate = _fit_kmodes(X, initial, backend, n_jobs)
        assert np.array_equal(candidate.labels_, reference.labels_)
        assert np.array_equal(candidate.centroids_, reference.centroids_)
        assert candidate.n_iter_ == reference.n_iter_
        assert candidate.converged_ == reference.converged_

    @pytest.mark.parametrize("backend,n_jobs", BACKEND_CONFIGS[1:])
    def test_shortlist_series_match_serial(self, categorical, backend, n_jobs):
        X, initial = categorical
        reference = _fit_kmodes(X, initial, "serial", None)
        candidate = _fit_kmodes(X, initial, backend, n_jobs)
        assert candidate.stats_.shortlist_sizes == reference.stats_.shortlist_sizes
        assert (
            candidate.stats_.moves_per_iteration
            == reference.stats_.moves_per_iteration
        )

    def test_predict_matches_across_backends(self, categorical):
        X, initial = categorical
        novel = RuleBasedGenerator(
            n_clusters=15, n_attributes=20, domain_size=800, seed=22
        ).generate(60)
        serial = _fit_kmodes(X, initial, "serial", None)
        threaded = _fit_kmodes(X, initial, "thread", 2)
        assert np.array_equal(serial.predict(novel.X), threaded.predict(novel.X))


class TestOneIndexLayout:
    def test_parallel_fit_matches_serial(self, categorical):
        X, initial = categorical
        reference = _fit_kmodes(X, initial, "serial", None)
        parallel = _fit_kmodes(X, initial, "thread", 2)
        assert np.array_equal(parallel.labels_, reference.labels_)

    def test_parallel_index_stats_match_serial(self):
        """A parallel fit builds the serial fit's index, bucket for bucket."""
        X = RuleBasedGenerator(n_clusters=12, n_attributes=20, seed=5).generate(600).X

        def fit(engine):
            return MHKModes(
                n_clusters=12,
                lsh=LSHSpec(bands=8, rows=2, seed=0),
                engine=engine,
                train=TrainSpec(update_refs="batch"),
            ).fit(X)

        serial = fit(EngineSpec())
        parallel = fit(EngineSpec(backend="thread", n_jobs=2))
        assert np.array_equal(parallel.labels_, serial.labels_)
        assert dataclasses.asdict(parallel.index_.stats()) == dataclasses.asdict(
            serial.index_.stats()
        )


class TestKMeansBackendEquivalence:
    @pytest.mark.parametrize("backend,n_jobs", BACKEND_CONFIGS[1:])
    def test_labels_and_centroids_match_serial(self, numeric, backend, n_jobs):
        X, initial = numeric
        def fit(backend, n_jobs):
            return LSHKMeans(
                n_clusters=6,
                lsh=LSHSpec(family="pstable", bands=8, rows=2, seed=0),
                engine=EngineSpec(backend=backend, n_jobs=n_jobs),
                train=TrainSpec(update_refs="batch"),
            ).fit(X, initial_centroids=initial)

        reference = fit("serial", None)
        candidate = fit(backend, n_jobs)
        assert np.array_equal(candidate.labels_, reference.labels_)
        assert np.array_equal(candidate.centroids_, reference.centroids_)


class TestSemanticsGuards:
    def test_online_with_parallel_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            MHKModes(
                n_clusters=3,
                lsh=LSHSpec(bands=4, rows=1),
                engine=EngineSpec(backend="thread"),
                train=TrainSpec(update_refs="online"),
            )

    def test_default_update_refs_resolution(self):
        lsh = LSHSpec(bands=4, rows=1)
        assert MHKModes(n_clusters=3, lsh=lsh).update_refs == "online"
        assert (
            MHKModes(
                n_clusters=3, lsh=lsh, engine=EngineSpec(backend="thread")
            ).update_refs
            == "batch"
        )

    def test_phase_timings_recorded(self, categorical):
        X, initial = categorical
        model = _fit_kmodes(X, initial, "thread", 2)
        assert set(model.stats_.phase_s) == {
            "session_open",
            "exhaustive_assign",
            "signatures",
            "index_build",
            "iterations",
        }
        assert all(v >= 0 for v in model.stats_.phase_s.values())


class TestStreamingWithEngine:
    def test_parallel_bootstrap_matches_serial_stream(self):
        data = RuleBasedGenerator(
            n_clusters=6, n_attributes=12, domain_size=300, seed=13
        ).generate(240)
        serial = StreamingMHKModes(n_clusters=6, lsh=LSHSpec(bands=8, rows=1, seed=0))
        parallel = StreamingMHKModes(
            n_clusters=6,
            lsh=LSHSpec(bands=8, rows=1, seed=0),
            engine=EngineSpec(backend="thread", n_jobs=2),
        )
        serial.bootstrap(data.X[:180])
        parallel.bootstrap(data.X[:180])
        serial_labels = serial.extend(data.X[180:])
        parallel_labels = parallel.extend(data.X[180:])
        # bootstrap semantics differ (online vs batch), so streamed labels
        # need not be identical — but the machinery must agree on shape,
        # absorb every arrival, and keep shortlists non-degenerate.
        assert len(parallel_labels) == 60
        assert parallel.n_seen_ == serial.n_seen_ == 240
        assert parallel._bootstrap_model.index_.n_items == 240
