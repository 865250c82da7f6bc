"""ModelServer unit behaviour: construction, serving, lifecycle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ServeSpec
from repro.core.mh_kmodes import MHKModes
from repro.data.datgen import RuleBasedGenerator
from repro.data.io import load_serve_spec, save_model
from repro.engine import live_pool_count
from repro.exceptions import ConfigurationError, DataValidationError
from repro.kmodes import KModes
from repro.serve import ModelServer


@pytest.fixture(scope="module")
def fitted():
    data = RuleBasedGenerator(
        n_clusters=8, n_attributes=12, domain_size=200, seed=5
    ).generate(240)
    estimator = MHKModes(
        n_clusters=8, lsh={"bands": 8, "rows": 2, "seed": 0}
    ).fit(data.X)
    return estimator, data


@pytest.fixture(scope="module")
def artifact(fitted):
    estimator, _ = fitted
    return estimator.fitted_model()


class TestConstruction:
    def test_requires_a_cluster_model(self, fitted):
        estimator, _ = fitted
        with pytest.raises(ConfigurationError, match="ClusterModel"):
            ModelServer(estimator)

    def test_spec_dict_round_trip(self, artifact):
        with ModelServer(artifact, {"backend": "thread", "n_jobs": 2}) as server:
            assert server.spec == ServeSpec(backend="thread", n_jobs=2)

    def test_rejects_non_spec(self, artifact):
        with pytest.raises(ConfigurationError, match="^spec must be a ServeSpec "):
            ModelServer(artifact, spec="thread")

    def test_index_is_frozen_for_serving(self, artifact):
        with ModelServer(artifact) as server:
            index = server._estimator.index_
            assert index.read_only
            with pytest.raises(ConfigurationError, match="frozen"):
                index.set_assignments(np.zeros(index.n_items, dtype=np.int64))

    def test_from_path_picks_up_persisted_serve_spec(self, artifact, tmp_path):
        saved = save_model(
            artifact, tmp_path / "model", serve=ServeSpec(backend="thread", n_jobs=2)
        )
        assert load_serve_spec(saved) == ServeSpec(backend="thread", n_jobs=2)
        with ModelServer.from_path(saved) as server:
            assert server.spec.backend == "thread"

    def test_from_path_defaults_without_persisted_spec(self, artifact, tmp_path):
        saved = save_model(artifact, tmp_path / "bare")
        assert load_serve_spec(saved) is None
        with ModelServer.from_path(saved) as server:
            assert server.spec == ServeSpec()

    def test_from_path_explicit_spec_wins(self, artifact, tmp_path):
        saved = save_model(
            artifact, tmp_path / "model", serve=ServeSpec(backend="thread")
        )
        with ModelServer.from_path(saved, spec=ServeSpec()) as server:
            assert server.spec == ServeSpec()


class TestServing:
    def test_labels_match_cluster_model_predict(self, artifact, fitted):
        _, data = fitted
        reference = artifact.predict(data.X)
        with ModelServer(artifact) as server:
            assert np.array_equal(server.predict(data.X), reference)

    def test_max_batch_is_enforced(self, artifact, fitted):
        _, data = fitted
        with ModelServer(artifact, ServeSpec(chunk_items=8, max_batch=16)) as server:
            with pytest.raises(DataValidationError, match="max_batch"):
                server.predict(data.X)
            # the rejected request did not disturb the server
            assert np.array_equal(
                server.predict(data.X[:16]), artifact.predict(data.X[:16])
            )
            assert server.requests_served_ == 1

    def test_counters_accumulate(self, artifact, fitted):
        _, data = fitted
        with ModelServer(artifact) as server:
            server.predict(data.X[:10])
            server.predict(data.X[:7])
            server.predict(np.empty((0, data.X.shape[1]), dtype=np.int64))
            assert server.requests_served_ == 3
            assert server.items_served_ == 17

    def test_distance_serving_matches_assignment(self, artifact, fitted):
        estimator, data = fitted
        with ModelServer(artifact) as server:
            labels, distances = server.predict_with_distance(data.X[:40])
        assert np.array_equal(labels, artifact.predict(data.X[:40]))
        expected = np.count_nonzero(
            data.X[:40] != np.asarray(artifact.centroids)[labels], axis=1
        )
        assert np.array_equal(distances, expected.astype(np.float64))

    def test_distance_serving_empty_batch(self, artifact):
        with ModelServer(artifact) as server:
            labels, distances = server.predict_with_distance(
                np.empty((0, server.model.n_attributes), dtype=np.int64)
            )
        assert labels.shape == (0,)
        assert distances.shape == (0,)

    def test_distance_serving_requires_block_kernel(self, fitted):
        _, data = fitted
        baseline = KModes(n_clusters=4, seed=0).fit(data.X).fitted_model()
        with ModelServer(baseline) as server:
            # the exhaustive baseline still serves plain labels …
            assert np.array_equal(
                server.predict(data.X[:5]), baseline.predict(data.X[:5])
            )
            # … but has no vectorised distance kernel
            with pytest.raises(ConfigurationError, match="_block_distances"):
                server.predict_with_distance(data.X[:5])

    def test_repr_mentions_backend(self, artifact):
        with ModelServer(artifact, ServeSpec(backend="thread")) as server:
            assert "thread" in repr(server)


class TestLifecycle:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_no_pool_leak_after_close(self, artifact, fitted, backend):
        _, data = fitted
        baseline = live_pool_count()
        spec = ServeSpec(backend=backend, n_jobs=2, chunk_items=64, max_batch=512)
        with ModelServer(artifact, spec) as server:
            server.predict(data.X)
            if backend != "serial":
                assert live_pool_count() == baseline + 1
        assert live_pool_count() == baseline

    def test_one_worker_session_per_server(self, artifact, fitted):
        _, data = fitted
        with ModelServer(artifact, ServeSpec(backend="thread", n_jobs=2)) as server:
            for _ in range(4):
                server.predict(data.X[:32])
            assert server._backend.sessions_opened == 1

    def test_closed_server_rejects_requests(self, artifact, fitted):
        _, data = fitted
        server = ModelServer(artifact)
        server.close()
        server.close()  # idempotent
        with pytest.raises(ConfigurationError, match="closed"):
            server.predict(data.X[:2])
