"""Unit tests for fitted-model persistence (npz + json sidecar)."""

import json

import numpy as np
import pytest

from repro.core.mh_kmodes import MHKModes
from repro.data.datgen import RuleBasedGenerator
from repro.data.io import load_cluster_model, load_model, save_model
from repro.exceptions import DataValidationError, NotFittedError
from repro.kmeans.mh_kmeans import LSHKMeans
from repro.kmodes.kmodes import KModes


@pytest.fixture(scope="module")
def categorical():
    return RuleBasedGenerator(
        n_clusters=8, n_attributes=14, domain_size=400, seed=2
    ).generate(220)


@pytest.fixture(scope="module")
def novel():
    return RuleBasedGenerator(
        n_clusters=8, n_attributes=14, domain_size=400, seed=3
    ).generate(40)


class TestMHKModesRoundTrip:
    def test_arrays_and_scalars_survive(self, categorical, tmp_path):
        model = MHKModes(n_clusters=8, bands=8, rows=2, seed=7).fit(categorical.X)
        loaded = load_model(save_model(model, tmp_path / "model"))
        assert np.array_equal(loaded.labels_, model.labels_)
        assert np.array_equal(loaded.centroids_, model.centroids_)
        assert loaded.cost_ == model.cost_
        assert loaded.n_iter_ == model.n_iter_
        assert loaded.converged_ == model.converged_

    def test_constructor_params_survive(self, categorical, tmp_path):
        model = MHKModes(
            n_clusters=8, bands=10, rows=3, seed=7, absent_code=0,
            update_refs="batch", max_iter=17,
        ).fit(categorical.X)
        loaded = load_model(save_model(model, tmp_path / "model"))
        assert (loaded.bands, loaded.rows, loaded.max_iter) == (10, 3, 17)
        assert loaded.absent_code == 0
        assert loaded.update_refs == "batch"
        assert loaded.seed == 7

    def test_predict_identical_after_reload(self, categorical, novel, tmp_path):
        model = MHKModes(n_clusters=8, bands=8, rows=2, seed=7).fit(categorical.X)
        loaded = load_model(save_model(model, tmp_path / "model"))
        assert np.array_equal(loaded.predict(novel.X), model.predict(novel.X))

    def test_neighbour_csr_survives_reload(self, categorical, tmp_path):
        # band keys fully determine the flat CSR neighbour storage, so
        # the reloaded index must reproduce it array for array
        model = MHKModes(n_clusters=8, bands=8, rows=2, seed=7).fit(categorical.X)
        loaded = load_model(save_model(model, tmp_path / "model"))
        original = model.index_.neighbour_csr()
        rebuilt = loaded.index_.neighbour_csr()
        assert original is not None and rebuilt is not None
        for left, right in zip(original, rebuilt):
            assert np.array_equal(left, right)

    def test_sidecar_with_retired_shard_count_loads(
        self, categorical, novel, tmp_path
    ):
        # Sidecars saved while EngineSpec had an index shard count carry
        # an "n_shards" entry; it never changed a label, so loading
        # drops it and predicts bit-identically.
        model = MHKModes(
            n_clusters=8, bands=8, rows=2, seed=7,
            backend="thread", n_jobs=2,
        ).fit(categorical.X)
        path = save_model(model, tmp_path / "old")
        sidecar_path = path.with_suffix(".json")
        sidecar = json.loads(sidecar_path.read_text())
        sidecar["specs"]["engine"]["n_shards"] = 3
        sidecar_path.write_text(json.dumps(sidecar))
        artifact = load_cluster_model(path)
        assert artifact.engine == model.engine
        assert np.array_equal(artifact.predict(novel.X), model.predict(novel.X))
        loaded = load_model(path)
        assert np.array_equal(loaded.predict(novel.X), model.predict(novel.X))

    def test_sidecar_is_human_readable(self, categorical, tmp_path):
        model = MHKModes(n_clusters=8, bands=8, rows=2, seed=7).fit(categorical.X)
        path = save_model(model, tmp_path / "model")
        sidecar = json.loads(path.with_suffix(".json").read_text())
        assert sidecar["kind"] == "repro.Model"
        assert sidecar["class"] == "MHKModes"
        assert sidecar["algorithm"] == "mh-kmodes"
        assert sidecar["specs"]["lsh"]["bands"] == 8
        assert sidecar["specs"]["engine"]["backend"] == "serial"
        assert sidecar["specs"]["train"]["max_iter"] == 100


class TestOtherEstimators:
    def test_lsh_kmeans_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(4 * c, 0.5, (40, 5)) for c in range(4)])
        model = LSHKMeans(n_clusters=4, bands=8, rows=2, seed=1).fit(X)
        loaded = load_model(save_model(model, tmp_path / "kmeans"))
        assert np.array_equal(loaded.centroids_, model.centroids_)
        assert loaded.family == model.family
        assert loaded.width == model.width
        assert np.array_equal(loaded.predict(X), model.predict(X))

    def test_kmodes_round_trip_without_index(self, categorical, tmp_path):
        model = KModes(n_clusters=8, seed=0).fit(categorical.X)
        loaded = load_model(save_model(model, tmp_path / "kmodes"))
        assert np.array_equal(loaded.modes_, model.modes_)
        assert np.array_equal(loaded.labels_, model.labels_)


class TestServeSpecSidecar:
    def test_serve_spec_round_trips_and_is_inert_for_loading(
        self, categorical, novel, tmp_path
    ):
        from repro.api import ServeSpec
        from repro.data.io import load_cluster_model, load_serve_spec

        model = MHKModes(n_clusters=8, bands=8, rows=2, seed=7).fit(categorical.X)
        spec = ServeSpec(backend="thread", n_jobs=2, chunk_items=64, max_batch=128)
        path = save_model(model, tmp_path / "with_serve", serve=spec)
        sidecar = json.loads(path.with_suffix(".json").read_text())
        assert sidecar["specs"]["serve"] == spec.to_dict()
        assert load_serve_spec(path) == spec
        # the extra section does not disturb artifact loading
        loaded = load_cluster_model(path)
        assert np.array_equal(loaded.predict(novel.X), model.predict(novel.X))

    def test_serve_accepts_dict_and_validates(self, categorical, tmp_path):
        from repro.data.io import load_serve_spec

        model = MHKModes(n_clusters=8, bands=8, rows=2, seed=7).fit(categorical.X)
        path = save_model(
            model, tmp_path / "dict_serve", serve={"backend": "thread"}
        )
        assert load_serve_spec(path).backend == "thread"
        with pytest.raises(Exception):
            save_model(model, tmp_path / "bad_serve", serve={"backend": "grpc"})

    def test_load_serve_spec_none_without_section(self, categorical, tmp_path):
        from repro.data.io import load_serve_spec

        model = MHKModes(n_clusters=8, bands=8, rows=2, seed=7).fit(categorical.X)
        assert load_serve_spec(save_model(model, tmp_path / "plain")) is None

    def test_load_serve_spec_missing_sidecar_rejected(self, tmp_path):
        from repro.data.io import load_serve_spec

        with pytest.raises(DataValidationError):
            load_serve_spec(tmp_path / "absent")


class TestValidation:
    def test_unfitted_model_rejected(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_model(MHKModes(n_clusters=3, bands=4, rows=1), tmp_path / "m")

    def test_unsupported_class_rejected(self, tmp_path):
        with pytest.raises(DataValidationError):
            save_model(object(), tmp_path / "m")

    def test_missing_files_rejected(self, tmp_path):
        with pytest.raises(DataValidationError):
            load_model(tmp_path / "absent")

    def test_missing_sidecar_rejected(self, categorical, tmp_path):
        model = MHKModes(n_clusters=8, bands=8, rows=2, seed=7).fit(categorical.X)
        path = save_model(model, tmp_path / "model")
        path.with_suffix(".json").unlink()
        with pytest.raises(DataValidationError):
            load_model(path)

    def test_wrong_sidecar_kind_rejected(self, categorical, tmp_path):
        model = MHKModes(n_clusters=8, bands=8, rows=2, seed=7).fit(categorical.X)
        path = save_model(model, tmp_path / "model")
        path.with_suffix(".json").write_text(json.dumps({"kind": "other"}))
        with pytest.raises(DataValidationError):
            load_model(path)

    def test_future_format_version_rejected(self, categorical, tmp_path):
        model = MHKModes(n_clusters=8, bands=8, rows=2, seed=7).fit(categorical.X)
        path = save_model(model, tmp_path / "model")
        sidecar_path = path.with_suffix(".json")
        sidecar = json.loads(sidecar_path.read_text())
        sidecar["format_version"] = 99
        sidecar_path.write_text(json.dumps(sidecar))
        with pytest.raises(DataValidationError):
            load_model(path)
