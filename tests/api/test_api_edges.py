"""Edge-path coverage for the api layer (errors and rarely-hit branches).

These paths guard users against malformed configuration; each test
pins the error type and message shape so refactors cannot silently
swallow them.  They also keep the serving/API coverage gate honest —
``tests/coverage/thresholds.json`` holds both packages at ≥ 90 %.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    ClusterModel,
    EngineSpec,
    LSHSpec,
    TrainSpec,
    register_estimator,
)
from repro.api.model import _values_equal
from repro.core.mh_kmodes import MHKModes
from repro.exceptions import ConfigurationError, DataValidationError
from repro.kmodes import KModes


def _artifact(**overrides) -> ClusterModel:
    kwargs = dict(
        algorithm="mh-kmodes",
        n_clusters=2,
        centroids=np.zeros((2, 3), dtype=np.int64),
        engine=EngineSpec(),
        train=TrainSpec(),
    )
    kwargs.update(overrides)
    return ClusterModel(**kwargs)


class TestClusterModelValidation:
    def test_rejects_empty_algorithm(self):
        with pytest.raises(ConfigurationError, match="registry name"):
            _artifact(algorithm="")

    def test_rejects_non_positive_clusters(self):
        with pytest.raises(ConfigurationError, match="n_clusters"):
            _artifact(n_clusters=0)

    def test_rejects_wrong_spec_types(self):
        with pytest.raises(ConfigurationError, match="EngineSpec"):
            _artifact(engine={"backend": "serial"})
        with pytest.raises(ConfigurationError, match="TrainSpec"):
            _artifact(train={"max_iter": 3})
        with pytest.raises(ConfigurationError, match="LSHSpec"):
            _artifact(lsh="minhash")

    def test_rejects_wrong_centroid_shape(self):
        with pytest.raises(DataValidationError, match="2-D"):
            _artifact(centroids=np.zeros(3))

    def test_band_keys_and_assignments_must_pair(self):
        with pytest.raises(DataValidationError, match="together"):
            _artifact(band_keys=np.zeros((4, 2), dtype=np.uint64))
        with pytest.raises(DataValidationError, match="disagree"):
            _artifact(
                band_keys=np.zeros((4, 2), dtype=np.uint64),
                assignments=np.zeros(3, dtype=np.int64),
            )

    def test_equality_handles_absent_arrays_and_nan_cost(self):
        with_labels = _artifact(labels=np.zeros(2, dtype=np.int64))
        without = _artifact()
        assert with_labels != without
        assert with_labels == _artifact(labels=np.zeros(2, dtype=np.int64))
        nan_a = _artifact(state={"cost": float("nan")})
        nan_b = _artifact(state={"cost": float("nan")})
        assert nan_a == nan_b
        assert _artifact() != object()  # NotImplemented path

    def test_values_equal_mapping_mismatch(self):
        assert not _values_equal({"a": 1}, {"b": 1})
        assert _values_equal({"a": np.arange(3)}, {"a": np.arange(3)})

    def test_to_estimator_requires_restore_hook(self):
        @register_estimator("no-restore-test")
        class NoRestore:
            _accepts_specs = False

            def __init__(self, n_clusters):
                self.n_clusters = n_clusters

        try:
            with pytest.raises(ConfigurationError, match="reconstructed"):
                _artifact(algorithm="no-restore-test").to_estimator()
        finally:
            from repro.api import registry

            registry._REGISTRY.pop("no-restore-test", None)


class TestRegistryEdges:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_estimator("kmodes")(MHKModes)

    def test_reregistering_same_class_is_idempotent(self):
        assert register_estimator("kmodes")(KModes) is KModes


class TestConstructorEdges:
    def test_non_spec_value_rejected(self):
        with pytest.raises(ConfigurationError, match="LSHSpec"):
            MHKModes(n_clusters=2, lsh="minhash")

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError):
            MHKModes(n_clusters=2, verbosity=3)


class TestProtocolEdges:
    def test_get_params_deep_flattens_specs(self):
        model = MHKModes(n_clusters=3, lsh=LSHSpec(bands=8, rows=2))
        deep = model.get_params(deep=True)
        assert deep["lsh__bands"] == 8
        assert deep["train__max_iter"] == TrainSpec().max_iter

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ConfigurationError, match="invalid parameter"):
            MHKModes(n_clusters=3).set_params(bogus=1)

    def test_set_params_empty_noop(self):
        model = MHKModes(n_clusters=3)
        assert model.set_params() is model

    def test_validate_predict_x_rejects_zero_width(self):
        model = MHKModes(n_clusters=3)
        with pytest.raises(DataValidationError, match="attribute"):
            model._validate_predict_X(np.empty((0, 0), dtype=np.int64))
