"""Common-API conformance suite, parametrised over every registered estimator.

Every estimator in the registry must honour the shared protocol:
``get_params`` → ``set_params`` → ``clone`` round-trips, uniform
``NotFittedError`` on pre-fit access, construction through
``make_estimator``, and — for spec-accepting estimators — construction
from specs only: a spec field passed as a flat kwarg is a ``TypeError``,
a spec argument of the wrong type a ``ConfigurationError`` naming it,
and a dict of spec fields builds the same estimator as the spec.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.api import (
    EngineSpec,
    LSHSpec,
    StreamSpec,
    TrainSpec,
    available_estimators,
    get_estimator_class,
    make_estimator,
)
from repro.data.datgen import RuleBasedGenerator
from repro.engine import ThreadBackend
from repro.exceptions import ConfigurationError, NotFittedError

ALL_ESTIMATORS = sorted(available_estimators())
CATEGORICAL = {"mh-kmodes", "kmodes", "fuzzy-kmodes", "streaming-mh-kmodes"}
SPEC_DRIVEN = {"mh-kmodes", "lsh-kmeans", "streaming-mh-kmodes"}

K = 6

#: Cheap non-default parameters per estimator, exercising estimator-own
#: params alongside the shared surface.
EXTRA_PARAMS = {
    "mh-kmodes": {"lsh": LSHSpec(bands=8, rows=2, seed=3)},
    "lsh-kmeans": {"lsh": LSHSpec(family="pstable", bands=8, rows=2, seed=3)},
    "streaming-mh-kmodes": {
        "lsh": LSHSpec(bands=8, rows=2, seed=3),
        "refresh_interval": 50,
    },
    "kmodes": {"seed": 3, "max_iter": 10},
    "fuzzy-kmodes": {"seed": 3, "alpha": 1.3},
    "kmeans": {"seed": 3, "max_iter": 10},
    "minibatch-kmeans": {"seed": 3, "batch_size": 64},
}


@pytest.fixture(scope="module")
def categorical_X():
    return RuleBasedGenerator(
        n_clusters=K, n_attributes=12, domain_size=300, seed=5
    ).generate(180).X


@pytest.fixture(scope="module")
def numeric_X():
    rng = np.random.default_rng(5)
    centres = rng.normal(0.0, 10.0, size=(K, 6))
    labels = rng.integers(0, K, 180)
    return centres[labels] + rng.normal(0.0, 0.4, size=(180, 6))


@pytest.fixture
def data(request, categorical_X, numeric_X):
    name = request.getfixturevalue("name")
    return categorical_X if name in CATEGORICAL else numeric_X


def build(name):
    return make_estimator(name, n_clusters=K, **EXTRA_PARAMS[name])


def fit(estimator, name, X):
    if name == "streaming-mh-kmodes":
        split = (2 * len(X)) // 3
        estimator.bootstrap(X[:split])
        estimator.extend(X[split:])
    else:
        estimator.fit(X)
    return estimator


@pytest.mark.parametrize("name", ALL_ESTIMATORS)
class TestProtocolConformance:
    def test_registered_class_exposes_protocol(self, name):
        cls = get_estimator_class(name)
        for method in ("get_params", "set_params", "clone", "_is_fitted"):
            assert callable(getattr(cls, method)), f"{name} lacks {method}"

    def test_make_estimator_matches_direct_construction(self, name):
        via_registry = build(name)
        direct = get_estimator_class(name)(n_clusters=K, **EXTRA_PARAMS[name])
        assert via_registry.get_params() == direct.get_params()

    def test_get_set_clone_round_trip(self, name):
        estimator = build(name)
        params = estimator.get_params()
        assert params["n_clusters"] == K

        clone = estimator.clone()
        assert type(clone) is type(estimator)
        assert clone is not estimator
        assert clone.get_params() == params
        assert not clone._is_fitted()

        fresh = make_estimator(name, n_clusters=K)
        fresh.set_params(**params)
        assert fresh.get_params() == params

    def test_set_params_rejects_unknown(self, name):
        with pytest.raises(ConfigurationError):
            build(name).set_params(definitely_not_a_param=1)

    def test_repr_shows_only_non_defaults(self, name):
        default = make_estimator(name, n_clusters=K)
        assert repr(default) == f"{type(default).__name__}(n_clusters={K})"
        tuned = build(name)
        assert repr(tuned).startswith(f"{type(tuned).__name__}(n_clusters={K}")

    def test_unfitted_access_raises_not_fitted(self, name, data):
        estimator = build(name)
        fitted_attrs = [
            attr
            for attr in ("labels_", "centroids_", "modes_", "stats_", "index_")
            if hasattr(type(estimator), attr)
        ]
        assert fitted_attrs, f"{name} exposes no fitted attributes"
        for attr in fitted_attrs:
            with pytest.raises(NotFittedError):
                getattr(estimator, attr)
        if hasattr(estimator, "predict"):
            with pytest.raises(NotFittedError):
                estimator.predict(data[:3])
        with pytest.raises(NotFittedError):
            estimator.fitted_model()

    def test_fitted_model_round_trip_predict_identical(self, name, data, tmp_path):
        from repro.data.io import load_cluster_model, save_model

        estimator = fit(build(name), name, data)
        artifact = estimator.fitted_model()
        loaded = load_cluster_model(save_model(artifact, tmp_path / "model"))
        assert loaded == artifact
        predictions = loaded.predict(data)
        if name == "streaming-mh-kmodes":
            # The artifact serves with the stream's current modes/index.
            reference = artifact.predict(data)
        else:
            reference = estimator.predict(data)
        assert np.array_equal(predictions, reference)

    def test_clone_is_unfitted_but_equivalent(self, name, data):
        estimator = fit(build(name), name, data)
        clone = estimator.clone()
        assert not clone._is_fitted()
        fit(clone, name, data)
        if name == "streaming-mh-kmodes":
            assert np.array_equal(clone.modes_, estimator.modes_)
        else:
            assert np.array_equal(clone.labels_, estimator.labels_)


SPECS = {
    "mh-kmodes": {
        "lsh": LSHSpec(bands=8, rows=2, seed=3),
        "train": TrainSpec(max_iter=10),
    },
    "lsh-kmeans": {
        "lsh": LSHSpec(family="pstable", width=2.0, bands=8, rows=2, seed=3)
    },
    "streaming-mh-kmodes": {
        "lsh": LSHSpec(bands=8, rows=2, seed=3),
        "train": TrainSpec(update_refs="batch"),
        "stream": StreamSpec(chunk_items=64),
    },
}

#: Every LSHSpec, EngineSpec and TrainSpec field, with its default: the
#: settings the spec-driven estimators take only through their specs.
SPEC_FIELDS = [
    (field.name, field.default)
    for spec in (LSHSpec, EngineSpec, TrainSpec)
    for field in dataclasses.fields(spec)
]

#: Each spec argument of the spec-driven estimators, with its class.
SPEC_ARGUMENTS = {
    "mh-kmodes": {"lsh": LSHSpec, "engine": EngineSpec, "train": TrainSpec},
    "lsh-kmeans": {"lsh": LSHSpec, "engine": EngineSpec, "train": TrainSpec},
    "streaming-mh-kmodes": {
        "lsh": LSHSpec,
        "engine": EngineSpec,
        "train": TrainSpec,
        "stream": StreamSpec,
    },
}


@pytest.mark.parametrize("name", sorted(SPEC_DRIVEN))
class TestSpecOnlyConstruction:
    @pytest.mark.parametrize(
        "field, value", SPEC_FIELDS, ids=[field for field, _ in SPEC_FIELDS]
    )
    def test_flat_spec_field_kwarg_raises_type_error(self, name, field, value):
        with pytest.raises(TypeError, match=field):
            make_estimator(name, n_clusters=K, **{field: value})

    def test_spec_construction_does_not_warn(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            make_estimator(name, n_clusters=K, **SPECS[name])

    def test_wrong_spec_type_names_the_argument(self, name):
        # a backend instance, say, reaches no spec argument
        backend = ThreadBackend(n_jobs=2)
        for argument, spec_class in SPEC_ARGUMENTS[name].items():
            with pytest.raises(
                ConfigurationError,
                match=f"^{argument} must be a {spec_class.__name__} ",
            ):
                make_estimator(name, n_clusters=K, **{argument: backend})

    def test_dict_specs_build_the_same_estimator(self, name):
        specs = SPECS[name]
        via_dicts = make_estimator(
            name,
            n_clusters=K,
            **{argument: spec.to_dict() for argument, spec in specs.items()},
        )
        via_specs = make_estimator(name, n_clusters=K, **specs)
        assert via_dicts.get_params() == via_specs.get_params()

    def test_unknown_kwarg_rejected(self, name):
        with pytest.raises(TypeError):
            make_estimator(name, n_clusters=K, bandz=8)

    def test_numpy_scalar_kwargs_accepted(self, name):
        # rng.integers / np.arange sweeps produce numpy scalars; the
        # specs accept and normalise them
        base_spec = EXTRA_PARAMS[name]["lsh"]
        estimator = make_estimator(
            name,
            n_clusters=K,
            lsh=base_spec.replace(bands=np.int64(8), rows=np.int64(2)),
        )
        assert estimator.bands == 8 and type(estimator.bands) is int
