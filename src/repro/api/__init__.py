"""Spec-driven estimator API.

The declarative layer over the whole library:

* :mod:`repro.api.specs` — frozen, validated config objects
  (:class:`LSHSpec`, :class:`EngineSpec`, :class:`TrainSpec`,
  :class:`ServeSpec`) with ``replace`` / ``to_dict`` / ``from_dict``
  round-tripping;
* :mod:`repro.api.protocol` — the :class:`EstimatorProtocol` mixin
  every estimator shares (``get_params`` / ``set_params`` / ``clone``
  / non-default ``repr``);
* :mod:`repro.api.registry` — named construction via
  :func:`make_estimator`;
* :mod:`repro.api.model` — the immutable fitted
  :class:`ClusterModel` artifact that serves ``predict`` without the
  training estimator.

The LSH-accelerated estimators take their LSH, engine and training
settings only as specs (or dicts of spec fields); a flat keyword such
as ``bands=8`` is a ``TypeError``.

Quick start::

    from repro.api import EngineSpec, LSHSpec, TrainSpec, make_estimator

    model = make_estimator(
        "mh-kmodes",
        n_clusters=500,
        lsh=LSHSpec(bands=20, rows=5, seed=0),
        engine=EngineSpec(backend="process", n_jobs=4),
        train=TrainSpec(max_iter=30),
    )
    artifact = model.fit(X).fitted_model()   # immutable ClusterModel
    artifact.save("model")                   # npz + json sidecar
"""

from repro.api.model import ClusterModel
from repro.api.protocol import EstimatorProtocol
from repro.api.registry import (
    available_estimators,
    get_estimator_class,
    make_estimator,
    register_estimator,
)
from repro.api.specs import (
    BACKEND_NAMES,
    DEGRADE_POLICIES,
    EMPTY_CLUSTER_POLICIES,
    LSH_FAMILIES,
    PREDICT_FALLBACK_POLICIES,
    START_METHODS,
    UPDATE_REFS_MODES,
    EngineSpec,
    LSHSpec,
    ResilienceSpec,
    ServeSpec,
    Spec,
    StreamSpec,
    TrainSpec,
)

__all__ = [
    "Spec",
    "LSHSpec",
    "EngineSpec",
    "TrainSpec",
    "ResilienceSpec",
    "ServeSpec",
    "StreamSpec",
    "DEGRADE_POLICIES",
    "LSH_FAMILIES",
    "BACKEND_NAMES",
    "START_METHODS",
    "UPDATE_REFS_MODES",
    "EMPTY_CLUSTER_POLICIES",
    "PREDICT_FALLBACK_POLICIES",
    "EstimatorProtocol",
    "ClusterModel",
    "make_estimator",
    "get_estimator_class",
    "available_estimators",
    "register_estimator",
]
