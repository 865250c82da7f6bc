"""The immutable fitted-model artifact.

Training and serving have different lifecycles: a training estimator
is a mutable object wired to worker pools and iteration statistics,
while the thing deployments share, cache and version is just *what was
learned* — centroids, the index's band keys, and the specs that
reproduce the behaviour.  :class:`ClusterModel` is that artifact:

* **immutable** — a frozen dataclass whose arrays are read-only
  copies, safe to share across threads and processes;
* **self-contained** — carries the :class:`~repro.api.specs.LSHSpec` /
  :class:`~repro.api.specs.EngineSpec` /
  :class:`~repro.api.specs.TrainSpec` triple plus estimator-own
  parameters, so :meth:`predict` never needs the training object;
* **serialisable** — ``save``/``load`` round-trip through the npz +
  JSON sidecar format of :mod:`repro.data.io` with bit-identical
  predictions.

Every fitted estimator exports one via ``fitted_model()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from types import MappingProxyType
from typing import Any, Mapping

import numpy as np

from repro.api.registry import get_estimator_class
from repro.api.specs import EngineSpec, LSHSpec, TrainSpec
from repro.exceptions import ConfigurationError, DataValidationError

__all__ = ["ClusterModel"]


def _values_equal(mine, theirs) -> bool:
    if isinstance(mine, np.ndarray) or isinstance(theirs, np.ndarray):
        if mine is None or theirs is None:
            return (mine is None) == (theirs is None)
        return bool(np.array_equal(mine, theirs))
    if isinstance(mine, float) and isinstance(theirs, float):
        return mine == theirs or (mine != mine and theirs != theirs)
    if isinstance(mine, Mapping) and isinstance(theirs, Mapping):
        return set(mine) == set(theirs) and all(
            _values_equal(mine[key], theirs[key]) for key in mine
        )
    return mine == theirs


def _frozen_array(value, name: str, ndim: int) -> np.ndarray:
    array = np.array(value)  # always a copy — the artifact owns its data
    if array.ndim != ndim:
        raise DataValidationError(
            f"ClusterModel.{name} must be {ndim}-D, got ndim={array.ndim}"
        )
    array.setflags(write=False)
    return array


@dataclass(frozen=True, repr=False)
class ClusterModel:
    """What a fit learned, frozen for serving.

    Parameters
    ----------
    algorithm:
        Registry name of the estimator (see
        :func:`repro.api.registry.available_estimators`).
    n_clusters:
        Number of clusters k.
    centroids:
        ``(k, m)`` fitted centroids (read-only copy).
    engine, train:
        The engine/training specs the estimator was configured with.
    lsh:
        The LSH spec, or ``None`` for exhaustive baselines.
    labels:
        Training assignments (read-only copy), when available.
    band_keys, assignments:
        The clustered index's banded keys and per-item cluster
        references; together they fully determine the rebuilt index,
        so serving reproduces the training index exactly.
    params:
        Estimator-own constructor parameters outside the specs
        (e.g. ``absent_code``; the full flat kwargs for baselines).
    state:
        Fitted scalars (``cost``, ``n_iter``, ``converged``, and any
        encoder state such as ``fitted_domain_size``).
    metadata:
        Free-form provenance (class name, library version).
    """

    algorithm: str
    n_clusters: int
    centroids: np.ndarray
    engine: EngineSpec
    train: TrainSpec
    lsh: LSHSpec | None = None
    labels: np.ndarray | None = None
    band_keys: np.ndarray | None = None
    assignments: np.ndarray | None = None
    params: Mapping[str, Any] = field(default_factory=dict)
    state: Mapping[str, Any] = field(default_factory=dict)
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.algorithm, str) or not self.algorithm:
            raise ConfigurationError(
                f"algorithm must be a registry name, got {self.algorithm!r}"
            )
        if self.n_clusters <= 0:
            raise ConfigurationError(
                f"n_clusters must be positive, got {self.n_clusters}"
            )
        if not isinstance(self.engine, EngineSpec):
            raise ConfigurationError("engine must be an EngineSpec")
        if not isinstance(self.train, TrainSpec):
            raise ConfigurationError("train must be a TrainSpec")
        if self.lsh is not None and not isinstance(self.lsh, LSHSpec):
            raise ConfigurationError("lsh must be an LSHSpec or None")
        set_ = object.__setattr__
        set_(self, "centroids", _frozen_array(self.centroids, "centroids", 2))
        if self.labels is not None:
            set_(self, "labels", _frozen_array(self.labels, "labels", 1))
        if (self.band_keys is None) != (self.assignments is None):
            raise DataValidationError(
                "band_keys and assignments must be provided together"
            )
        if self.band_keys is not None:
            set_(self, "band_keys", _frozen_array(self.band_keys, "band_keys", 2))
            set_(
                self,
                "assignments",
                _frozen_array(self.assignments, "assignments", 1),
            )
            if len(self.band_keys) != len(self.assignments):
                raise DataValidationError(
                    f"band_keys ({len(self.band_keys)} items) and assignments "
                    f"({len(self.assignments)} items) disagree"
                )
        set_(self, "params", MappingProxyType(dict(self.params)))
        set_(self, "state", MappingProxyType(dict(self.state)))
        set_(self, "metadata", MappingProxyType(dict(self.metadata)))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def n_items(self) -> int:
        """Items the model has absorbed (0 when no index was exported)."""
        return 0 if self.assignments is None else len(self.assignments)

    @property
    def n_attributes(self) -> int:
        return self.centroids.shape[1]

    def specs_dict(self) -> dict:
        """The three specs as plain dicts (``None`` for an absent LSH)."""
        return {
            "lsh": None if self.lsh is None else self.lsh.to_dict(),
            "engine": self.engine.to_dict(),
            "train": self.train.to_dict(),
        }

    def __repr__(self) -> str:
        indexed = (
            f", indexed_items={len(self.assignments)}"
            if self.assignments is not None
            else ""
        )
        return (
            f"ClusterModel(algorithm={self.algorithm!r}, "
            f"n_clusters={self.n_clusters}, "
            f"n_attributes={self.n_attributes}{indexed})"
        )

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------

    def to_estimator(self):
        """A fitted estimator reconstructed from this artifact.

        The estimator is built from the specs, its fitted arrays
        restored, and — when band keys are present — the clustered
        index rebuilt in-process regardless of the recorded backend:
        results are backend-invariant and reconstructing a model
        should never fork a worker pool as a side effect.
        """
        cls = get_estimator_class(self.algorithm)
        kwargs = dict(self.params)
        kwargs.pop("n_clusters", None)  # passed explicitly below
        if getattr(cls, "_accepts_specs", False):
            kwargs.update(lsh=self.lsh, engine=self.engine, train=self.train)
        estimator = cls(n_clusters=self.n_clusters, **kwargs)
        restore = getattr(estimator, "_restore_fit_state", None)
        if restore is None:
            raise ConfigurationError(
                f"{cls.__name__} cannot be reconstructed from a ClusterModel"
            )
        restore(self)
        return estimator

    def frozen_estimator(self):
        """A serving estimator whose index is frozen read-only.

        Like :meth:`to_estimator`, but the rebuilt clustered index (if
        any) is switched into read-only query mode — safe for
        concurrent queries from any number of threads or serving
        workers, and unable to drift from the artifact.
        """
        estimator = self.to_estimator()
        index = getattr(estimator, "_index", None)
        if index is not None:
            index.freeze()
        return estimator

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Assign new items using only this artifact.

        A serving estimator is materialised lazily from the specs on
        first call and cached (the artifact itself stays immutable —
        the cache is invisible to equality and serialisation); labels
        are bit-identical to the training estimator's ``predict``.
        """
        server = getattr(self, "_server_cache", None)
        if server is None:
            # The cache only ever answers queries; freezing it makes
            # concurrent predict calls on one artifact safe.
            server = self.frozen_estimator()
            object.__setattr__(self, "_server_cache", server)
        return server.predict(X)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save(self, path: str | Path, serve=None) -> Path:
        """Write the artifact as ``<path>.npz`` + ``<path>.json``.

        ``serve`` optionally persists a :class:`~repro.api.ServeSpec`
        deployment default next to the model (see
        :func:`repro.data.io.load_serve_spec`).
        """
        from repro.data.io import save_model

        return save_model(self, path, serve=serve)

    @classmethod
    def load(cls, path: str | Path) -> "ClusterModel":
        """Read an artifact written by :meth:`save` (or ``save_model``)."""
        from repro.data.io import load_cluster_model

        return load_cluster_model(path)

    # Equality ignores the serving cache (a plain attribute set through
    # object.__setattr__, invisible to dataclass fields), compares
    # arrays by value and treats NaN scalars as equal (a model whose
    # cost is NaN must round-trip to an equal artifact).
    def __eq__(self, other) -> bool:
        if not isinstance(other, ClusterModel):
            return NotImplemented
        for spec_field in fields(self):
            if not _values_equal(
                getattr(self, spec_field.name), getattr(other, spec_field.name)
            ):
                return False
        return True

    __hash__ = None  # type: ignore[assignment] - arrays are unhashable
