"""The common estimator protocol.

:class:`EstimatorProtocol` is the mixin every estimator in the library
shares.  It derives the parameter surface from the constructor
signature (sklearn's convention: every constructor argument is
readable as a same-named attribute), and provides:

* :meth:`~EstimatorProtocol.get_params` /
  :meth:`~EstimatorProtocol.set_params` — inspect and change the
  configuration; ``set_params`` understands both whole params
  (``lsh=LSHSpec(...)``) and nested spec fields (``lsh__bands=8``);
* :meth:`~EstimatorProtocol.clone` — a fresh, unfitted estimator with
  identical parameters;
* ``__repr__`` showing only non-default parameters;
* ``_is_fitted()`` / the :func:`repro.exceptions.check_fitted` hook.

Examples
--------
>>> from repro import MHKModes
>>> from repro.api import LSHSpec
>>> MHKModes(n_clusters=4)
MHKModes(n_clusters=4)
>>> model = MHKModes(n_clusters=4, lsh=LSHSpec(bands=8, rows=2))
>>> model
MHKModes(n_clusters=4, lsh=LSHSpec(bands=8, rows=2))
>>> model.get_params()["lsh"]
LSHSpec(bands=8, rows=2)
>>> model.set_params(lsh__bands=16).bands
16
>>> model.clone()
MHKModes(n_clusters=4, lsh=LSHSpec(bands=16, rows=2))
"""

from __future__ import annotations

import inspect

import numpy as np

from repro.api.specs import Spec
from repro.exceptions import ConfigurationError, DataValidationError

__all__ = ["EstimatorProtocol", "SpecAttributeSurface"]


class EstimatorProtocol:
    """Shared parameter/lifecycle protocol for all estimators."""

    #: Private attribute holding the fitted centroids (K-Modes-family
    #: estimators override with ``"_modes"``); used by the shared
    #: artifact-restore default.
    _centroid_attr = "_centroids"

    @classmethod
    def _param_names(cls) -> tuple[str, ...]:
        """Constructor parameter names (excluding ``self`` and ``**legacy``)."""
        parameters = inspect.signature(cls.__init__).parameters
        return tuple(
            name
            for name, parameter in parameters.items()
            if name != "self"
            and parameter.kind
            not in (inspect.Parameter.VAR_KEYWORD, inspect.Parameter.VAR_POSITIONAL)
        )

    @classmethod
    def _param_default(cls, name: str):
        """Declared default of constructor parameter ``name``.

        For the spec parameters the signature default is ``None``; the
        *effective* default is the class-level default spec
        (``_default_lsh`` / ``_default_engine`` / ``_default_train``),
        which is what repr/comparison should use.
        """
        if name in ("lsh", "engine", "train", "stream"):
            spec_default = getattr(cls, f"_default_{name}", None)
            if spec_default is not None:
                return spec_default
        parameter = inspect.signature(cls.__init__).parameters.get(name)
        if parameter is None:
            return inspect.Parameter.empty
        return parameter.default

    def get_params(self, deep: bool = False) -> dict:
        """Current constructor parameters, by name.

        With ``deep=True``, frozen spec parameters are additionally
        flattened into ``<param>__<field>`` entries (sklearn's nested
        convention), e.g. ``lsh__bands``.
        """
        params = {name: getattr(self, name) for name in self._param_names()}
        if deep:
            for name, value in list(params.items()):
                if isinstance(value, Spec):
                    for field, field_value in value.to_dict().items():
                        params[f"{name}__{field}"] = field_value
        return params

    def set_params(self, **params) -> "EstimatorProtocol":
        """Re-configure this estimator in place; returns ``self``.

        Accepts whole constructor parameters (``train=TrainSpec(...)``)
        and nested spec fields (``train__max_iter=5``).  The estimator
        is re-initialised, so any fitted state is discarded — configure
        first, fit second.
        """
        if not params:
            return self
        names = self._param_names()
        current = self.get_params()
        for key, value in params.items():
            if key in names:
                current[key] = value
                continue
            parent, separator, field = key.partition("__")
            if separator and parent in names and isinstance(current[parent], Spec):
                current[parent] = current[parent].replace(**{field: value})
                continue
            raise ConfigurationError(
                f"invalid parameter {key!r} for {type(self).__name__}; "
                f"valid parameters are {list(names)} (spec fields nest as "
                "'<param>__<field>', e.g. 'lsh__bands')"
            )
        type(self).__init__(self, **current)
        return self

    def clone(self) -> "EstimatorProtocol":
        """A new, unfitted estimator with identical parameters."""
        return type(self)(**self.get_params())

    def _is_fitted(self) -> bool:
        """Whether ``fit`` has completed (hook for ``check_fitted``)."""
        return getattr(self, "_fitted", False)

    def _validate_predict_X(self, X) -> np.ndarray:
        """Predict-path input validation.

        Unlike ``_validate_X`` (the fit-path contract, where zero items
        make no sense), an **empty batch** ``(0, m)`` is legal at
        predict time — a serving loop must answer it with zero labels,
        not an error.  Non-empty input goes through the estimator's own
        ``_validate_X``, so dtype/contiguity canonicalisation is shared
        with training and a predict-time variant (F-order, int32,
        float32) scores exactly like its canonical form.
        """
        X = np.asarray(X)
        if X.ndim == 2 and X.shape[0] == 0:
            if X.shape[1] == 0:
                raise DataValidationError(
                    "X must have at least one attribute column"
                )
            centroids = getattr(self, self._centroid_attr, None)
            dtype = (
                np.asarray(centroids).dtype if centroids is not None else X.dtype
            )
            return np.empty((0, X.shape[1]), dtype=dtype)
        return self._validate_X(X)

    # -- shared ClusterModel scaffolding --------------------------------

    def _artifact_scalars(self) -> dict:
        """The fitted scalars every artifact's ``state`` carries."""
        return {
            "cost": float(self.cost_),
            "n_iter": int(self.n_iter_),
            "converged": bool(self.converged_),
        }

    def _artifact_metadata(self) -> dict:
        """Provenance recorded in every artifact."""
        import repro

        return {
            "class": type(self).__name__,
            "library_version": repro.__version__,
        }

    def _restore_fit_state(self, model) -> None:
        """Adopt a ``ClusterModel``'s fitted state (writable copies).

        Restores centroids (into :attr:`_centroid_attr`), labels and
        the scalar state; estimators with extra fitted state (an index,
        encoder statistics) extend this via ``super()``.
        """
        setattr(self, self._centroid_attr, np.array(model.centroids))
        self._labels = None if model.labels is None else np.array(model.labels)
        self.cost_ = float(model.state.get("cost", float("nan")))
        self.n_iter_ = int(model.state.get("n_iter", 0))
        self.converged_ = bool(model.state.get("converged", False))
        self._stats = None

    def __repr__(self) -> str:
        shown = []
        for name in self._param_names():
            value = getattr(self, name)
            default = self._param_default(name)
            if default is inspect.Parameter.empty or value != default:
                shown.append(f"{name}={value!r}")
        return f"{type(self).__name__}({', '.join(shown)})"


class SpecAttributeSurface:
    """Read-only attribute views onto ``self.lsh``/``engine``/``train``.

    The flat API exposed every knob as a same-named attribute
    (``model.bands``, ``model.backend``, ...).  Spec-driven estimators
    keep that read surface alive through this mixin, so downstream code
    (and the engine, which reads ``model.bands``/``model.rows``) is
    untouched by the redesign.  ``update_refs`` returns the raw spec
    value (possibly ``None``); estimators that resolve it against the
    backend override the property.
    """

    @property
    def bands(self) -> int:
        return self.lsh.bands

    @property
    def rows(self) -> int:
        return self.lsh.rows

    @property
    def family(self) -> str:
        return self.lsh.family

    @property
    def width(self) -> float:
        return self.lsh.width

    @property
    def seed(self) -> int | None:
        return self.lsh.seed

    @property
    def backend(self):
        """The configured backend (an instance when one was provided)."""
        instance = getattr(self, "_backend_instance", None)
        if instance is not None:
            return instance
        return self.engine.backend

    @property
    def n_jobs(self) -> int | None:
        return self.engine.n_jobs

    @property
    def chunk_items(self) -> int:
        return self.engine.chunk_items

    @property
    def init(self) -> str:
        return self.train.init

    @property
    def max_iter(self) -> int:
        return self.train.max_iter

    @property
    def update_refs(self) -> str | None:
        return self.train.update_refs

    @property
    def empty_cluster_policy(self) -> str:
        return self.train.empty_cluster_policy

    @property
    def track_cost(self) -> bool:
        return self.train.track_cost

    @property
    def predict_fallback(self) -> str:
        return self.train.predict_fallback
