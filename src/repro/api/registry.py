"""The estimator registry: names → classes, and ``make_estimator``.

Every estimator registers under a stable kebab-case name (the same
name the CLI and the persistence sidecars use), so callers can build
estimators declaratively::

    from repro.api import EngineSpec, LSHSpec, make_estimator

    model = make_estimator(
        "mh-kmodes",
        n_clusters=500,
        lsh=LSHSpec(bands=20, rows=5, seed=0),
        engine=EngineSpec(backend="process", n_jobs=4),
    )

Examples
--------
>>> sorted(available_estimators())  # doctest: +NORMALIZE_WHITESPACE
['fuzzy-kmodes', 'kmeans', 'kmodes', 'lsh-kmeans', 'mh-kmodes',
 'minibatch-kmeans', 'streaming-mh-kmodes']
>>> make_estimator("kmodes", n_clusters=4, seed=0)
KModes(n_clusters=4, seed=0)
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError

__all__ = [
    "available_estimators",
    "get_estimator_class",
    "make_estimator",
    "register_estimator",
]

#: registry name → estimator class (populated by ``register_estimator``
#: decorators at import time).
_REGISTRY: dict[str, type] = {}


def register_estimator(name: str):
    """Class decorator registering an estimator under ``name``."""

    def decorate(cls: type) -> type:
        existing = _REGISTRY.get(name)
        if existing is not None and existing is not cls:
            raise ConfigurationError(
                f"estimator name {name!r} already registered to "
                f"{existing.__name__}"
            )
        _REGISTRY[name] = cls
        cls._registry_name = name
        return cls

    return decorate


def _ensure_populated() -> None:
    # Registration happens when the estimator modules import; pulling in
    # the top-level package guarantees that even for callers that only
    # imported repro.api.
    if not _REGISTRY:
        import repro  # noqa: F401


def available_estimators() -> tuple[str, ...]:
    """All registered estimator names, sorted."""
    _ensure_populated()
    return tuple(sorted(_REGISTRY))


def get_estimator_class(name: str) -> type:
    """The class registered under ``name`` (raises on unknown names)."""
    _ensure_populated()
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ConfigurationError(
            f"unknown estimator {name!r}; available estimators are "
            f"{list(available_estimators())}"
        )
    return cls


def make_estimator(name: str, **params):
    """Construct the estimator registered under ``name``.

    ``params`` are forwarded to the class constructor — specs
    (``lsh=``, ``engine=``, ``train=``) and estimator-own parameters
    alike.
    """
    return get_estimator_class(name)(**params)
