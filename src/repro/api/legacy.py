"""The legacy-kwarg deprecation shim.

Before the spec API, every estimator took ~12 flat keyword arguments
(``bands=``, ``rows=``, ``backend=``, ``n_jobs=``, ...).  Those names
keep working — :func:`resolve_specs` maps each onto its spec field and
emits exactly one :class:`DeprecationWarning` per legacy kwarg — with
an equivalence guarantee: an estimator built from legacy kwargs and
one built from the equivalent specs produce identical labels, because
both paths resolve to the same frozen spec objects before any other
code runs.

Passing a spec *and* a legacy kwarg that targets the same spec is
ambiguous and raises :class:`~repro.exceptions.ConfigurationError`.
"""

from __future__ import annotations

import os
import sys
import warnings

from repro.api.specs import EngineSpec, LSHSpec, TrainSpec
from repro.exceptions import ConfigurationError

__all__ = ["LEGACY_PARAMETER_MAP", "resolve_specs"]

#: legacy kwarg name → (constructor spec argument, spec field).
LEGACY_PARAMETER_MAP: dict[str, tuple[str, str]] = {
    # LSHSpec
    "family": ("lsh", "family"),
    "bands": ("lsh", "bands"),
    "rows": ("lsh", "rows"),
    "width": ("lsh", "width"),
    "seed": ("lsh", "seed"),
    # EngineSpec
    "backend": ("engine", "backend"),
    "n_jobs": ("engine", "n_jobs"),
    "chunk_items": ("engine", "chunk_items"),
    "start_method": ("engine", "start_method"),
    # TrainSpec
    "init": ("train", "init"),
    "max_iter": ("train", "max_iter"),
    "update_refs": ("train", "update_refs"),
    "empty_cluster_policy": ("train", "empty_cluster_policy"),
    "track_cost": ("train", "track_cost"),
    "predict_fallback": ("train", "predict_fallback"),
}

_SPEC_CLASSES = {"lsh": LSHSpec, "engine": EngineSpec, "train": TrainSpec}


#: The installed ``repro`` package directory, for attributing the
#: deprecation warnings to the first *user* frame.
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _warn_legacy(
    owner: str, name: str, spec_arg: str, field: str, stacklevel: int
) -> None:
    message = (
        f"{owner}({name}=...) is deprecated; pass "
        f"{spec_arg}={_SPEC_CLASSES[spec_arg].__name__}({field}=...) instead "
        f"(see repro.api)"
    )
    if sys.version_info >= (3, 12):
        # Attribute to the first frame outside the repro package
        # regardless of call depth (direct construction, subclass
        # constructors, make_estimator, ...), so the warning is shown
        # under Python's default filters.
        warnings.warn(
            message,
            DeprecationWarning,
            stacklevel=2,
            skip_file_prefixes=(_PACKAGE_DIR,),
        )
    else:
        warnings.warn(message, DeprecationWarning, stacklevel=stacklevel + 1)


def resolve_specs(
    owner: str,
    lsh: LSHSpec | dict | None,
    engine: EngineSpec | dict | None,
    train: TrainSpec | dict | None,
    legacy: dict,
    *,
    lsh_default: LSHSpec,
    engine_default: EngineSpec,
    train_default: TrainSpec,
    stacklevel: int = 3,
):
    """Merge explicit specs and legacy kwargs into final spec objects.

    Parameters
    ----------
    owner:
        Estimator class name (for warning and error messages).
    lsh, engine, train:
        Explicit spec objects (or plain dicts, converted through
        ``from_dict``), or ``None`` to start from the estimator's
        defaults.
    legacy:
        The estimator constructor's ``**legacy`` catch-all.  Every key
        must be in :data:`LEGACY_PARAMETER_MAP`; each *string-valued*
        kwarg emits one :class:`DeprecationWarning` and lands on its
        spec field.  ``backend=`` carrying a pre-built
        :class:`~repro.engine.backends.ExecutionBackend` instance is
        the supported escape hatch for sharing one worker pool across
        estimators — it is accepted without a warning (a spec cannot
        hold a live pool).
    lsh_default, engine_default, train_default:
        The estimator's class-level default specs.
    stacklevel:
        Frames between the user's constructor call and this function,
        so deprecation warnings attribute to *user* code (3 when the
        constructor calls ``resolve_specs`` directly, 4 when it goes
        through ``BaseLSHAcceleratedClustering.__init__``).

    Returns
    -------
    tuple
        ``(lsh, engine, train, backend_instance)`` — the resolved
        specs, plus the pre-built
        :class:`~repro.engine.backends.ExecutionBackend` instance when
        the legacy ``backend=`` kwarg carried one (``None`` otherwise);
        the spec then records the instance's name and worker count.
    """
    unknown = [name for name in legacy if name not in LEGACY_PARAMETER_MAP]
    if unknown:
        raise TypeError(
            f"{owner}() got unexpected keyword argument(s) {sorted(unknown)}"
        )

    given = {"lsh": lsh, "engine": engine, "train": train}
    defaults = {"lsh": lsh_default, "engine": engine_default, "train": train_default}
    specs: dict[str, LSHSpec | EngineSpec | TrainSpec] = {}
    for arg, value in given.items():
        if value is None:
            specs[arg] = defaults[arg]
        elif isinstance(value, dict):
            specs[arg] = _SPEC_CLASSES[arg].from_dict(value)
        elif isinstance(value, _SPEC_CLASSES[arg]):
            specs[arg] = value
        else:
            raise ConfigurationError(
                f"{owner}({arg}=...) must be a {_SPEC_CLASSES[arg].__name__} "
                f"(or a dict of its fields), got {type(value).__name__}"
            )

    backend_instance = None
    overrides: dict[str, dict] = {"lsh": {}, "engine": {}, "train": {}}
    for name, value in legacy.items():
        spec_arg, field = LEGACY_PARAMETER_MAP[name]
        if given[spec_arg] is not None:
            raise ConfigurationError(
                f"{owner}() received both {spec_arg}= and the legacy "
                f"{name}= kwarg; configure the spec or the flat kwarg, "
                "not both"
            )
        if name == "backend" and not isinstance(value, str):
            # A pre-built ExecutionBackend instance: the supported (and
            # not deprecated) way to share one worker pool across fits.
            # The spec records its name/worker count for provenance and
            # serialisation; the estimator keeps the instance itself.
            from repro.engine.backends import ExecutionBackend

            if not isinstance(value, ExecutionBackend):
                raise ConfigurationError(
                    f"backend must be a backend name or an ExecutionBackend, "
                    f"got {type(value).__name__}"
                )
            n_jobs = legacy.get("n_jobs")
            if n_jobs is not None and n_jobs != value.n_jobs:
                raise ConfigurationError(
                    f"n_jobs={n_jobs} conflicts with the provided backend's "
                    f"n_jobs={value.n_jobs}; configure one or the other"
                )
            backend_instance = value
            overrides["engine"]["backend"] = value.name
            overrides["engine"]["n_jobs"] = value.n_jobs
            continue
        _warn_legacy(owner, name, spec_arg, field, stacklevel)
        overrides[spec_arg][field] = value

    for arg, changes in overrides.items():
        if changes:
            specs[arg] = specs[arg].replace(**changes)

    return specs["lsh"], specs["engine"], specs["train"], backend_instance
