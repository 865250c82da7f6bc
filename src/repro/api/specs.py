"""Typed, validated, immutable configuration specs.

Every LSH-accelerated estimator in the library is configured by the
same three groups of knobs, and before this module each estimator
re-declared all of them as flat keyword arguments.  The specs make the
groups first class:

* :class:`LSHSpec` — the hash-family and banding parameters the LSH
  survey literature treats as *the* declarative description of an
  index (family, bands, rows, quantisation width, seed);
* :class:`EngineSpec` — where a fit executes (backend, workers,
  chunking, process start method);
* :class:`TrainSpec` — how the clustering loop behaves (initialisation,
  iteration cap, reference-update mode, empty-cluster policy, cost
  tracking, predict fallback);
* :class:`ServeSpec` — how a fitted :class:`~repro.api.ClusterModel`
  is served (backend, workers, predict chunking, request-size cap,
  whether streaming ``extend`` requests are accepted) by
  :class:`repro.serve.ModelServer`;
* :class:`StreamSpec` — how :class:`repro.core.StreamingMHKModes`
  ingests arrival batches (backend and workers for the chunked
  signature hashing, and the chunk size bounding both worker tasks
  and processing segments).

Specs are frozen dataclasses: they validate eagerly at construction,
compare by value, hash, round-trip through plain dicts
(:meth:`~Spec.to_dict` / :meth:`~Spec.from_dict` — and therefore
through JSON), and derive modified copies with :meth:`~Spec.replace`.
Their ``repr`` shows only non-default fields, so a default spec prints
as ``LSHSpec()`` and a tuned one shows exactly what was tuned.

Examples
--------
>>> LSHSpec(bands=8, rows=2)
LSHSpec(bands=8, rows=2)
>>> LSHSpec()
LSHSpec()
>>> LSHSpec(bands=8, rows=2).replace(seed=7)
LSHSpec(bands=8, rows=2, seed=7)
>>> EngineSpec.from_dict({"backend": "thread", "n_jobs": 2})
EngineSpec(backend='thread', n_jobs=2)
>>> TrainSpec(max_iter=20).to_dict()["max_iter"]
20
>>> ServeSpec(backend='thread', n_jobs=2)
ServeSpec(backend='thread', n_jobs=2)
>>> LSHSpec(bands=0)
Traceback (most recent call last):
    ...
repro.exceptions.ConfigurationError: bands must be a positive integer, got 0
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "LSH_FAMILIES",
    "BACKEND_NAMES",
    "START_METHODS",
    "UPDATE_REFS_MODES",
    "EMPTY_CLUSTER_POLICIES",
    "PREDICT_FALLBACK_POLICIES",
    "DEGRADE_POLICIES",
    "Spec",
    "LSHSpec",
    "EngineSpec",
    "TrainSpec",
    "ResilienceSpec",
    "ServeSpec",
    "StreamSpec",
]

#: LSH families the library implements (MinHash for categorical data,
#: SimHash / p-stable projections for numeric data).
LSH_FAMILIES = ("minhash", "simhash", "pstable")

#: Execution backends (mirrors ``repro.engine.backends.BACKEND_NAMES``;
#: duplicated here so the spec layer stays import-light and cycle-free).
BACKEND_NAMES = ("serial", "thread", "process")

#: Multiprocessing start methods a spec may request; availability on
#: the current platform is checked when the engine is actually built.
START_METHODS = ("fork", "spawn", "forkserver")

#: Cluster-reference update modes of the framework loop.
UPDATE_REFS_MODES = ("online", "batch")

#: Empty-cluster policies of the centroid update.
EMPTY_CLUSTER_POLICIES = ("keep", "reinit", "error")

#: Policies when a novel item's shortlist is empty at predict time
#: (mirrors ``repro.core.shortlist.FALLBACK_POLICIES``).
PREDICT_FALLBACK_POLICIES = ("full", "error")

#: What a serving pool does once its retry budget is exhausted
#: (mirrors ``repro.engine.pool.DEGRADE_POLICIES``; duplicated so the
#: spec layer stays import-light and cycle-free).
DEGRADE_POLICIES = ("serial", "error")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _require_choice(value, name: str, choices: tuple, optional: bool = False) -> None:
    if optional and value is None:
        return
    _require(value in choices, f"{name} must be one of {choices}, got {value!r}")


def _require_positive(value, name: str, optional: bool = False) -> None:
    if optional and value is None:
        return
    _require(
        isinstance(value, int) and not isinstance(value, bool) and value > 0,
        f"{name} must be a positive integer, got {value!r}",
    )


@dataclass(frozen=True)
class Spec:
    """Base class giving every spec the same immutable-value protocol."""

    def __post_init__(self) -> None:
        # Normalise numpy scalars to their Python equivalents first:
        # values like np.int64 (the natural output of rng.integers or
        # an np.arange sweep) must work, and to_dict() must stay
        # JSON-safe.
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, np.bool_):
                object.__setattr__(self, spec_field.name, bool(value))
            elif isinstance(value, np.integer):
                object.__setattr__(self, spec_field.name, int(value))
            elif isinstance(value, np.floating):
                object.__setattr__(self, spec_field.name, float(value))
        self.validate()

    def validate(self) -> None:
        """Check field values; subclasses override.  Runs at construction."""

    def replace(self, **changes) -> "Spec":
        """A copy with some fields replaced (re-validated).

        >>> TrainSpec().replace(max_iter=5)
        TrainSpec(max_iter=5)
        """
        unknown = set(changes) - {f.name for f in fields(self)}
        if unknown:
            raise ConfigurationError(
                f"{type(self).__name__} has no field(s) {sorted(unknown)}; "
                f"fields are {[f.name for f in fields(self)]}"
            )
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-serialisable; round-trips ``from_dict``)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "Spec":
        """Rebuild a spec from :meth:`to_dict` output (validated).

        Unknown keys fail loudly so a typo in a JSON spec file cannot
        silently fall back to a default.
        """
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"{cls.__name__}.from_dict needs a dict, got {type(data).__name__}"
            )
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigurationError(
                f"unknown {cls.__name__} field(s) {sorted(unknown)}; "
                f"fields are {[f.name for f in fields(cls)]}"
            )
        return cls(**data)

    @classmethod
    def coerce(cls, value, name: str, default: "Spec | None" = None) -> "Spec":
        """The constructor argument ``name`` as a ``cls`` spec.

        ``None`` gives ``default`` (``cls()`` when none is given), a
        dict goes through :meth:`from_dict`, and a ``cls`` instance
        passes through; any other type raises
        :class:`~repro.exceptions.ConfigurationError` naming ``name``.

        >>> LSHSpec.coerce({"bands": 8}, "lsh")
        LSHSpec(bands=8)
        >>> LSHSpec.coerce("minhash", "lsh")  # doctest: +ELLIPSIS
        Traceback (most recent call last):
            ...
        repro.exceptions.ConfigurationError: lsh must be a LSHSpec ..., got str
        """
        if value is None:
            return cls() if default is None else default
        if isinstance(value, dict):
            return cls.from_dict(value)
        if not isinstance(value, cls):
            raise ConfigurationError(
                f"{name} must be a {cls.__name__} (or a dict of its "
                f"fields), got {type(value).__name__}"
            )
        return value

    def non_default_fields(self) -> dict:
        """Fields whose value differs from the dataclass default."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) != f.default
        }

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={value!r}" for name, value in self.non_default_fields().items()
        )
        return f"{type(self).__name__}({inner})"


@dataclass(frozen=True, repr=False)
class LSHSpec(Spec):
    """Declarative description of the banded LSH index.

    Parameters
    ----------
    family:
        ``'minhash'`` (categorical, Jaccard), ``'simhash'`` (numeric,
        cosine) or ``'pstable'`` (numeric, Euclidean).
    bands, rows:
        Banding parameters; the signature width is ``bands * rows``.
    width:
        Quantisation width of the p-stable family (ignored otherwise).
    seed:
        Seeds both centroid initialisation and the hash functions (the
        hashing stream is decoupled internally so fixing initial
        centroids across variants does not change hashes).
    """

    family: str = "minhash"
    bands: int = 20
    rows: int = 5
    width: float = 4.0
    seed: int | None = None

    def validate(self) -> None:
        _require_choice(self.family, "family", LSH_FAMILIES)
        _require_positive(self.bands, "bands")
        _require_positive(self.rows, "rows")
        _require(
            isinstance(self.width, (int, float))
            and not isinstance(self.width, bool)
            and self.width > 0,
            f"width must be positive, got {self.width}",
        )
        _require(
            self.seed is None
            or (isinstance(self.seed, int) and not isinstance(self.seed, bool)),
            f"seed must be an int or None, got {self.seed!r}",
        )


@dataclass(frozen=True, repr=False)
class EngineSpec(Spec):
    """Where and how a fit executes.

    Parameters
    ----------
    backend:
        ``'serial'`` (the paper's exact loop), ``'thread'`` or
        ``'process'``.
    n_jobs:
        Worker count for parallel backends (``None``: one per CPU).
    chunk_items:
        Row block of the exhaustive setup pass and of the categorical
        empty-shortlist full scan where they run on the dense compare
        or the NumPy kernel tier (capped for large k so one block's
        temporaries stay under a fixed memory budget); the compiled
        postings kernel scores every row in one call.
    start_method:
        Multiprocessing start method for the process backend
        (``None``: ``'fork'`` where available, platform default
        elsewhere).
    """

    backend: str = "serial"
    n_jobs: int | None = None
    chunk_items: int = 256
    start_method: str | None = None

    def validate(self) -> None:
        _require_choice(self.backend, "backend", BACKEND_NAMES)
        _require_positive(self.n_jobs, "n_jobs", optional=True)
        _require_positive(self.chunk_items, "chunk_items")
        _require_choice(
            self.start_method, "start_method", START_METHODS, optional=True
        )
        if self.start_method is not None and self.backend != "process":
            raise ConfigurationError(
                "start_method applies to backend='process' only, got "
                f"backend={self.backend!r} with start_method="
                f"{self.start_method!r}"
            )


@dataclass(frozen=True, repr=False)
class TrainSpec(Spec):
    """How the clustering loop behaves.

    Parameters
    ----------
    init:
        Centroid initialisation strategy.  Validated against the
        estimator's supported set at estimator construction (K-Modes
        understands ``'random'``/``'huang'``/``'cao'``, LSH-K-Means
        only ``'random'``).
    max_iter:
        Cap on shortlist iterations (the setup pass is not counted).
    update_refs:
        ``'online'`` (paper semantics, serial only), ``'batch'``
        (vectorised pass, any backend), or ``None`` — resolved to
        ``'online'`` on serial and ``'batch'`` on parallel backends.
    empty_cluster_policy:
        ``'keep'``, ``'reinit'`` or ``'error'`` when a cluster loses
        all members.
    track_cost:
        Record the cost function each iteration.
    predict_fallback:
        ``'full'`` (exact scan) or ``'error'`` when a novel item's
        shortlist is empty at predict time.
    """

    init: str = "random"
    max_iter: int = 100
    update_refs: str | None = None
    empty_cluster_policy: str = "keep"
    track_cost: bool = True
    predict_fallback: str = "full"

    def validate(self) -> None:
        _require(
            isinstance(self.init, str) and bool(self.init),
            f"init must be a non-empty string, got {self.init!r}",
        )
        _require_positive(self.max_iter, "max_iter")
        _require_choice(
            self.update_refs, "update_refs", UPDATE_REFS_MODES, optional=True
        )
        _require_choice(
            self.empty_cluster_policy,
            "empty_cluster_policy",
            EMPTY_CLUSTER_POLICIES,
        )
        _require(
            isinstance(self.track_cost, bool),
            f"track_cost must be a bool, got {self.track_cost!r}",
        )
        _require_choice(
            self.predict_fallback, "predict_fallback", PREDICT_FALLBACK_POLICIES
        )


@dataclass(frozen=True, repr=False)
class ResilienceSpec(Spec):
    """How serving behaves under overload and worker failure.

    Hangs off :attr:`ServeSpec.resilience`; when set,
    :class:`repro.serve.ModelServer` routes ``predict`` through a
    bounded :class:`~repro.resilience.AdmissionQueue` and arms its
    :class:`~repro.engine.pool.PersistentPool` with the retry/degrade
    policy below.  ``None`` (the :class:`ServeSpec` default) keeps the
    pre-resilience direct dispatch.

    Parameters
    ----------
    max_queue_depth:
        Requests allowed to wait for a predict wave; the next request
        is rejected immediately with
        :class:`~repro.exceptions.OverloadedError` (HTTP 429 +
        ``Retry-After``).
    max_in_flight:
        Concurrent micro-batch predict waves (dispatcher threads).
    deadline_ms:
        Per-request deadline covering queue wait + execution; expiry
        raises :class:`~repro.exceptions.DeadlineExceededError`
        (HTTP 504).  ``None``: requests wait indefinitely.
    batch_window_ms:
        Linger after the first request of a wave arrives so concurrent
        submitters coalesce; ``0`` drains only what is already queued.
    max_retries, backoff_ms, backoff_max_ms, jitter, seed:
        The pool's :class:`~repro.resilience.RetryPolicy` after a
        worker death: retries per dispatch, first-retry delay, delay
        cap, fractional jitter, and an optional jitter seed for
        reproducible schedules.
    degrade:
        ``'serial'`` answers the request in-process once retries are
        exhausted; ``'error'`` raises
        :class:`~repro.exceptions.PoolBrokenError` (HTTP 500).
    """

    max_queue_depth: int = 64
    max_in_flight: int = 2
    deadline_ms: int | None = None
    batch_window_ms: int = 0
    max_retries: int = 2
    backoff_ms: float = 50.0
    backoff_max_ms: float = 2000.0
    jitter: float = 0.1
    seed: int | None = None
    degrade: str = "serial"

    def validate(self) -> None:
        _require_positive(self.max_queue_depth, "max_queue_depth")
        _require_positive(self.max_in_flight, "max_in_flight")
        _require_positive(self.deadline_ms, "deadline_ms", optional=True)
        _require(
            isinstance(self.batch_window_ms, int)
            and not isinstance(self.batch_window_ms, bool)
            and self.batch_window_ms >= 0,
            f"batch_window_ms must be a non-negative integer, got "
            f"{self.batch_window_ms!r}",
        )
        _require(
            isinstance(self.max_retries, int)
            and not isinstance(self.max_retries, bool)
            and self.max_retries >= 0,
            f"max_retries must be a non-negative integer, got "
            f"{self.max_retries!r}",
        )
        for name in ("backoff_ms", "backoff_max_ms"):
            value = getattr(self, name)
            _require(
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and value >= 0,
                f"{name} must be a non-negative number, got {value!r}",
            )
        _require(
            self.backoff_max_ms >= self.backoff_ms,
            f"backoff_max_ms={self.backoff_max_ms} is below "
            f"backoff_ms={self.backoff_ms}; the cap cannot undercut the "
            "first delay",
        )
        _require(
            isinstance(self.jitter, (int, float))
            and not isinstance(self.jitter, bool)
            and 0 <= self.jitter <= 1,
            f"jitter must be a fraction in [0, 1], got {self.jitter!r}",
        )
        _require(
            self.seed is None
            or (isinstance(self.seed, int) and not isinstance(self.seed, bool)),
            f"seed must be an int or None, got {self.seed!r}",
        )
        _require_choice(self.degrade, "degrade", DEGRADE_POLICIES)


@dataclass(frozen=True, repr=False)
class ServeSpec(Spec):
    """How a fitted :class:`~repro.api.ClusterModel` is served.

    Consumed by :class:`repro.serve.ModelServer` (and the
    ``repro serve`` CLI): the spec describes the serving pool, how
    predict batches are chunked across its workers, and the largest
    request one call may carry.

    Parameters
    ----------
    backend:
        ``'serial'`` (in-process, no pool), ``'thread'`` or
        ``'process'``.  Labels are bit-identical on every backend.
    n_jobs:
        Worker count for parallel backends (``None``: one per CPU).
    chunk_items:
        Upper bound on the rows one worker task handles; large
        batches split into at least one span per worker, each at most
        this long (results merge in row order, so chunking never
        changes a label).  A value above ``max_batch`` is legal and
        simply means "one span per worker".
    max_batch:
        Largest number of rows one ``predict`` call accepts.  Bounds
        the server's request shared-memory buffer (and the byte size
        the CLI transports accept); oversized requests are rejected,
        not split.
    emit_metrics:
        Keep a per-server :class:`~repro.obs.MetricsRegistry` of
        request latency/batch-size histograms, error counters and an
        in-flight gauge, exposed over ``GET /metrics`` (Prometheus
        text), the enriched ``GET /health`` and the ``{"op": "stats"}``
        NDJSON op.  On by default (the overhead is gated below 5 % of
        serial serving throughput by the serving benchmark); ``False``
        turns the registry off entirely, and ``/metrics`` answers 404.
    resilience:
        Admission-control / retry / degrade configuration (a nested
        :class:`ResilienceSpec`).  ``None`` (default) keeps the direct
        dispatch path: no queue, no deadlines, pool defaults for
        worker-death recovery.
    """

    backend: str = "serial"
    n_jobs: int | None = None
    chunk_items: int = 2048
    max_batch: int = 8192
    allow_extend: bool = False
    emit_metrics: bool = True
    resilience: "ResilienceSpec | None" = None

    def validate(self) -> None:
        _require_choice(self.backend, "backend", BACKEND_NAMES)
        _require_positive(self.n_jobs, "n_jobs", optional=True)
        _require_positive(self.chunk_items, "chunk_items")
        _require_positive(self.max_batch, "max_batch")
        _require(
            isinstance(self.allow_extend, bool),
            f"allow_extend must be a bool, got {self.allow_extend!r}",
        )
        _require(
            isinstance(self.emit_metrics, bool),
            f"emit_metrics must be a bool, got {self.emit_metrics!r}",
        )
        _require(
            self.resilience is None or isinstance(self.resilience, ResilienceSpec),
            "resilience must be a ResilienceSpec or None, got "
            f"{self.resilience!r}",
        )
        if self.allow_extend and self.backend == "process":
            raise ConfigurationError(
                "allow_extend requires backend 'serial' or 'thread'; "
                "process workers hold private index copies that an "
                "extend in the parent could never reach"
            )

    # -- nested-spec round-tripping --------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form; the nested resilience spec flattens too.

        >>> spec = ServeSpec(resilience=ResilienceSpec(deadline_ms=100))
        >>> spec.to_dict()["resilience"]["deadline_ms"]
        100
        >>> ServeSpec.from_dict(spec.to_dict()) == spec
        True
        """
        data = super().to_dict()
        if self.resilience is not None:
            data["resilience"] = self.resilience.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ServeSpec":
        if isinstance(data, dict) and isinstance(data.get("resilience"), dict):
            data = dict(data)
            data["resilience"] = ResilienceSpec.from_dict(data["resilience"])
        return super().from_dict(data)


@dataclass(frozen=True, repr=False)
class StreamSpec(Spec):
    """How :class:`repro.core.StreamingMHKModes` ingests arrival batches.

    The streaming estimator's :meth:`~repro.core.StreamingMHKModes.extend`
    pipeline hashes whole chunks at once and can route that hashing
    through a persistent worker pool; this spec holds the knobs.
    Labels and refreshed modes are **bit-identical** to the sequential
    ``push()`` loop for every backend and chunk size — the spec only
    trades throughput.

    Parameters
    ----------
    backend:
        ``'serial'`` (in-process, the default), ``'thread'`` or
        ``'process'`` — where chunked signature hashing runs.  The
        assignment walk itself stays in the caller's process (it is
        inherently ordered), so parallel backends accelerate the
        MinHash-dominated part of ingestion.
    n_jobs:
        Worker count for parallel backends (``None``: one per CPU).
    chunk_items:
        Upper bound on both the rows per worker hashing task and the
        rows one processing segment handles between index/tracker
        commits.  Any value produces identical labels and modes.
    """

    backend: str = "serial"
    n_jobs: int | None = None
    chunk_items: int = 8192

    def validate(self) -> None:
        _require_choice(self.backend, "backend", BACKEND_NAMES)
        _require_positive(self.n_jobs, "n_jobs", optional=True)
        _require_positive(self.chunk_items, "chunk_items")
