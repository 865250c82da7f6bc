"""The model server: one artifact, one warm pool, many batches.

:class:`ModelServer` is the serving counterpart of a fit session.  At
construction it pays every per-model cost exactly once — rebuilding
the artifact's clustered LSH index (frozen into read-only query mode)
and, on parallel backends, opening a
:class:`~repro.engine.pool.PersistentPool` whose workers stay warm
across requests.  Each ``predict`` call then only pays for its own
rows: the batch is split into contiguous spans (at most
``spec.chunk_items`` rows each, at least one span per worker) with
:func:`~repro.engine.chunking.chunk_ranges`, every span runs the
estimator's own batched shortlist ``predict`` — the same code path
``ClusterModel.predict`` uses — and the label chunks concatenate back
in row order.  Chunking therefore never changes a label: serial,
threaded and process-parallel serving are bit-identical, which the
property suite in ``tests/properties/test_serve_equivalence.py``
asserts exhaustively.

Process pools cannot see a request's matrix through fork copy-on-write
(the pool predates the request), so the server keeps one shared-memory
**request buffer** of ``spec.max_batch`` rows: the batch is copied in
once, workers attach to the segment via its
:class:`~repro.engine.shared.SharedArray` descriptor, and only the
small label chunks ride the result pickles.  A lock serialises buffer
use, so any number of caller threads may hammer one server; thread
and serial backends need no buffer (shared address space) and dispatch
concurrently.

With ``ServeSpec(allow_extend=True)`` the server additionally accepts
**streaming ingest**: :meth:`ModelServer.extend` assigns a batch
through the same pooled predict path, then bulk-inserts the rows into
the (insertable, unfrozen) index with
:meth:`~repro.lsh.index.BaseClusteredIndex.insert_batch`, so later
requests shortlist against them.  The model's centroids stay fixed —
serving never retrains — and a mutation lock serialises requests while
streaming is on (the index is being written).  Process backends are
rejected for streaming servers: their workers hold private index
copies an insert in the parent could never reach.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from repro import kernels
from repro.api.model import ClusterModel
from repro.api.specs import ServeSpec
from repro.engine.backends import resolve_backend
from repro.engine.chunking import chunk_ranges
from repro.engine.pool import PersistentPool
from repro.engine.shared import SharedArray, resolve_array
from repro.exceptions import (
    ConfigurationError,
    DataValidationError,
    ServerClosedError,
)
from repro.instrumentation import Timer
from repro.lsh.bands import compute_band_keys
from repro.obs import (
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
    metrics as process_metrics,
    traced,
)
from repro.resilience.queue import AdmissionQueue
from repro.resilience.retry import RetryPolicy

__all__ = ["ModelServer"]


@traced("serve.predict_chunk")
def _predict_chunk(static, dynamic, span: tuple[int, int]) -> np.ndarray:
    """Kernel: predict one row span of the (possibly shared) matrix.

    ``static`` is the serving estimator (frozen index), pinned for the
    pool's lifetime; ``dynamic`` is the request matrix — a
    :class:`~repro.engine.shared.SharedArray` descriptor of the request
    buffer for process pools, the array itself for threads.
    """
    start, stop = span
    X = resolve_array(dynamic)
    return static.predict(X[start:stop])


@traced("serve.extend_chunk")
def _extend_chunk(
    static, dynamic, span: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel: label one row span AND return its signatures.

    The streaming-ingest variant of :func:`_predict_chunk`: MinHash is
    the dominant per-row cost, and the caller needs the signatures
    again for ``insert_batch`` — so the chunk hashes once and returns
    ``(labels, signatures)``.  Only dispatched on shared-address-space
    pools (``allow_extend`` rejects process backends).
    """
    start, stop = span
    X = resolve_array(dynamic)[start:stop]
    signatures = static._signatures(X)
    return static._predict_from_signatures(X, signatures), signatures


class ModelServer:
    """Serve ``predict`` batches from a :class:`~repro.api.ClusterModel`.

    Parameters
    ----------
    model:
        The fitted artifact to serve.
    spec:
        A :class:`~repro.api.ServeSpec` (or its ``to_dict`` form).
        ``None``: the default spec (serial, in-process).

    Attributes
    ----------
    requests_served_, items_served_:
        Running totals across the server's lifetime (thread-safe).

    Use as a context manager, or call :meth:`close` when done; a closed
    server rejects further requests and its pool counters return to
    zero (asserted by the leak tests via
    :func:`repro.engine.pool.live_pool_count`).
    """

    def __init__(self, model: ClusterModel, spec: ServeSpec | dict | None = None):
        if not isinstance(model, ClusterModel):
            raise ConfigurationError(
                f"ModelServer serves ClusterModel artifacts, got "
                f"{type(model).__name__}; export one with fitted_model() "
                "or load one with load_cluster_model()"
            )
        spec = ServeSpec.coerce(spec, "spec")
        self.model = model
        self.spec = spec
        if spec.allow_extend:
            if model.band_keys is None:
                raise ConfigurationError(
                    "allow_extend needs a model with an exported index "
                    "(band keys); this artifact carries none"
                )
            # Streaming serving: the restored index stays unfrozen, so
            # extend requests insert into it.
            self._estimator = model.to_estimator()
        else:
            # The serving estimator: index rebuilt once, then frozen —
            # every worker queries the same read-only structure.
            self._estimator = model.frozen_estimator()
        self._backend = resolve_backend(spec.backend, spec.n_jobs)
        self._buffer_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        # Serialises whole requests while the index is mutable
        # (allow_extend); read-only serving stays lock-free.
        self._mutate_lock: threading.RLock | None = (
            threading.RLock() if spec.allow_extend else None
        )
        self._requests = 0
        self._items = 0
        self._extended = 0
        self._closed = False
        self._x_buffer: SharedArray | None = None
        # Per-server metrics (ServeSpec.emit_metrics): request counters,
        # latency/batch histograms and the in-flight gauge live in a
        # private registry so several servers in one process never mix;
        # process pools additionally merge their workers' kernel spans
        # here (the snapshot/merge protocol in repro.obs).
        self.metrics: MetricsRegistry | None = (
            MetricsRegistry() if spec.emit_metrics else None
        )
        if self.metrics is not None:
            self._init_instruments()
        # Worker-death recovery: the pool's retry/degrade policy comes
        # from the resilience spec when one is set, pool defaults
        # otherwise (worker crashes are survivable either way).
        resilience = spec.resilience
        retry_policy = None
        degrade = "serial"
        if resilience is not None:
            retry_policy = RetryPolicy(
                max_retries=resilience.max_retries,
                backoff_ms=resilience.backoff_ms,
                backoff_max_ms=resilience.backoff_max_ms,
                jitter=resilience.jitter,
                seed=resilience.seed,
            )
            degrade = resilience.degrade
        self._pool: PersistentPool | None = None
        if self._backend.is_parallel:
            self._pool = PersistentPool(
                self._backend,
                static=self._estimator,
                metrics=self.metrics,
                retry_policy=retry_policy,
                degrade=degrade,
            )
        # Admission control: with a resilience spec, predict routes
        # through a bounded micro-batching queue whose waves call the
        # same chunked dispatch — coalescing never changes a label.
        # The mutation guard moves inside the wave (the dispatcher
        # thread runs it); submitters must not hold it while waiting.
        self._queue: AdmissionQueue | None = None
        if resilience is not None:
            self._queue = AdmissionQueue(
                self._queued_execute,
                max_queue_depth=resilience.max_queue_depth,
                max_in_flight=resilience.max_in_flight,
                max_wave_rows=spec.max_batch,
                deadline_ms=resilience.deadline_ms,
                batch_window_ms=resilience.batch_window_ms,
                registry=self.metrics,
            )

    def _init_instruments(self) -> None:
        """Register the request metric families up front.

        Eager registration means ``GET /metrics`` shows every family —
        zero-valued — before the first request, so scrapers see a
        stable schema.
        """
        registry = self.metrics
        assert registry is not None
        registry.gauge(
            "repro_requests_in_flight",
            help="Requests currently being answered.",
        )
        for op in ("predict", "extend"):
            for status in ("ok", "error"):
                registry.counter(
                    "repro_requests_total",
                    help="Requests answered, by op and status.",
                    labels={"op": op, "status": status},
                )
            registry.histogram(
                "repro_request_latency_seconds",
                help="Wall-clock seconds per request, by op.",
                labels={"op": op},
            )
            registry.histogram(
                "repro_request_batch_rows",
                help="Rows per request batch, by op.",
                labels={"op": op},
                buckets=DEFAULT_SIZE_BUCKETS,
            )

    @contextlib.contextmanager
    def _observe_request(self, op: str):
        """Record one request into the registry (no-op when disabled).

        Yields a mutable holder; the request path sets ``holder["rows"]``
        once the batch size is known.  Success records the latency and
        batch-size histograms plus the ``status="ok"`` counter; any
        exception records ``status="error"`` and re-raises.
        """
        holder = {"rows": 0}
        registry = self.metrics
        if registry is None:
            yield holder
            return
        in_flight = registry.gauge("repro_requests_in_flight")
        in_flight.inc()
        timer = Timer()
        try:
            with timer:
                yield holder
        except BaseException:
            registry.counter(
                "repro_requests_total", labels={"op": op, "status": "error"}
            ).inc()
            raise
        else:
            registry.counter(
                "repro_requests_total", labels={"op": op, "status": "ok"}
            ).inc()
            registry.histogram(
                "repro_request_latency_seconds", labels={"op": op}
            ).observe(timer.elapsed_s)
            registry.histogram(
                "repro_request_batch_rows",
                labels={"op": op},
                buckets=DEFAULT_SIZE_BUCKETS,
            ).observe(float(holder["rows"]))
        finally:
            in_flight.dec()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_path(cls, path, spec: ServeSpec | dict | None = None) -> "ModelServer":
        """Load a saved model (npz + json sidecar) and serve it.

        When ``spec`` is ``None``, a :class:`~repro.api.ServeSpec`
        persisted next to the model (``save_model(..., serve=...)``)
        is used; a model saved without one serves with the defaults.
        """
        from repro.data.io import load_cluster_model, load_serve_spec

        model = load_cluster_model(path)
        if spec is None:
            spec = load_serve_spec(path)
        return cls(model, spec)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def requests_served_(self) -> int:
        with self._stats_lock:
            return self._requests

    @property
    def items_served_(self) -> int:
        with self._stats_lock:
            return self._items

    @property
    def items_extended_(self) -> int:
        """Rows absorbed into the index via :meth:`extend`."""
        with self._stats_lock:
            return self._extended

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Shut the queue and pool down; release the request buffer.

        With an admission queue, ``drain=True`` (default) answers what
        is already queued before tearing down — bounded by ``timeout``
        seconds, defaulting to the resilience spec's ``deadline_ms``
        when one is configured (queued requests could never take longer
        anyway).  New requests are refused with
        :class:`~repro.exceptions.ServerClosedError` the moment close
        begins.  Idempotent and safe to race from several threads: the
        pool is torn down exactly once (``PersistentPool.close``
        serialises).
        """
        self._closed = True
        if self._queue is not None:
            if timeout is None and self.spec.resilience is not None:
                deadline_ms = self.spec.resilience.deadline_ms
                timeout = None if deadline_ms is None else deadline_ms / 1000.0
            self._queue.close(drain=drain, timeout=timeout)
        if self._pool is not None:
            self._pool.close()  # releases the request buffer segment too

    def _check_open(self) -> None:
        if self._closed:
            raise ServerClosedError("this ModelServer is closed")

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Labels for a batch, bit-identical to ``ClusterModel.predict``.

        Batches larger than ``spec.max_batch`` are rejected (serving
        bounds its requests); an empty batch answers with zero labels.
        A request that fails validation raises without disturbing the
        pool — the next request proceeds normally.

        With a resilience spec, the request rides the admission queue:
        it may coalesce into a micro-batch wave with concurrent
        requests (same labels — waves split back by row offset), be
        rejected immediately with
        :class:`~repro.exceptions.OverloadedError` when the queue is
        full, or time out with
        :class:`~repro.exceptions.DeadlineExceededError`.
        """
        with self._observe_request("predict") as observed:
            X = self._prepare(X)
            n = int(X.shape[0])
            if self._queue is not None and n:
                labels = self._queue.submit(X)
                with self._stats_lock:
                    self._requests += 1
                    self._items += n
            else:
                with self._mutation_guard():
                    labels = self._predict_validated(X)
            observed["rows"] = int(labels.shape[0])
            return labels

    def extend(self, X: np.ndarray) -> np.ndarray:
        """Assign a batch *and* absorb it into the serving index.

        Streaming ingest through the serving pool: the rows are
        labelled exactly like :meth:`predict` (same chunked dispatch,
        same shortlist path against the current index state), then
        hashed once more and bulk-inserted with their labels via
        :meth:`~repro.lsh.index.BaseClusteredIndex.insert_batch`, so
        every later request's shortlists see them.  Centroids stay
        fixed — the model itself is immutable; what grows is the
        index's notion of the neighbourhoods.

        Requires ``ServeSpec(allow_extend=True)``.  Requests are
        serialised against each other and against :meth:`predict`
        while streaming is on.
        """
        if not self.spec.allow_extend:
            raise ConfigurationError(
                "this ModelServer is read-only; serve with "
                "ServeSpec(allow_extend=True) to accept extend requests"
            )
        with self._observe_request("extend") as observed:
            X = self._prepare(X)
            n = X.shape[0]
            observed["rows"] = int(n)
            with self._mutation_guard():
                if n == 0:
                    labels = np.empty(0, dtype=np.int64)
                elif self._pool is None:
                    # hashed and banded once, for the query and the insert
                    index = self._estimator._index
                    signatures = self._estimator._signatures(X)
                    keys = compute_band_keys(signatures, index.bands, index.rows)
                    labels = self._estimator._predict_from_signatures(
                        X, signatures, band_keys=keys
                    )
                    index.insert_batch(signatures, labels, band_keys=keys)
                else:
                    results = self._pool.run(
                        _extend_chunk, self._spans(n), dynamic=X
                    )
                    labels = np.concatenate([chunk for chunk, _ in results])
                    signatures = np.concatenate([sigs for _, sigs in results])
                    self._estimator._index.insert_batch(signatures, labels)
            with self._stats_lock:
                self._requests += 1
                self._items += n
                self._extended += n
            return labels

    def _mutation_guard(self):
        return (
            contextlib.nullcontext()
            if self._mutate_lock is None
            else self._mutate_lock
        )

    def _prepare(self, X: np.ndarray) -> np.ndarray:
        """Validate one request into its canonical matrix.

        The row/width bounds run on the raw array *before* the
        estimator's canonicalisation, so an oversized or mis-shaped
        request is rejected without ever copying or scanning it.
        """
        self._check_open()
        raw = np.asarray(X)
        if raw.ndim == 2:
            if raw.shape[0] > self.spec.max_batch:
                raise DataValidationError(
                    f"batch of {raw.shape[0]} rows exceeds max_batch="
                    f"{self.spec.max_batch}; split the request or serve "
                    "with a larger ServeSpec.max_batch"
                )
            if raw.shape[1] != self.model.n_attributes:
                raise DataValidationError(
                    f"X has {raw.shape[1]} attributes but the model serves "
                    f"{self.model.n_attributes}"
                )
        return self._estimator._validate_predict_X(raw)

    def _dispatch_labels(self, X: np.ndarray) -> np.ndarray:
        """Raw chunked dispatch of a canonical batch (no bookkeeping).

        The one predict path everything funnels into: direct calls,
        distance serving, and the admission queue's waves (where ``X``
        is several coalesced requests — chunking splits it the same
        way it would one large batch).
        """
        n = X.shape[0]
        if self._pool is None or n == 0:
            return self._estimator.predict(X)
        spans = self._spans(n)
        if self._backend.name == "process":
            with self._buffer_lock:
                buffer = self._request_buffer(X.dtype)
                buffer[:n] = X
                chunks = self._pool.run(
                    _predict_chunk, spans, dynamic=self._x_buffer
                )
        else:
            chunks = self._pool.run(_predict_chunk, spans, dynamic=X)
        return np.concatenate(chunks)

    def _queued_execute(self, X: np.ndarray) -> np.ndarray:
        """Wave executor for the admission queue (dispatcher threads).

        Takes the mutation guard here rather than in ``predict``: a
        submitter blocking on its wave while holding the guard would
        deadlock against the dispatcher thread trying to acquire it.
        """
        with self._mutation_guard():
            return self._dispatch_labels(X)

    def _predict_validated(self, X: np.ndarray) -> np.ndarray:
        """Dispatch an already-canonical batch and count it."""
        labels = self._dispatch_labels(X)
        with self._stats_lock:
            self._requests += 1
            self._items += X.shape[0]
        return labels

    def predict_with_distance(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Labels plus each row's distance to its assigned centroid.

        The ``predict_proba``-style response: the label and how far the
        row sits from the centroid that won, scored with the
        estimator's vectorised ``_block_distances`` kernel.  Only
        estimators exposing that kernel (the LSH-accelerated family)
        support it.
        """
        block_distances = getattr(self._estimator, "_block_distances", None)
        if block_distances is None:
            raise ConfigurationError(
                f"{type(self._estimator).__name__} has no _block_distances "
                "kernel; distance serving is available for LSH-accelerated "
                "estimators only"
            )
        with self._observe_request("predict") as observed:
            X = self._prepare(X)  # validate once; predict and scoring share it
            with self._mutation_guard():
                labels = self._predict_validated(X)
            observed["rows"] = int(labels.shape[0])
            if len(labels) == 0:
                return labels, np.empty(0, dtype=np.float64)
            centroids = np.asarray(self.model.centroids)
            distances = np.asarray(
                block_distances(X, centroids[labels][:, None, :]),
                dtype=np.float64,
            )[:, 0]
            return labels, distances

    # ------------------------------------------------------------------
    # observability surface
    # ------------------------------------------------------------------

    def health(self) -> dict:
        """The enriched ``GET /health`` payload.

        Always carries liveness, model metadata, serving/pool state and
        the request totals; when metrics are on, also the predict
        latency percentiles estimated from the request histogram
        (``null`` until the first request).
        """
        payload = {
            "status": "closed" if self._closed else "ok",
            "model": {
                "repr": repr(self.model),
                "algorithm": self.model.algorithm,
                "n_clusters": int(self.model.n_clusters),
                "n_attributes": int(self.model.n_attributes),
            },
            "serving": {
                "backend": self.spec.backend,
                "kernels": kernels.active_backend(),
                "n_jobs": int(self._backend.n_jobs),
                "allow_extend": self.spec.allow_extend,
                "pool_open": self._pool is not None and not self._pool.closed,
                "pool_restarts": 0 if self._pool is None else self._pool.restarts,
                "metrics_enabled": self.metrics is not None,
                "resilience": (
                    None
                    if self.spec.resilience is None
                    else {
                        "queue_depth": (
                            0 if self._queue is None else self._queue.depth
                        ),
                        "max_queue_depth": self.spec.resilience.max_queue_depth,
                        "max_in_flight": self.spec.resilience.max_in_flight,
                        "deadline_ms": self.spec.resilience.deadline_ms,
                        "degrade": self.spec.resilience.degrade,
                    }
                ),
            },
            "requests_served": self.requests_served_,
            "items_served": self.items_served_,
            "items_extended": self.items_extended_,
        }
        if self.metrics is not None:
            histogram = self.metrics.histogram(
                "repro_request_latency_seconds", labels={"op": "predict"}
            )
            payload["latency_s"] = (
                {
                    "p50": histogram.quantile(0.50),
                    "p95": histogram.quantile(0.95),
                    "p99": histogram.quantile(0.99),
                }
                if histogram.count
                else None
            )
        return payload

    def stats(self) -> dict:
        """The ``{"op": "stats"}`` NDJSON payload: totals + snapshot."""
        return {
            "requests_served": self.requests_served_,
            "items_served": self.items_served_,
            "items_extended": self.items_extended_,
            "metrics": self.metrics_snapshot(),
        }

    def metrics_snapshot(self) -> dict | None:
        """JSON-safe merged registry snapshot (``None`` when disabled).

        Merges the per-server registry (request metrics, plus worker
        deltas shipped home by process pools) with the process-local
        default registry (span counters from same-address-space
        kernels, fit/extend phases, ...) — metric names are disjoint
        by construction, so the merge is a plain union.
        """
        if self.metrics is None:
            return None
        merged = MetricsRegistry()
        merged.merge(self.metrics.snapshot())
        merged.merge(process_metrics().snapshot())
        return merged.snapshot()

    def metrics_text(self) -> str:
        """The ``GET /metrics`` Prometheus text exposition.

        Raises :class:`~repro.exceptions.ConfigurationError` when the
        server was built with ``ServeSpec(emit_metrics=False)``.
        """
        if self.metrics is None:
            raise ConfigurationError(
                "metrics are disabled on this server; serve with "
                "ServeSpec(emit_metrics=True) to expose /metrics"
            )
        merged = MetricsRegistry()
        merged.merge(self.metrics.snapshot())
        merged.merge(process_metrics().snapshot())
        return merged.to_prometheus()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _spans(self, n: int) -> list[tuple[int, int]]:
        """Contiguous row spans: ≤ ``chunk_items`` each, ≥ 1 per worker."""
        per_size = -(-n // self.spec.chunk_items)  # ceil
        return chunk_ranges(n, max(self._backend.n_jobs, per_size))

    def _request_buffer(self, dtype: np.dtype) -> np.ndarray:
        """The (lazily created) shared-memory request buffer.

        Sized ``(max_batch, n_attributes)`` in the canonical dtype the
        estimator's validation produces, so copying a validated batch
        in is exact.  Created under the buffer lock.
        """
        if self._x_buffer is None:
            assert self._pool is not None
            template = np.zeros(
                (self.spec.max_batch, self.model.n_attributes), dtype=dtype
            )
            self._x_buffer = self._pool.share(template)
        buffer = self._x_buffer.get()
        if buffer.dtype != dtype:  # pragma: no cover - canonical dtype is stable
            raise DataValidationError(
                f"request dtype {dtype} does not match the serving buffer "
                f"({buffer.dtype})"
            )
        return buffer

    def __repr__(self) -> str:
        return (
            f"ModelServer({self.model!r}, backend={self.spec.backend!r}, "
            f"requests={self.requests_served_})"
        )
