"""Streaming MH-K-Modes — the paper's Further Work, implemented.

The paper closes with: "adapting our algorithm to develop an online
streaming clustering framework would be another exciting future
research topic."  The index makes this natural: the expensive part of
assigning an item is gone (shortlists replace full scans), and a new
item can be hashed into the existing buckets in O(bands).

:class:`StreamingMHKModes` works in two phases:

1. **bootstrap** — an ordinary MH-K-Modes fit on an initial batch
   establishes modes and the clustered index, which then takes
   inserts;
2. **streaming** — arriving items are MinHashed, inserted into the
   buckets with their cluster references, and assigned to the nearest
   mode on their shortlists.  Per-cluster per-attribute value counts
   are maintained incrementally (:class:`ClusterModeTracker`: a dense
   tensor for small key spaces, otherwise the sorted layout of
   :class:`~repro.kmodes.counts.ModeCounts` that every fit's mode
   update uses), and modes are refreshed from these counts every
   ``refresh_interval`` arrivals — no pass over past data ever happens
   again.

Two ingest paths share one semantics:

* :meth:`StreamingMHKModes.push` — the paper-shaped per-item loop
  (hash, shortlist, assign, insert, count);
* :meth:`StreamingMHKModes.extend` — the batch pipeline: the whole
  chunk is MinHashed at once (the same
  :meth:`~repro.lsh.minhash.MinHasher.signatures_categorical` kernel
  the fit uses, optionally chunked across a persistent worker pool —
  see :class:`~repro.api.StreamSpec`), shortlists for all rows come
  from one batched index query, assignment runs through the engine's
  vectorised shortlist kernel, and the index absorbs the chunk through
  one amortised :meth:`~repro.lsh.index.BaseClusteredIndex.insert_batch`.
  Intra-chunk dependencies (a row colliding with an *earlier* row of
  the same chunk, whose freshly inserted cluster reference the
  sequential loop would see) are resolved exactly by an ordered
  collision walk over only the rows that share a band key within the
  chunk — labels and refreshed modes are **bit-identical** to the
  sequential ``push()`` loop for every backend and chunk size, which
  ``tests/properties/test_extend_equivalence.py`` asserts.

Items that collide with nothing fall back to a full mode scan (exact,
rare) or can be rejected, per ``stream_fallback``.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.api.model import ClusterModel
from repro.api.protocol import EstimatorProtocol, SpecAttributeSurface
from repro.api.registry import register_estimator
from repro.api.specs import EngineSpec, LSHSpec, StreamSpec, TrainSpec
from repro.core.mh_kmodes import MHKModes
from repro.core.shortlist import best_centroids_full_scan
from repro.engine.backends import resolve_backend
from repro.engine.chunking import chunk_ranges
from repro.engine.parallel import best_shortlisted_centroids
from repro.engine.pool import PersistentPool
from repro.engine.shared import resolve_array
from repro.exceptions import (
    ConfigurationError,
    DataValidationError,
    check_fitted,
)
from repro.kmodes.counts import ModeCounts, raise_best
from repro.lsh.bands import compute_band_keys
from repro.lsh.minhash import MinHasher
from repro.obs import PhaseSpans, traced

__all__ = ["ClusterModeTracker", "StreamingMHKModes"]

#: The batch-ingest pipeline phases, in pipeline order.  Both
#: ``extend_stats_`` (last call) and ``extend_stats_total_``
#: (lifetime) carry exactly these keys.
_EXTEND_PHASES = ("signatures", "shortlist", "walk", "update", "refresh")

#: Cap on dense count-tensor elements (clusters × attributes × value
#: span); larger key spaces count in the sorted layout.
_DENSE_ELEMENT_BUDGET = 16_000_000

#: Rows :meth:`ClusterModeTracker.add` buffers before counting them as
#: one batch: a sorted-layout update costs about as much for one row
#: as for dozens.
_PENDING_ROWS = 64


class ClusterModeTracker:
    """Incremental per-cluster, per-attribute category counts.

    Maintains, for every cluster and attribute, value counts so the
    mode (most frequent value, smallest code on ties) can be read off
    at any time without touching historical items.  The route is chosen
    from the key space, clusters × attributes × value span:

    * within ``_DENSE_ELEMENT_BUDGET`` elements (and non-negative
      codes), counts live in a dense ``(n_clusters, n_attributes,
      span)`` int64 tensor updated by :func:`repro.kernels.count_update`;
      the best value and count of each *(cluster, attribute)* pair come
      from one ``argmax`` at build time and from
      :func:`~repro.kmodes.counts.raise_best` after each batch;
    * any other key space counts in
      :class:`~repro.kmodes.counts.ModeCounts`, the sorted layout
      behind every fit's mode update.  A dense tracker whose codes go
      negative or outgrow the budget moves its counts there once.

    Both routes keep the best value exactly equal to a full argmax at
    all times, so :meth:`modes` is a cached read, and the tie-break is
    that of :func:`repro.kmodes.modes.compute_modes`.  Rows counted one
    at a time by :meth:`add` wait in a buffer of ``_PENDING_ROWS`` and
    are counted as one batch before anything reads the counts.

    Parameters
    ----------
    n_clusters, n_attributes:
        Count tensor extents.
    n_categories:
        Expected category cardinality: the dense tensor's starting
        span (it grows on demand when larger codes arrive; ``None``
        starts small).
    """

    def __init__(
        self,
        n_clusters: int,
        n_attributes: int,
        n_categories: int | None = None,
    ):
        if n_clusters <= 0 or n_attributes <= 0:
            raise ConfigurationError(
                "n_clusters and n_attributes must be positive, got "
                f"{n_clusters} and {n_attributes}"
            )
        if n_categories is not None and n_categories <= 0:
            raise ConfigurationError(
                f"n_categories must be positive, got {n_categories}"
            )
        self.n_clusters = int(n_clusters)
        self.n_attributes = int(n_attributes)
        self.cluster_sizes = np.zeros(n_clusters, dtype=np.int64)
        self._attr_idx = np.arange(n_attributes, dtype=np.int64)
        self._pending = np.empty((_PENDING_ROWS, n_attributes), dtype=np.int64)
        self._pending_labels = np.empty(_PENDING_ROWS, dtype=np.int64)
        self._n_pending = 0
        self._sorted: ModeCounts | None = None
        self._dense: np.ndarray | None = None
        capacity = 16 if n_categories is None else int(n_categories)
        if self._dense_feasible(capacity):
            self._dense = np.zeros(
                (self.n_clusters, self.n_attributes, capacity), dtype=np.int64
            )
            # the dense route's incrementally kept argmax
            self._best_value = np.zeros((n_clusters, n_attributes), np.int64)
            self._best_count = np.zeros((n_clusters, n_attributes), np.int64)
        else:
            self._sorted = ModeCounts(self.n_clusters, self.n_attributes)

    @property
    def storage(self) -> str:
        """The live route: ``'dense'`` or ``'sorted'``."""
        return "dense" if self._dense is not None else "sorted"

    @classmethod
    def from_assignment(
        cls, X: np.ndarray, labels: np.ndarray, n_clusters: int
    ) -> "ClusterModeTracker":
        """Build counts from an existing batch assignment in one pass.

        The dense route scatters the batch and takes one ``argmax``;
        the sorted route sorts every cell once.
        """
        X = np.asarray(X)
        labels = np.asarray(labels, dtype=np.int64)
        span = None
        if X.size and X.dtype.kind in "biu" and X.min() >= 0:
            span = int(X.max()) + 1
        tracker = cls(n_clusters, X.shape[1], n_categories=span)
        tracker._check_batch(X, labels)
        if tracker._dense is None or span is None:
            tracker._count(X, labels)
        else:  # a tensor sized to the batch's codes
            dense = tracker._dense
            kernels.count_update(dense, np.ascontiguousarray(X, np.int64), labels)
            tracker._best_value = dense.argmax(axis=2)
            tracker._best_count = np.take_along_axis(
                dense, tracker._best_value[:, :, None], axis=2
            )[:, :, 0]
        tracker.cluster_sizes += np.bincount(labels, minlength=n_clusters)
        return tracker

    # -- routes ----------------------------------------------------------

    def _dense_feasible(self, capacity: int) -> bool:
        return self.n_clusters * self.n_attributes * capacity <= _DENSE_ELEMENT_BUDGET

    def _to_sorted(self) -> None:
        """Move the dense counts into the sorted layout (one way)."""
        dense = self._dense
        assert dense is not None
        cluster, attribute, value = np.nonzero(dense)
        self._sorted = ModeCounts(self.n_clusters, self.n_attributes)
        self._sorted.add_triples(
            cluster, attribute, value, dense[cluster, attribute, value]
        )
        self._dense = None

    def _fits_dense(self, values: np.ndarray) -> bool:
        """Grow the dense tensor to hold ``values``; False once sorted."""
        if self._dense is None:
            return False
        capacity = self._dense.shape[2]
        high = int(values.max())
        if high < capacity and values.min() >= 0:
            return True
        grown = max(4, capacity)
        while grown <= high:
            grown *= 2
        if values.min() < 0 or not self._dense_feasible(grown):
            self._to_sorted()
            return False
        tensor = np.zeros((self.n_clusters, self.n_attributes, grown), np.int64)
        tensor[:, :, :capacity] = self._dense
        self._dense = tensor
        return True

    def _count(self, values: np.ndarray, labels: np.ndarray) -> None:
        """Count validated rows into whichever route holds the counts."""
        if not len(values):
            return
        values = np.ascontiguousarray(values, dtype=np.int64)
        if not self._fits_dense(values):
            assert self._sorted is not None
            self._sorted.add(values, labels)
            return
        dense = self._dense
        # Scatter-add the batch and gather each cell's final count
        # (compiled when a backend is available; integer adds commute,
        # so every backend is bit-identical).
        new_counts = kernels.count_update(dense, values, labels)
        span = dense.shape[2]
        keys = (labels[:, None] * self.n_attributes + self._attr_idx) * span + values
        keys, first = np.unique(keys, return_index=True)
        pairs = keys // span
        raise_best(
            self._best_value,
            self._best_count,
            pairs,
            keys - pairs * span,
            new_counts.reshape(-1)[first],
        )

    def _flush(self) -> None:
        """Count the rows :meth:`add` buffered."""
        n = self._n_pending
        if n:
            self._n_pending = 0
            self._count(self._pending[:n], self._pending_labels[:n])

    def _best(self) -> tuple[np.ndarray, np.ndarray]:
        self._flush()
        if self._sorted is not None:
            return self._sorted.best_value, self._sorted.best_count
        return self._best_value, self._best_count

    def _check_batch(self, X: np.ndarray, labels: np.ndarray) -> None:
        if X.ndim != 2 or X.shape[1] != self.n_attributes:
            raise DataValidationError(
                f"X must be (n, {self.n_attributes}), got shape {X.shape}"
            )
        if labels.shape != (X.shape[0],):
            raise DataValidationError(
                f"{X.shape[0]} items but {len(labels)} labels"
            )
        if len(labels) and (labels.min() < 0 or labels.max() >= self.n_clusters):
            raise DataValidationError(
                f"cluster {int(labels.min() if labels.min() < 0 else labels.max())} "
                f"outside [0, {self.n_clusters})"
            )

    # -- counting --------------------------------------------------------

    def add(self, item: np.ndarray, cluster: int) -> None:
        """Count one item into ``cluster``."""
        if not 0 <= cluster < self.n_clusters:
            raise DataValidationError(
                f"cluster {cluster} outside [0, {self.n_clusters})"
            )
        values = np.asarray(item, dtype=np.int64)
        if values.ndim != 1 or values.shape[0] != self.n_attributes:
            raise DataValidationError(
                f"item must be 1-D with {self.n_attributes} attributes, "
                f"got shape {values.shape}"
            )
        slot = self._n_pending
        self._pending[slot] = values
        self._pending_labels[slot] = cluster
        self._n_pending = slot + 1
        self.cluster_sizes[cluster] += 1
        if self._n_pending == _PENDING_ROWS:
            self._flush()

    def add_batch(self, X: np.ndarray, labels: np.ndarray) -> None:
        """Count a whole batch at once (order-independent, so identical
        to calling :meth:`add` row by row)."""
        X = np.asarray(X)
        labels = np.asarray(labels, dtype=np.int64)
        self._check_batch(X, labels)
        self._flush()
        self._count(X, labels)
        self.cluster_sizes += np.bincount(labels, minlength=self.n_clusters)

    # -- modes -----------------------------------------------------------

    def mode_of(self, cluster: int, fallback: np.ndarray) -> np.ndarray:
        """Current mode of ``cluster`` (``fallback`` where it is empty)."""
        if not 0 <= cluster < self.n_clusters:
            raise DataValidationError(
                f"cluster {cluster} outside [0, {self.n_clusters})"
            )
        best_value, best_count = self._best()
        out = fallback.copy()
        populated = best_count[cluster] > 0
        out[populated] = best_value[cluster][populated]
        return out

    def modes(self, fallback: np.ndarray) -> np.ndarray:
        """All cluster modes at once — a cached read, not a scan."""
        fallback = np.asarray(fallback)
        if fallback.shape != (self.n_clusters, self.n_attributes):
            raise DataValidationError(
                f"fallback shape {fallback.shape} != "
                f"({self.n_clusters}, {self.n_attributes})"
            )
        best_value, best_count = self._best()
        return np.where(best_count > 0, best_value, fallback).astype(
            fallback.dtype, copy=False
        )


# ----------------------------------------------------------------------
# chunked ingest kernel (module-level so the process backend can
# dispatch it)
# ----------------------------------------------------------------------


@traced("extend.signature_chunk")
def _stream_signature_chunk(static, dynamic, span: tuple[int, int]) -> np.ndarray:
    """Kernel: MinHash one row span of the (possibly shared) arrivals.

    ``static`` pins the hasher and frozen encoding state for the
    pool's lifetime; ``dynamic`` is the arrival matrix — a
    :class:`~repro.engine.shared.SharedArray` request buffer for
    process pools, the array itself for threads.
    """
    hasher, domain, absent = static
    X = resolve_array(dynamic)
    start, stop = span
    return hasher.signatures_categorical(
        X[start:stop], domain_size=domain, absent_code=absent
    )


@register_estimator("streaming-mh-kmodes")
class StreamingMHKModes(SpecAttributeSurface, EstimatorProtocol):
    """Online MH-K-Modes over an unbounded item stream.

    Parameters
    ----------
    n_clusters:
        Number of clusters k.
    lsh, engine, train:
        :class:`~repro.api.LSHSpec` / :class:`~repro.api.EngineSpec` /
        :class:`~repro.api.TrainSpec`, configuring both the bootstrap
        fit and the streaming index (as in :class:`repro.core.MHKModes`).
        With ``train.update_refs='batch'`` the bootstrap runs the
        engine's vectorised batch passes on any backend; every backend
        builds the same insertable
        :class:`~repro.lsh.index.ClusteredLSHIndex`.
    stream:
        :class:`~repro.api.StreamSpec` — how :meth:`extend` batches are
        ingested (hashing backend/workers and the chunk size bounding
        worker tasks and processing segments).  Every setting produces
        labels and modes bit-identical to the sequential :meth:`push`
        loop; parallel backends keep a persistent worker pool alive
        across :meth:`extend` calls (release it with :meth:`close` or
        by using the estimator as a context manager).
    absent_code, domain_size:
        As in :class:`repro.core.MHKModes`.
    refresh_interval:
        Modes are recomputed from the incremental counts after this
        many streamed arrivals (and counts continue to accumulate in
        between).  Smaller = fresher modes, more overhead.
    stream_fallback:
        ``'full'`` — items whose shortlist is empty are assigned by a
        full scan over the modes (exact, rare);
        ``'error'`` — raise instead.  (:meth:`extend` raises *before*
        absorbing any item of the offending chunk segment, where the
        sequential loop would stop mid-stream.)

    Attributes
    ----------
    modes_:
        Current cluster modes.
    n_seen_:
        Total items absorbed (bootstrap + streamed).
    n_fallbacks_:
        Streamed items that needed the full-scan fallback.
    extend_stats_:
        Per-phase wall-clock seconds of the most recent :meth:`extend`
        call (``signatures`` / ``shortlist`` / ``walk`` / ``update`` /
        ``refresh``).

    Examples
    --------
    >>> from repro.api import LSHSpec
    >>> from repro.data import RuleBasedGenerator
    >>> data = RuleBasedGenerator(n_clusters=5, n_attributes=12, seed=0).generate(120)
    >>> stream = StreamingMHKModes(n_clusters=5, lsh=LSHSpec(bands=8, rows=1, seed=0))
    >>> labels = stream.bootstrap(data.X[:80]).extend(data.X[80:])
    >>> len(labels)
    40
    """

    _accepts_specs = True
    _default_lsh = LSHSpec(family="minhash", bands=20, rows=5)
    _default_engine = EngineSpec()
    _default_train = TrainSpec()
    _default_stream = StreamSpec()

    def __init__(
        self,
        n_clusters: int,
        lsh: LSHSpec | dict | None = None,
        engine: EngineSpec | dict | None = None,
        train: TrainSpec | dict | None = None,
        stream: StreamSpec | dict | None = None,
        absent_code: int | None = None,
        domain_size: int | None = None,
        refresh_interval: int = 200,
        stream_fallback: str = "full",
    ):
        # set_params re-runs __init__ on a live object: release any
        # worker pool the previous configuration had opened.
        existing_pool = getattr(self, "_stream_pool", None)
        if existing_pool is not None:
            existing_pool.close()
        lsh = LSHSpec.coerce(lsh, "lsh", self._default_lsh)
        engine = EngineSpec.coerce(engine, "engine", self._default_engine)
        train = TrainSpec.coerce(train, "train", self._default_train)
        stream = StreamSpec.coerce(stream, "stream", self._default_stream)
        if n_clusters <= 0:
            raise ConfigurationError(f"n_clusters must be positive, got {n_clusters}")
        if lsh.family != "minhash":
            raise ConfigurationError(
                f"StreamingMHKModes supports the 'minhash' family only, "
                f"got {lsh.family!r}"
            )
        if refresh_interval <= 0:
            raise ConfigurationError(
                f"refresh_interval must be positive, got {refresh_interval}"
            )
        if stream_fallback not in ("full", "error"):
            raise ConfigurationError(
                f"stream_fallback must be 'full' or 'error', got {stream_fallback!r}"
            )
        self.n_clusters = int(n_clusters)
        self.lsh = lsh
        self.engine = engine
        self.train = train
        self.stream = stream
        self.absent_code = absent_code
        self.domain_size = domain_size
        self.refresh_interval = int(refresh_interval)
        self.stream_fallback = stream_fallback

        self._bootstrap_model: MHKModes | None = None
        self._hasher: MinHasher | None = None
        self._tracker: ClusterModeTracker | None = None
        self._fitted_domain: int | None = None
        self._since_refresh = 0
        self._modes: np.ndarray | None = None
        self._stream_pool: PersistentPool | None = None
        self._stream_backend = None
        self.n_seen_: int = 0
        self.n_fallbacks_: int = 0
        self.extend_stats_: dict[str, float] = {}
        self._extend_totals: dict[str, float] = dict.fromkeys(
            _EXTEND_PHASES, 0.0
        )

    # The spec attribute views (bands/rows/seed/backend/...) come from
    # SpecAttributeSurface; update_refs stays the raw spec value here
    # because resolution happens inside the bootstrap fit.

    def _is_fitted(self) -> bool:
        return self._bootstrap_model is not None

    @property
    def modes_(self) -> np.ndarray:
        """Current cluster modes."""
        check_fitted(self)
        return self._modes

    # ------------------------------------------------------------------
    # ingest-pool lifecycle
    # ------------------------------------------------------------------

    def __enter__(self) -> "StreamingMHKModes":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Release the streaming worker pool (idempotent).

        Only parallel :class:`~repro.api.StreamSpec` backends ever open
        one; serial streaming needs no cleanup.
        """
        if self._stream_pool is not None:
            self._stream_pool.close()
            self._stream_pool = None
            self._stream_backend = None

    def _ensure_stream_pool(self) -> PersistentPool:
        if self._stream_pool is None:
            backend = resolve_backend(self.stream.backend, self.stream.n_jobs)
            self._stream_backend = backend
            self._stream_pool = PersistentPool(
                backend,
                static=(self._hasher, self._fitted_domain, self.absent_code),
                metrics=True,  # ship process-worker kernel spans home
            )
        return self._stream_pool

    # ------------------------------------------------------------------
    # phase 1: bootstrap
    # ------------------------------------------------------------------

    def bootstrap(self, X: np.ndarray, initial_centroids: np.ndarray | None = None):
        """Fit the initial batch and build the insertable index."""
        self.close()  # a re-bootstrap invalidates the pool's pinned state
        model = MHKModes(
            n_clusters=self.n_clusters,
            lsh=self.lsh,
            engine=self.engine,
            train=self.train,
            absent_code=self.absent_code,
            domain_size=self.domain_size,
        )
        model.fit(X, initial_centroids=initial_centroids)
        assert model.labels_ is not None and model.centroids_ is not None
        assert model.index_ is not None
        self._bootstrap_model = model
        self._hasher = model._hasher
        self._fitted_domain = (
            self.domain_size
            if self.domain_size is not None
            else model._fitted_domain_size
        )
        self._tracker = ClusterModeTracker.from_assignment(
            np.asarray(X), model.labels_, self.n_clusters
        )
        self._modes = model.centroids_.copy()
        self.n_seen_ = len(X)
        self._since_refresh = 0
        self.n_fallbacks_ = 0
        self.extend_stats_ = {}
        self._extend_totals = dict.fromkeys(_EXTEND_PHASES, 0.0)
        return self

    # ------------------------------------------------------------------
    # phase 2: streaming
    # ------------------------------------------------------------------

    def push(self, item: np.ndarray) -> int:
        """Absorb one arriving item; returns its assigned cluster.

        The paper-shaped sequential path — and the reference semantics
        :meth:`extend` is pinned to, bit for bit.
        """
        check_fitted(self)
        assert (
            self._bootstrap_model is not None
            and self._hasher is not None
            and self._tracker is not None
            and self._modes is not None
        )
        item = np.asarray(item)
        if item.ndim != 1 or item.shape[0] != self._modes.shape[1]:
            raise DataValidationError(
                f"item must be 1-D with {self._modes.shape[1]} attributes, "
                f"got shape {item.shape}"
            )
        index = self._bootstrap_model.index_
        assert index is not None

        signature = self._hasher.signatures_categorical(
            item[None, :],
            domain_size=self._fitted_domain,
            absent_code=self.absent_code,
        )
        # banded once, for the query and the insert
        keys = compute_band_keys(signature, index.bands, index.rows)
        shortlist = index._clusters_for_keys(keys)
        if shortlist.size == 0:
            self._require_stream_fallback()
            self.n_fallbacks_ += 1
            shortlist = np.arange(self.n_clusters, dtype=np.int64)
        distances = np.count_nonzero(
            self._modes[shortlist] != item[None, :], axis=1
        )
        cluster = int(shortlist[np.argmin(distances)])

        index.insert_batch(signature, np.array([cluster]), band_keys=keys)
        self._tracker.add(item, cluster)
        self.n_seen_ += 1
        self._since_refresh += 1
        if self._since_refresh >= self.refresh_interval:
            self.refresh_modes()
        return cluster

    def extend(self, X: np.ndarray) -> np.ndarray:
        """Absorb a batch of arrivals; returns their cluster labels.

        The batch ingest pipeline (see the module docstring): one
        MinHash pass over the whole chunk — routed through the
        :class:`~repro.api.StreamSpec` worker pool on parallel
        backends — one batched shortlist query, the vectorised
        assignment kernel, an ordered collision walk for rows that
        share a band key within the chunk, one amortised
        ``insert_batch`` and one batched count update (compiled via
        :mod:`repro.kernels` on the tracker's dense route) per
        processing segment.  Segments are bounded by
        ``stream.chunk_items`` *and* by the next mode-refresh boundary,
        so labels and refreshed modes are bit-identical to calling
        :meth:`push` on every row in order — for any chunk size and
        any backend.

        Per-phase wall-clock timings of the call land in
        :attr:`extend_stats_` (the *last* call's snapshot — it is reset
        at each entry); lifetime cumulative totals accumulate in
        :attr:`extend_stats_total_`.  Each phase is also emitted as an
        ``"extend.<phase>"`` span (see :mod:`repro.obs`), so the same
        numbers reach the metrics registry and the trace stream.
        """
        check_fitted(self)
        assert self._modes is not None
        X = np.asarray(X)
        if X.ndim != 2:
            raise DataValidationError(f"X must be 2-D, got ndim={X.ndim}")
        if X.shape[1] != self._modes.shape[1]:
            raise DataValidationError(
                f"items must have {self._modes.shape[1]} attributes, "
                f"got {X.shape[1]}"
            )
        stats = dict.fromkeys(_EXTEND_PHASES, 0.0)
        self.extend_stats_ = stats
        phases = PhaseSpans(
            "extend", totals=stats, on_phase=self._accumulate_extend_total
        )
        n = X.shape[0]
        if n == 0:
            return np.empty(0, dtype=np.int64)
        if not np.issubdtype(X.dtype, np.integer):
            raise DataValidationError(
                f"X must hold integer category codes, got dtype {X.dtype}"
            )
        X = np.ascontiguousarray(X, dtype=np.int64)
        with phases.span("signatures", rows=n, kernels=kernels.active_backend()):
            signatures = self._batch_signatures(X)

        labels = np.empty(n, dtype=np.int64)
        position = 0
        while position < n:
            segment = min(
                n - position,
                self.stream.chunk_items,
                self.refresh_interval - self._since_refresh,
            )
            window = slice(position, position + segment)
            labels[window] = self._extend_segment(
                X[window], signatures[window], phases
            )
            position += segment
        return labels

    def _accumulate_extend_total(self, name: str, seconds: float) -> None:
        self._extend_totals[name] = (
            self._extend_totals.get(name, 0.0) + seconds
        )

    @property
    def extend_stats_total_(self) -> dict[str, float]:
        """Cumulative per-phase :meth:`extend` seconds since bootstrap.

        :attr:`extend_stats_` is overwritten by every :meth:`extend`
        call (it snapshots the last call only); this dict keeps the
        running totals across all calls — the number a long-running
        ingest loop wants.  Keys are exactly the pipeline phases
        (``signatures``/``shortlist``/``walk``/``update``/``refresh``),
        present from construction with 0.0 values.  Reset by
        :meth:`bootstrap`.
        """
        return dict(self._extend_totals)

    def _batch_signatures(self, X: np.ndarray) -> np.ndarray:
        """Signatures of a whole arrival batch (pool-chunked if parallel)."""
        assert self._hasher is not None
        if self.stream.backend == "serial":
            return self._hasher.signatures_categorical(
                X, domain_size=self._fitted_domain, absent_code=self.absent_code
            )
        pool = self._ensure_stream_pool()
        backend = self._stream_backend
        assert backend is not None
        per_chunk = -(-X.shape[0] // self.stream.chunk_items)  # ceil
        spans = chunk_ranges(X.shape[0], max(backend.n_jobs, per_chunk))
        # One shared-memory request buffer per call for process pools
        # (zero-copy wrapping for threads), released before returning.
        x_ref = backend.share_array(X)
        try:
            chunks = pool.run(_stream_signature_chunk, spans, dynamic=x_ref)
        finally:
            x_ref.release()
        return np.concatenate(chunks)

    def _require_stream_fallback(self) -> None:
        if self.stream_fallback == "error":
            raise ConfigurationError(
                "streamed item collided with nothing and "
                "stream_fallback='error'"
            )

    def _extend_segment(
        self, X_seg: np.ndarray, signatures: np.ndarray, phases: PhaseSpans
    ) -> np.ndarray:
        """Ingest one segment exactly as the push loop would.

        Shortlists against the pre-segment index state are batched;
        the only sequential dependency — a row colliding with an
        earlier row of the *same* segment, whose freshly assigned
        cluster the push loop would see in its shortlist — is resolved
        by an ordered walk over just the rows that share a band key
        inside the segment.
        """
        model = self._bootstrap_model
        assert model is not None and self._tracker is not None
        index = model.index_
        assert index is not None
        modes = self._modes
        assert modes is not None
        count = len(X_seg)

        with phases.span("shortlist", rows=count):
            keys = compute_band_keys(signatures, index.bands, index.rows)
            indptr, base_clusters = index.shortlists_for_signatures(
                signatures, band_keys=keys
            )
            lengths = np.diff(indptr)
            base_label = np.full(count, -1, dtype=np.int64)
            base_dist = np.full(count, np.inf, dtype=np.float64)
            filled = np.flatnonzero(lengths > 0)
            if filled.size:
                best_l, best_d = best_shortlisted_centroids(
                    model, X_seg[filled], base_clusters, lengths[filled], modes
                )
                base_label[filled] = best_l
                base_dist[filled] = best_d

        with phases.span("walk", rows=count):
            labels, fallbacks = self._resolve_segment_labels(
                X_seg, keys, lengths, base_label, base_dist, modes, model
            )

        with phases.span("update", rows=count):
            self._tracker.add_batch(X_seg, labels)
            index.insert_batch(signatures, labels, band_keys=keys)
        self.n_seen_ += count
        self.n_fallbacks_ += fallbacks
        self._since_refresh += count
        if self._since_refresh >= self.refresh_interval:
            with phases.span("refresh"):
                self.refresh_modes()
        return labels

    def _resolve_segment_labels(
        self,
        X_seg: np.ndarray,
        keys: np.ndarray,
        lengths: np.ndarray,
        base_label: np.ndarray,
        base_dist: np.ndarray,
        modes: np.ndarray,
        model,
    ) -> tuple[np.ndarray, int]:
        """Final labels for one segment (vectorised + collision walk)."""
        count = len(X_seg)
        bands = keys.shape[1]
        # Rows sharing a band key with another row of this segment are
        # the only ones whose shortlist the push loop would have grown
        # with intra-segment insertions.  One sort of every band's keys
        # finds them: a sorted key equal to a neighbour is duplicated.
        order = np.argsort(keys, axis=0)
        sorted_keys = np.take_along_axis(keys, order, axis=0)
        repeat = sorted_keys[1:] == sorted_keys[:-1]
        duplicated = np.zeros(keys.shape, dtype=bool)
        duplicated[1:] = repeat
        duplicated[:-1] |= repeat
        colliding = np.zeros(count, dtype=bool)
        colliding[order[duplicated]] = True
        duplicated_keys = [
            set(sorted_keys[duplicated[:, j], j].tolist()) for j in range(bands)
        ]

        labels = np.empty(count, dtype=np.int64)
        fallbacks = 0
        plain = ~colliding
        plain_filled = np.flatnonzero(plain & (lengths > 0))
        labels[plain_filled] = base_label[plain_filled]
        plain_empty = np.flatnonzero(plain & (lengths == 0))
        if plain_empty.size:
            self._require_stream_fallback()
            fb_labels, _ = best_centroids_full_scan(
                model, X_seg[plain_empty], modes
            )
            labels[plain_empty] = fb_labels
            fallbacks += int(plain_empty.size)

        if np.any(colliding):
            # per band: duplicated key -> labels of earlier walked rows
            seen: list[dict[int, set[int]]] = [dict() for _ in range(bands)]
            for r in np.flatnonzero(colliding).tolist():
                row_keys = keys[r]
                extras: set[int] = set()
                for j in range(bands):
                    got = seen[j].get(int(row_keys[j]))
                    if got:
                        extras |= got
                if extras:
                    extra_arr = np.fromiter(
                        extras, dtype=np.int64, count=len(extras)
                    )
                    extra_arr.sort()
                    extra_d = np.count_nonzero(
                        modes[extra_arr] != X_seg[r][None, :], axis=1
                    )
                    best_pos = int(np.argmin(extra_d))
                    candidate = (float(extra_d[best_pos]), int(extra_arr[best_pos]))
                    if lengths[r]:
                        base = (float(base_dist[r]), int(base_label[r]))
                        label = candidate[1] if candidate < base else base[1]
                    else:
                        label = candidate[1]
                elif lengths[r]:
                    label = int(base_label[r])
                else:
                    self._require_stream_fallback()
                    scan = np.count_nonzero(
                        modes != X_seg[r][None, :], axis=1
                    )
                    label = int(np.argmin(scan))
                    fallbacks += 1
                labels[r] = label
                for j in range(bands):
                    key = int(row_keys[j])
                    if key in duplicated_keys[j]:
                        seen[j].setdefault(key, set()).add(label)
        return labels, fallbacks

    def refresh_modes(self) -> None:
        """Recompute modes from the incremental counts."""
        check_fitted(self)
        assert self._tracker is not None and self._modes is not None
        self._modes = self._tracker.modes(self._modes)
        self._since_refresh = 0

    # ------------------------------------------------------------------

    @property
    def cluster_sizes_(self) -> np.ndarray:
        """Items absorbed per cluster (bootstrap + streamed)."""
        check_fitted(self)
        assert self._tracker is not None
        return self._tracker.cluster_sizes.copy()

    def fitted_model(self) -> ClusterModel:
        """Export the current state as an immutable serving artifact.

        The artifact is an ``'mh-kmodes'`` :class:`~repro.api.ClusterModel`
        carrying the *current* modes and the live index — bootstrap
        items and every streamed arrival included — so a reconstructed
        model predicts exactly like this stream would assign (minus the
        insertion side effects, which belong to training).
        """
        check_fitted(self)
        assert self._bootstrap_model is not None and self._modes is not None
        index = self._bootstrap_model.index_
        state = {
            "cost": float("nan"),
            "n_iter": int(self._bootstrap_model.n_iter_),
            "converged": bool(self._bootstrap_model.converged_),
            "n_seen": int(self.n_seen_),
            "n_fallbacks": int(self.n_fallbacks_),
        }
        if self._fitted_domain is not None:
            state["fitted_domain_size"] = int(self._fitted_domain)
        return ClusterModel(
            algorithm="mh-kmodes",
            n_clusters=self.n_clusters,
            centroids=self._modes,
            lsh=self.lsh,
            engine=self.engine,
            train=self.train,
            labels=index.assignments,
            band_keys=index.band_keys,
            assignments=index.assignments,
            params={"absent_code": self.absent_code, "domain_size": self.domain_size},
            state=state,
            metadata=self._artifact_metadata(),
        )
