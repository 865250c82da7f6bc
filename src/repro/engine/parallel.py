"""The clustering engine: every fit phase, one worker session.

:class:`ClusteringEngine` is the object
:class:`~repro.core.framework.BaseLSHAcceleratedClustering` delegates
its phases to.  A fit opens **one** :class:`EngineFitSession` (and,
on parallel backends, exactly one worker pool) that lives from the
exhaustive setup pass to the last iteration:

* **exhaustive assignment** (setup) — row chunks through the model's
  own ``_exhaustive_assign`` kernel, merged by concatenation;
* **signatures** — row chunks through ``_signatures`` after the model
  has frozen any data-dependent encoding state (``_prepare_signatures``
  runs at session open, *before* process workers snapshot the model);
* **index build** — in-process on every backend, into the one
  :class:`~repro.lsh.index.ClusteredLSHIndex` layout;
* **assignment passes** — the per-iteration hot loop.

Bulky state crosses into workers exactly once.  The item matrix rides
the session's static payload (copy-on-write under ``fork``, a
:mod:`multiprocessing.shared_memory` segment under ``spawn``); state
created *after* the pool opened — the flattened neighbour CSR —
always travels as shared-memory handles inside the small per-task
``dynamic`` tuples (see :mod:`repro.engine.shared`).

Semantics: with ``update_refs='online'`` the serial backend runs the
paper's exact per-item pass (reassignments visible to later items in
the same pass).  With ``update_refs='batch'`` **every** backend —
serial included — runs the vectorised batch pass: per chunk, the
ragged shortlists are built with one segmented ``np.unique`` over
``group * k + label`` keys off the index's group-level neighbour CSR
(items with identical band keys share one neighbour list *and* one
shortlist), padded into a dense block, and scored with the model's
``_block_distances`` kernel.  Tie-breaking replicates the per-item rule (keep the current
cluster whenever it is at least as close as the best candidate; first
minimum wins among the sorted shortlist), so a batch pass partitions
into chunks without changing any per-item decision — labels are
identical for any chunking and any backend, which the
backend-equivalence tests assert exactly.
"""

from __future__ import annotations

import numpy as np

from repro.engine.backends import ExecutionBackend, resolve_backend
from repro.engine.chunking import chunk_ranges, iter_blocks
from repro.engine.pool import PersistentPool
from repro.engine.shared import SharedArray, resolve_array
from repro.exceptions import ConfigurationError
from repro.obs import span as trace_span
from repro.obs import traced
from repro.lsh.index import ClusteredLSHIndex

__all__ = ["ClusteringEngine", "backend_from_spec", "resolve_engine"]

#: Rough element budget for one padded ``(rows, smax, m)`` distance
#: tensor inside a chunk worker; blocks are sliced to stay under it.
_BLOCK_ELEMENT_BUDGET = 4_000_000

#: Items handled per vectorised sub-block before memory capping.
_BLOCK_ITEMS = 1024


# ----------------------------------------------------------------------
# kernels (module-level so the process backend can dispatch them)
# ----------------------------------------------------------------------


@traced("fit.exhaustive_chunk")
def _exhaustive_chunk(
    static: tuple, dynamic: tuple, span: tuple[int, int]
) -> np.ndarray:
    """Exhaustively assign one row span (labels chunk only)."""
    model, x_ref = static
    X = resolve_array(x_ref)
    (centroids, labels) = dynamic
    start, stop = span
    chunk_labels, _ = model._exhaustive_assign(
        X[start:stop], centroids, labels[start:stop]
    )
    return chunk_labels


@traced("fit.signature_chunk")
def _signature_chunk(static: tuple, dynamic: None, span: tuple[int, int]) -> np.ndarray:
    """Signatures of one row span (encoding state already frozen)."""
    model, x_ref = static
    X = resolve_array(x_ref)
    start, stop = span
    return model._signatures(X[start:stop])


def best_shortlisted_centroids(
    model,
    block: np.ndarray,
    candidates: np.ndarray,
    sizes: np.ndarray,
    centroids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """First-minimum centroid per row over ragged candidate lists.

    ``candidates`` concatenates each row's (non-empty, sorted) centroid
    shortlist; ``sizes`` holds the per-row lengths.  The ragged lists
    are padded into dense per-block ``(rows, smax)`` tiles, scored with
    the model's vectorised ``_block_distances`` kernel in memory-capped
    row slices, and reduced with a masked argmin.  Because every
    shortlist is sorted, the first minimum is the smallest-id centroid
    among the ties — exactly what a per-row ``np.argmin`` over the same
    shortlist would pick.

    When the size distribution is skewed (a few huge shortlists among
    many tiny ones — typical for novel items hitting the predict
    fallback neighbourhoods), rows are processed in size-sorted order
    so each tile pads only to *its own* maximum, instead of every row
    paying for the global one.  Results are per-row and therefore
    identical under any processing order.

    Returns ``(best_label, best_distance)`` per row.
    """
    count, m = block.shape
    smax = int(sizes.max())
    offsets = np.zeros(count, dtype=np.int64)
    np.cumsum(sizes[:-1], out=offsets[1:])

    # Size-sort only when padding to the global smax would inflate the
    # scored elements noticeably; unskewed inputs keep row order (and
    # the argsort off the hot per-iteration pass).
    skewed = smax * count >= 2 * len(candidates)
    order = np.argsort(sizes, kind="stable") if skewed else None

    best_label = np.empty(count, dtype=np.int64)
    best_distance = np.empty(count, dtype=np.float64)
    for c0, c1 in iter_blocks(0, count, _BLOCK_ITEMS):
        chunk_sel = order[c0:c1] if skewed else slice(c0, c1)
        chunk_smax = int(sizes[chunk_sel].max())
        rows_at_once = max(1, _BLOCK_ELEMENT_BUDGET // max(1, chunk_smax * m))
        for r0, r1 in iter_blocks(c0, c1, rows_at_once):
            rows_sel = order[r0:r1] if skewed else slice(r0, r1)
            take = r1 - r0
            tile_sizes = sizes[rows_sel]
            tile_smax = int(tile_sizes.max())
            flat = int(tile_sizes.sum())
            row_ids = np.repeat(np.arange(take, dtype=np.int64), tile_sizes)
            starts = np.zeros(take, dtype=np.int64)
            np.cumsum(tile_sizes[:-1], out=starts[1:])
            positions = np.arange(flat, dtype=np.int64) - np.repeat(
                starts, tile_sizes
            )
            flat_idx = np.repeat(offsets[rows_sel], tile_sizes) + positions
            padded = np.zeros((take, tile_smax), dtype=np.int64)
            valid = np.zeros((take, tile_smax), dtype=bool)
            padded[row_ids, positions] = candidates[flat_idx]
            valid[row_ids, positions] = True

            distances = np.asarray(
                model._block_distances(block[rows_sel], centroids[padded]),
                dtype=np.float64,
            )
            distances[~valid] = np.inf
            rows = np.arange(take)
            best_pos = np.argmin(distances, axis=1)
            best_distance[rows_sel] = distances[rows, best_pos]
            best_label[rows_sel] = padded[rows, best_pos]
    return best_label, best_distance


@traced("fit.assignment_chunk")
def _assignment_chunk(
    static: tuple, dynamic: tuple, span: tuple[int, int]
) -> tuple[np.ndarray, int, int, int]:
    """One chunk of a batch assignment pass.

    Returns ``(new_labels_chunk, moves, shortlist_total, shortlist_max)``;
    the session merges chunks in task order.
    """
    model, x_ref = static
    X = resolve_array(x_ref)
    centroids, labels, (group_of_ref, indptr_ref, indices_ref) = dynamic
    group_of = resolve_array(group_of_ref)
    group_indptr = resolve_array(indptr_ref)
    group_indices = resolve_array(indices_ref)
    start, stop = span
    k = int(model.n_clusters)

    # --- group shortlists, once per chunk.  Items with identical
    # band-key rows share one neighbour list, and labels are frozen for
    # the whole pass, so their shortlists are identical too: the
    # segmented ``np.unique`` runs over the chunk's *distinct* groups.
    # Keys ``group * k + label`` sort by group first, then ascending
    # label, reproducing each item's per-item np.unique exactly — and
    # duplicate-heavy data (many identical rows, one giant group) costs
    # O(one neighbour list), not O(items × list).
    span_groups = group_of[start:stop]
    chunk_groups, local_group = np.unique(span_groups, return_inverse=True)
    lengths = group_indptr[chunk_groups + 1] - group_indptr[chunk_groups]
    total = int(lengths.sum())
    flat_starts = np.zeros(len(chunk_groups), dtype=np.int64)
    np.cumsum(lengths[:-1], out=flat_starts[1:])
    bases = np.repeat(group_indptr[chunk_groups], lengths)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(flat_starts, lengths)
    members = group_indices[bases + offsets]
    owner = np.repeat(np.arange(len(chunk_groups), dtype=np.int64), lengths)
    uniq = np.unique(owner * k + labels[members])
    u_owner = uniq // k
    u_label = uniq - u_owner * k
    group_sizes = np.bincount(u_owner, minlength=len(chunk_groups))
    group_starts = np.zeros(len(chunk_groups), dtype=np.int64)
    np.cumsum(group_sizes[:-1], out=group_starts[1:])

    out = np.empty(stop - start, dtype=np.int64)
    moves = 0
    shortlist_total = 0
    shortlist_max = 0
    for lo, hi in iter_blocks(start, stop, _BLOCK_ITEMS):
        block_groups = local_group[lo - start : hi - start]
        sizes = group_sizes[block_groups]
        # gather every item's (sorted) shortlist from its group's run
        flat = int(sizes.sum())
        row_starts = np.zeros(hi - lo, dtype=np.int64)
        np.cumsum(sizes[:-1], out=row_starts[1:])
        candidate_offsets = (
            np.arange(flat, dtype=np.int64) - np.repeat(row_starts, sizes)
        )
        candidates = u_label[
            np.repeat(group_starts[block_groups], sizes) + candidate_offsets
        ]

        block = X[lo:hi]
        current = labels[lo:hi]
        current_distance = model._block_distances(
            block, centroids[current[:, None]]
        )[:, 0]
        best_label, best_distance = best_shortlisted_centroids(
            model, block, candidates, sizes, centroids
        )
        keep = current_distance <= best_distance
        out[lo - start : hi - start] = np.where(keep, current, best_label)
        moves += int(np.count_nonzero(~keep))
        shortlist_total += int(sizes.sum())
        shortlist_max = max(shortlist_max, int(sizes.max()))
    return out, moves, shortlist_total, shortlist_max


# ----------------------------------------------------------------------
# neighbour CSR expansion
# ----------------------------------------------------------------------


def _pass_neighbour_csr(
    index: ClusteredLSHIndex, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(group_of, indptr, indices)`` CSR the batch kernels walk.

    Precomputed neighbours come straight from the index's group-level
    storage (:meth:`~repro.lsh.index.BaseClusteredIndex.neighbour_csr`)
    — zero copies, and the grouping's O(n) guarantee on
    duplicate-heavy data carries into the batch pass.  Without
    precomputation the lists are materialised once per fit with
    identity groups.
    """
    csr = index.neighbour_csr() if index.precompute_neighbours else None
    if csr is not None:
        return csr
    per_item = [index.candidate_items(i) for i in range(n)]
    lengths = np.fromiter((len(nb) for nb in per_item), dtype=np.int64, count=n)
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    indices = np.concatenate(per_item) if n else np.empty(0, dtype=np.int64)
    return np.arange(n, dtype=np.int64), indptr, indices


# ----------------------------------------------------------------------
# fit sessions
# ----------------------------------------------------------------------


def _build_index(
    model, signatures: np.ndarray, labels: np.ndarray
) -> ClusteredLSHIndex:
    """The fit's clustered index, built in-process on any backend."""
    return ClusteredLSHIndex(
        model.bands,
        model.rows,
        precompute_neighbours=model.precompute_neighbours,
    ).build(signatures, labels)


class _SerialFitSession:
    """In-process fit session: the model's own kernels, zero overhead.

    The assignment loop honours ``update_refs``: ``'online'`` runs the
    paper's per-item pass unchanged; ``'batch'`` runs the vectorised
    chunk kernel on the full span (identical labels, far fewer Python
    dispatches).  Tests can pin ``model._force_per_item_pass = True``
    to keep the per-item batch pass as an equivalence reference.
    """

    #: Pool spin-up cost; zero by construction for the serial session.
    open_s = 0.0

    def __init__(self, model, X: np.ndarray):
        self._model = model
        self._X = X
        self._index: ClusteredLSHIndex | None = None
        self._csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __enter__(self) -> "_SerialFitSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def exhaustive_assign(
        self, centroids: np.ndarray, labels: np.ndarray
    ) -> tuple[np.ndarray, int]:
        return self._model._exhaustive_assign(self._X, centroids, labels)

    def compute_signatures(self) -> np.ndarray:
        return self._model._signatures(self._X)

    def build_index(
        self, signatures: np.ndarray, labels: np.ndarray
    ) -> ClusteredLSHIndex:
        self._index = _build_index(self._model, signatures, labels)
        return self._index

    def run_pass(self, centroids, labels, accumulator) -> tuple[np.ndarray, int]:
        model = self._model
        assert self._index is not None, "build_index must run before passes"
        if model.update_refs == "online" or getattr(
            model, "_force_per_item_pass", False
        ):
            return model._shortlist_pass(
                self._X, centroids, labels, self._index, accumulator
            )
        if self._csr is None:
            self._csr = _pass_neighbour_csr(self._index, self._X.shape[0])
        n = self._X.shape[0]
        out, moves, total, smax = _assignment_chunk(
            (model, self._X), (centroids, labels, self._csr), (0, n)
        )
        accumulator.add_many(total, n, smax)
        self._index.set_assignments(out)
        return out, moves

    def close(self) -> None:
        pass


class _ParallelFitSession:
    """One worker pool serving every phase of one fit.

    Opening the session spins up the backend's workers exactly once
    (``open_s`` records the cost); the item matrix is pinned as static
    session state, and everything computed later — the per-item
    neighbour CSR — reaches the workers through
    :class:`~repro.engine.shared.SharedArray` handles riding the small
    per-task ``dynamic`` tuples.
    """

    def __init__(self, backend: ExecutionBackend, model, X: np.ndarray):
        self._model = model
        self._X = X
        self._n = X.shape[0]
        self._backend = backend
        # Freeze data-dependent encoding state (e.g. the inferred token
        # domain) on the FULL matrix before workers snapshot the model,
        # so a chunk's local statistics can never change the encoding.
        model._prepare_signatures(X)
        pre_handles: tuple[SharedArray, ...] = ()
        if backend.inherits_static:
            x_ref = SharedArray.wrap(X)
        else:
            # spawn workers must not receive the matrix through the
            # initializer pickle; hand it over in shared memory.  The
            # pool adopts the segment, releasing it even when opening
            # the session fails.
            x_ref = backend.share_array(X)
            pre_handles = (x_ref,)
        # span-reported pool spin-up: the same Timer reading the old
        # code published, now also visible in the metrics registry.
        with trace_span("fit.session_open", backend=backend.name) as open_span:
            self._pool = PersistentPool(
                backend,
                (model, x_ref),
                handles=pre_handles,
                metrics=True,  # ship process-worker kernel spans home
            )
        self.open_s = open_span.wall_s
        self._index: ClusteredLSHIndex | None = None
        self._csr_refs: tuple[SharedArray, SharedArray, SharedArray] | None = None

    def __enter__(self) -> "_ParallelFitSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _share(self, array: np.ndarray) -> SharedArray:
        return self._pool.share(array)

    def exhaustive_assign(
        self, centroids: np.ndarray, labels: np.ndarray
    ) -> tuple[np.ndarray, int]:
        spans = chunk_ranges(self._n, self._backend.n_jobs)
        chunks = self._pool.run(
            _exhaustive_chunk, spans, dynamic=(centroids, labels)
        )
        new_labels = np.concatenate(chunks)
        moves = int(np.count_nonzero(new_labels != labels))
        return new_labels, moves

    def compute_signatures(self) -> np.ndarray:
        spans = chunk_ranges(self._n, self._backend.n_jobs)
        return np.concatenate(self._pool.run(_signature_chunk, spans))

    def build_index(
        self, signatures: np.ndarray, labels: np.ndarray
    ) -> ClusteredLSHIndex:
        # In the parent, as a serial fit: the workers only ever read
        # the neighbour CSR the index yields.
        self._index = _build_index(self._model, signatures, labels)
        return self._index

    def run_pass(self, centroids, labels, accumulator) -> tuple[np.ndarray, int]:
        assert self._index is not None, "build_index must run before passes"
        if self._csr_refs is None:
            group_of, indptr, indices = _pass_neighbour_csr(self._index, self._n)
            self._csr_refs = (
                self._share(group_of),
                self._share(indptr),
                self._share(indices),
            )
        spans = chunk_ranges(self._n, self._backend.n_jobs)
        results = self._pool.run(
            _assignment_chunk, spans, dynamic=(centroids, labels, self._csr_refs)
        )
        new_labels = np.concatenate([chunk for chunk, _, _, _ in results])
        moves = sum(chunk_moves for _, chunk_moves, _, _ in results)
        accumulator.add_many(
            sum(total for _, _, total, _ in results),
            self._n,
            max(chunk_max for _, _, _, chunk_max in results),
        )
        self._index.set_assignments(new_labels)
        return new_labels, moves

    def close(self) -> None:
        self._pool.close()


EngineFitSession = _SerialFitSession | _ParallelFitSession


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------


class ClusteringEngine:
    """Executes the phases of one fit on a chosen backend.

    Parameters
    ----------
    backend:
        Where kernels run; see :mod:`repro.engine.backends`.
    """

    def __init__(self, backend: ExecutionBackend):
        self.backend = backend

    @property
    def is_parallel(self) -> bool:
        return self.backend.is_parallel

    def fit_session(self, model, X: np.ndarray) -> EngineFitSession:
        """Open the one session serving every phase of this fit.

        Use as a context manager; on parallel backends the worker pool
        (and any shared-memory segments) lives exactly as long as the
        session.
        """
        if not self.is_parallel:
            return _SerialFitSession(model, X)
        return _ParallelFitSession(self.backend, model, X)


def backend_from_spec(spec) -> ExecutionBackend:
    """Build the :class:`ExecutionBackend` an ``EngineSpec`` describes."""
    if spec.backend == "process" and spec.start_method is not None:
        from repro.engine.backends import ProcessBackend

        return ProcessBackend(spec.n_jobs, start_method=spec.start_method)
    return resolve_backend(spec.backend, spec.n_jobs)


def resolve_engine(backend, n_jobs: int | None = None) -> ClusteringEngine:
    """Build a :class:`ClusteringEngine` from estimator parameters.

    ``backend`` may be an :class:`~repro.api.EngineSpec` (the spec
    fully describes the engine; ``n_jobs`` must then stay unset), a
    backend name, or a pre-built
    :class:`~repro.engine.backends.ExecutionBackend`.
    """
    from repro.api.specs import EngineSpec

    if isinstance(backend, EngineSpec):
        if n_jobs is not None:
            raise ConfigurationError(
                "when resolving an EngineSpec, n_jobs comes from the "
                "spec; do not pass it separately"
            )
        return ClusteringEngine(backend_from_spec(backend))
    return ClusteringEngine(resolve_backend(backend, n_jobs))
