"""The clustering engine: every fit phase, one worker session.

:meth:`~repro.core.framework.BaseLSHAcceleratedClustering.fit` opens
**one** :class:`FitSession`, and with it exactly one
:class:`~repro.engine.pool.PersistentPool`, that lives from the
exhaustive setup pass to the last iteration.  Every backend takes the
same path: each phase maps a module-level chunk kernel over the
session's item spans, and on ``serial`` the pool runs that kernel
in-process over the one span ``(0, n)``.  The phases:

* **exhaustive assignment** (setup) — row chunks through the model's
  own ``_exhaustive_assign`` kernel, merged by concatenation;
* **signatures** — row chunks through ``_signatures`` after the model
  has frozen any data-dependent encoding state (``_prepare_signatures``
  runs at session open, *before* process workers snapshot the model).
  Each chunk is banded where it was hashed and returns its
  ``(n, bands)`` bucket keys, not its ``(n, bands * rows)``
  signatures, so the signature matrix never reaches the parent;
* **index build** — in-process on every backend, from those keys into
  the one :class:`~repro.lsh.index.ClusteredLSHIndex` layout;
* **assignment passes** — the per-iteration hot loop.

The session owns the fit's neighbour lists: ``build_index`` builds
them once, right after the index, from its band keys with
:func:`~repro.lsh.index.grouped_neighbour_csr` (buckets do not change
during a fit, so this is part of the indexing setup), every pass walks
them, and they go when the session closes.  The index never stores
them.

Bulky state crosses into workers exactly once.  The item matrix rides
the session's static payload (copy-on-write under ``fork``, a
:mod:`multiprocessing.shared_memory` segment under ``spawn``); state
created *after* the pool opened — the flattened neighbour CSR —
always travels as :class:`~repro.engine.shared.SharedArray` handles
(zero-copy in-process, shared memory for process pools) inside the
small per-task ``dynamic`` tuples.

Semantics: with ``update_refs='online'`` (serial only) the session
runs the paper's exact per-item pass in-process (reassignments visible
to later items in the same pass).  With ``update_refs='batch'``
**every** backend runs the vectorised batch pass: per chunk, the
ragged shortlists are built with one segmented sort
(:func:`~repro.sorting.sorted_unique`) over ``group * k + label`` keys
off the session's group-level neighbour CSR (items with identical band
keys share one neighbour list *and* one shortlist), padded into a dense
block, and scored with the model's ``_block_distances`` kernel.
Tie-breaking replicates the per-item rule (keep the current cluster
whenever it is at least as close as the best candidate; first minimum
wins among the sorted shortlist), so a batch pass partitions into
chunks without changing any per-item decision — labels are identical
for any chunking and any backend, which the backend-equivalence tests
assert exactly.

From the second batch pass on, a session rescores only what can
change.  It keeps references to the centroids and labels the previous
pass was given and marks a neighbour group *dirty* when an item of its
list changed label or sits in a cluster whose centroid row changed
(:func:`dirty_groups`; the session reads the CSR through the handles
it shares, and the mask rides in the pass's ``dynamic`` tuple).  Every
group's shortlist is still built, so shortlist totals are those of a
full pass, but only dirty groups' items are scored.  This is exact: a
clean item kept its label in the previous pass against the same
shortlist and the same centroid rows, and it is in its own list, so
had it moved its group would be dirty.
"""

from __future__ import annotations

import numpy as np

from repro.engine.backends import ExecutionBackend
from repro.engine.chunking import chunk_ranges, iter_blocks
from repro.engine.pool import PersistentPool
from repro.engine.shared import SharedArray, resolve_array
from repro.obs import span as trace_span
from repro.obs import traced
from repro.lsh.bands import compute_band_keys
from repro.lsh.index import ClusteredLSHIndex, grouped_neighbour_csr
from repro.sorting import sorted_unique

__all__ = ["FitSession", "dirty_groups"]

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
    """The ``(rows, bands)`` bucket keys of one row span (encoding state
    already frozen)."""
    model, x_ref = static
    start, stop = span
    signatures = model._signatures(resolve_array(x_ref)[start:stop])
    return compute_band_keys(signatures, model.bands, model.rows)


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


def dirty_groups(
    csr: tuple[np.ndarray, np.ndarray, np.ndarray],
    labels: np.ndarray,
    previous_labels: np.ndarray,
    centroids: np.ndarray,
    previous_centroids: np.ndarray,
) -> np.ndarray:
    """Which neighbour-list groups a batch pass must rescore.

    ``labels`` and ``centroids`` are what this pass is given, the
    ``previous_*`` arrays what the pass before it was given.  A group is
    dirty when an item of its list changed label or sits in a cluster
    whose centroid row changed (the module docstring says why every
    other group keeps its labels).  Returns one bool per group of
    ``csr``.
    """
    _, indptr, indices = csr
    changed = labels != previous_labels
    changed |= np.any(centroids != previous_centroids, axis=1)[labels]
    # every group's list holds at least its own items, so no run is empty
    return np.logical_or.reduceat(changed[indices], indptr[:-1])


@traced("fit.assignment_chunk")
def _assignment_chunk(
    static: tuple, dynamic: tuple, span: tuple[int, int]
) -> tuple[np.ndarray, int, int]:
    """One chunk of a batch assignment pass.

    ``dynamic`` is ``(centroids, labels, csr)`` or ``(centroids, labels,
    csr, dirty)``: with a :func:`dirty_groups` mask only the items of
    dirty groups are scored and every other item keeps its label;
    without one (or with ``None``) every item is scored.  Shortlist
    sizes are counted for every item either way.

    Returns ``(new_labels_chunk, moves, shortlist_total)``; the session
    merges chunks in task order.
    """
    model, x_ref = static
    X = resolve_array(x_ref)
    centroids, labels, (group_of_ref, indptr_ref, indices_ref), *rest = dynamic
    dirty = rest[0] if rest else None
    group_of = resolve_array(group_of_ref)
    group_indptr = resolve_array(indptr_ref)
    group_indices = resolve_array(indices_ref)
    start, stop = span
    k = int(model.n_clusters)

    # --- group shortlists, once per chunk.  Items with identical
    # band-key rows share one neighbour list, and labels are frozen for
    # the whole pass, so their shortlists are identical too: the
    # segmented sort runs over the chunk's *distinct* groups.  Keys
    # ``group * k + label`` sort by group first, then ascending label,
    # reproducing each item's per-item np.unique exactly — and
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
    uniq = sorted_unique(owner * k + labels[members])
    u_owner = uniq // k
    u_label = uniq - u_owner * k
    group_sizes = np.bincount(u_owner, minlength=len(chunk_groups))
    group_starts = np.zeros(len(chunk_groups), dtype=np.int64)
    np.cumsum(group_sizes[:-1], out=group_starts[1:])
    shortlist_total = int(group_sizes[local_group].sum())

    out = labels[start:stop].copy()
    scored = None if dirty is None else np.flatnonzero(dirty[span_groups])
    count = stop - start if scored is None else len(scored)
    moves = 0
    for lo, hi in iter_blocks(0, count, _BLOCK_ITEMS):
        rows = slice(lo, hi) if scored is None else scored[lo:hi]
        block_groups = local_group[rows]
        sizes = group_sizes[block_groups]
        # gather every item's (sorted) shortlist from its group's run
        flat = int(sizes.sum())
        row_starts = np.zeros(len(sizes), dtype=np.int64)
        np.cumsum(sizes[:-1], out=row_starts[1:])
        candidate_offsets = (
            np.arange(flat, dtype=np.int64) - np.repeat(row_starts, sizes)
        )
        candidates = u_label[
            np.repeat(group_starts[block_groups], sizes) + candidate_offsets
        ]

        block = X[start + lo : start + hi] if scored is None else X[start + rows]
        current = out[rows]
        current_distance = model._block_distances(
            block, centroids[current[:, None]]
        )[:, 0]
        best_label, best_distance = best_shortlisted_centroids(
            model, block, candidates, sizes, centroids
        )
        keep = current_distance <= best_distance
        out[rows] = np.where(keep, current, best_label)
        moves += int(np.count_nonzero(~keep))
    return out, moves, shortlist_total


# ----------------------------------------------------------------------
# the fit session
# ----------------------------------------------------------------------


def _joined(chunks: list[np.ndarray]) -> np.ndarray:
    """Chunk results in task order as one array; a lone chunk as it is."""
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


class _DirtyTracker:
    """The arrays the previous batch pass was given, for :func:`dirty_groups`.

    It keeps references, not copies: a fit hands every pass new label
    and centroid arrays and never writes into one it has handed over.
    The same object twice might have been written in place, so that
    pass, like the first, scores every item.
    """

    def __init__(self) -> None:
        self._previous: tuple[np.ndarray, np.ndarray] | None = None

    def mask(self, csr, centroids: np.ndarray, labels: np.ndarray) -> np.ndarray | None:
        previous, self._previous = self._previous, (centroids, labels)
        if previous is None or previous[0] is centroids or previous[1] is labels:
            return None
        return dirty_groups(csr, labels, previous[1], centroids, previous[0])


class FitSession:
    """One pool serving every phase of one fit, on any backend.

    Opening the session spins up the backend's workers exactly once
    (``open_s`` records the cost; on ``serial`` it is pool bookkeeping
    only); the item matrix is pinned as static session state, and
    everything computed later — the neighbour CSR — reaches the workers
    through :class:`~repro.engine.shared.SharedArray` handles riding the
    small per-task ``dynamic`` tuples.  Use as a context manager: the
    pool (and any shared-memory segments) lives exactly as long as the
    session.

    Passes honour ``update_refs``: ``'online'`` runs the paper's
    per-item pass (``model._shortlist_pass``) in-process; ``'batch'``
    maps the vectorised chunk kernel over the spans.  Tests can pin
    ``model._force_per_item_pass = True`` to keep the per-item batch
    pass as an equivalence reference.
    """

    def __init__(self, backend: ExecutionBackend, model, X: np.ndarray):
        self._model = model
        self._X = X
        # a serial backend's n_jobs has no effect: one in-process span
        workers = backend.n_jobs if backend.is_parallel else 1
        self._spans = chunk_ranges(X.shape[0], workers)
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
        self._dirty = _DirtyTracker()

    def __enter__(self) -> "FitSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def exhaustive_assign(self, centroids: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Labels after one exhaustive pass against every centroid."""
        return _joined(
            self._pool.run(_exhaustive_chunk, self._spans, dynamic=(centroids, labels))
        )

    def band_keys(self) -> np.ndarray:
        """The ``(n, bands)`` bucket keys, banded where they were hashed."""
        return _joined(self._pool.run(_signature_chunk, self._spans))

    def build_index(
        self, band_keys: np.ndarray, labels: np.ndarray
    ) -> ClusteredLSHIndex:
        """The fit's index and its neighbour lists, built in-process."""
        model = self._model
        self._index = ClusteredLSHIndex.from_band_keys(
            model.bands, model.rows, band_keys, labels
        )
        self._csr_refs = tuple(
            self._pool.share(part)
            for part in grouped_neighbour_csr(self._index.band_keys)
        )
        return self._index

    def run_pass(
        self, centroids: np.ndarray, labels: np.ndarray
    ) -> tuple[np.ndarray, int, int]:
        """One assignment pass: ``(labels, moves, shortlist_total)``."""
        assert self._index is not None, "build_index must run before passes"
        model = self._model
        csr = tuple(ref.get() for ref in self._csr_refs)
        if model.update_refs == "online" or getattr(
            model, "_force_per_item_pass", False
        ):
            return model._shortlist_pass(self._X, centroids, labels, self._index, csr)
        dirty = self._dirty.mask(csr, centroids, labels)
        results = self._pool.run(
            _assignment_chunk,
            self._spans,
            dynamic=(centroids, labels, self._csr_refs, dirty),
        )
        new_labels = _joined([chunk for chunk, _, _ in results])
        self._index.set_assignments(new_labels)
        moves = sum(chunk_moves for _, chunk_moves, _ in results)
        return new_labels, moves, sum(total for _, _, total in results)

    def close(self) -> None:
        with trace_span("fit.session_close", backend=self._pool.backend.name):
            self._pool.close()
        self._csr_refs = None
