"""The clustered LSH index of Algorithm 2.

This is the data structure at the heart of the paper's framework: a
banded LSH index over *items* in which every item carries a mutable
reference to the cluster it is currently assigned to.

Build phase (run once, after centroid initialisation):

1. every item's signature is banded into ``b`` bucket keys;
2. the index stores the key rows and the cluster references.  Item
   neighbour lists (the union of an item's buckets' members) are not
   stored: a fit, where buckets never change, builds them once with
   :func:`grouped_neighbour_csr` — one flat CSR pair (``indptr``,
   ``indices``) per *group* of items with identical band-key rows,
   gathered from the buckets that two or more groups share.  Items of
   one group occupy exactly the same buckets and share one list, which
   collapses the pathological case of many identical (or empty) token
   sets from O(n²) to O(n) work and memory, and the flat layout keeps
   the per-iteration hot loop free of Python-object traffic.

Query phase (run once per item per iteration):

* :meth:`BaseClusteredIndex.candidate_clusters` returns the distinct
  clusters currently holding the item's neighbours.  This is the
  paper's *shortlist* (a fit reads the same clusters off its neighbour
  lists).  Because an item always collides with itself, the shortlist
  always contains the item's own current cluster.

Update phase (after each reassignment):

* :meth:`BaseClusteredIndex.update_assignment` rewrites one slot of
  the assignment array — the O(1) "update the cluster reference" step
  the paper highlights.

Bucket layout.  Buckets live in flat sorted arrays, not hash tables.
Every ``(item, band)`` entry is sorted by its key value into *runs*,
one per distinct value across all bands, so one ``searchsorted`` per
segment over a batch's sorted keys (every row × every band) finds all
its buckets.  Key values are band-seeded 64-bit hashes: the same value
in two bands is astronomically rare but possible, so a run member
counts as a hit only where its own key in the queried band is the
query key.  That check keeps the bands exactly disjoint, as the paper
requires.

Growth is LSM-style.  Inserted items wait in a *tail* of fewer than
:data:`TAIL_ITEMS` items, which queries scan directly; then they are
sorted into a small *delta* segment, which is merged into the *main*
segment once it holds more than ``max(4096, main entries / 8)``
entries.  Main, delta and the tail's start are published as one
immutable snapshot, so a reader sees all of an update or none of it.
The snapshot is built on the first query that needs it or at
:meth:`~BaseClusteredIndex.freeze`; a fit, which walks its own
neighbour lists, never builds it.

:class:`BaseClusteredIndex` owns this whole surface — item storage,
queries, assignment updates, insertion and statistics;
:class:`ClusteredLSHIndex` adds the two ways to build one.  Every fit,
restore, stream and server builds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.exceptions import ConfigurationError, DataValidationError, NotFittedError
from repro.lsh.bands import compute_band_keys, validate_bands_rows
from repro.sorting import run_starts, sorted_unique

__all__ = [
    "BaseClusteredIndex",
    "ClusteredLSHIndex",
    "IndexStats",
    "TAIL_ITEMS",
    "grouped_neighbour_csr",
]

#: Inserted items a query scans directly before they are sorted into
#: the delta segment.  Folding costs O(delta), so this amortises it
#: over single-item inserts.
TAIL_ITEMS = 64
#: The delta is merged into the main segment once it holds more than
#: ``max(_MIN_DELTA, main entries // _DELTA_RATIO)`` entries, so a
#: merge (O(main)) is amortised over O(main) inserted entries.
_MIN_DELTA = 4096
_DELTA_RATIO = 8


@dataclass(frozen=True)
class IndexStats:
    """Summary statistics of a built index (useful for diagnostics).

    Attributes
    ----------
    n_items:
        Number of indexed items.
    bands, rows:
        Banding parameters.
    n_buckets:
        Total number of non-empty buckets across all bands.
    mean_bucket_size:
        Average number of items per bucket.
    max_bucket_size:
        Size of the fullest bucket.
    """

    n_items: int
    bands: int
    rows: int
    n_buckets: int
    mean_bucket_size: float
    max_bucket_size: int


# ----------------------------------------------------------------------
# build machinery
# ----------------------------------------------------------------------


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + l)`` over every ``(s, l)`` pair."""
    total = int(lengths.sum())
    if total == len(starts):  # every range holds one value
        return starts
    return np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(
        total, dtype=np.int64
    )


def _bucket_runs(column: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(order, starts, lengths)`` of one band's keys sorted into runs."""
    order = np.argsort(column)
    starts = run_starts(column[order])
    return order, starts, np.diff(starts, append=len(column))


def _row_groups(
    band_keys: np.ndarray, first_runs: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> tuple[np.ndarray, int]:
    """``(group_of, n_groups)``: equal key rows share a group id.

    Ids are the lexicographic ranks of the distinct rows, the numbering
    of ``np.unique(band_keys, axis=0, return_inverse=True)``.  A row
    whose band-0 key no other row holds is a distinct row by itself;
    only the rows of shared band-0 runs (``first_runs``) are compared
    whole.  Distinct rows of the two kinds never share a band-0 key, so
    a row's rank is its rank among its own kind plus the number of rows
    of the other kind with a smaller band-0 key.
    """
    order, starts, lengths = first_runs
    alone = lengths == 1
    alone_rows = order[starts[alone]]
    alone_keys = band_keys[alone_rows, 0]  # ascending: band 0's sort order
    group_of = np.empty(len(band_keys), dtype=np.int64)
    shared_rows = order[_ranges(starts[~alone], lengths[~alone])]
    # np.unique(rows, axis=0, return_inverse=True) from one lexsort: a
    # structured-dtype sort is ~35x slower on duplicate-heavy rows.
    rows = band_keys[shared_rows]
    row_order = np.lexsort(rows.T[::-1])  # band 0 is the primary key
    rows = rows[row_order]
    new_row = np.ones(len(rows), dtype=bool)
    new_row[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    shared_inverse = np.empty(len(rows), dtype=np.int64)
    shared_inverse[row_order] = np.cumsum(new_row) - 1
    shared_keys = rows[new_row, 0]
    rank = np.arange(len(shared_keys), dtype=np.int64)
    group_of[shared_rows] = (rank + np.searchsorted(alone_keys, shared_keys))[
        shared_inverse
    ]
    rank = np.arange(len(alone_keys), dtype=np.int64)
    group_of[alone_rows] = rank + np.searchsorted(shared_keys, alone_keys)
    return group_of, len(alone_keys) + len(shared_keys)


def grouped_neighbour_csr(
    band_keys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every item's neighbour list as ``(group_of, indptr, indices)``.

    Items with identical band-key rows form one group and share one
    list; item ``i``'s sorted distinct neighbours (itself included)
    are ``indices[indptr[group_of[i]]:indptr[group_of[i] + 1]]``.
    Groups are numbered by the lexicographic rank of their key row.
    The rows are grouped off band 0's sort, which the lists need
    anyway: only rows that share their band-0 key with another row are
    compared whole (one ``np.lexsort``), so keys with few repeated rows
    cost one sort, while duplicate-heavy keys pay a lexsort of most
    rows.

    Only buckets shared by two or more groups add anything beyond a
    group's own members, so the lists are gathered from those alone:
    per band, one sort of the keys into bucket runs; every distinct
    group of a run that holds several groups takes that run's members;
    a single sort of ``group * n + member`` keys deduplicates and
    orders the lot.  A run's members are expanded once per distinct
    group in it, never once per member, so a bucket of many identical
    rows costs O(its size), not O(size²).
    """
    n = len(band_keys)
    first_runs = _bucket_runs(band_keys[:, 0])
    group_of, n_groups = _row_groups(band_keys, first_runs)
    group_parts = [group_of]
    member_parts = [np.arange(n, dtype=np.int64)]
    for band in range(band_keys.shape[1]):
        order, starts, lengths = (
            first_runs if band == 0 else _bucket_runs(band_keys[:, band])
        )
        shared = np.flatnonzero(lengths > 1)
        if not len(shared):
            continue
        # (run, group) for every distinct group of every shared run
        entries = _ranges(starts[shared], lengths[shared])
        entry_run = np.repeat(np.arange(len(shared), dtype=np.int64), lengths[shared])
        pairs = sorted_unique(entry_run * n_groups + group_of[order[entries]])
        pair_run = pairs // n_groups
        # a run of one group adds nothing to that group's own members
        mixed = np.bincount(pair_run, minlength=len(shared))[pair_run] > 1
        if not mixed.any():
            continue
        pair_run = pair_run[mixed]
        run = shared[pair_run]
        member_parts.append(order[_ranges(starts[run], lengths[run])])
        group_parts.append(np.repeat(pairs[mixed] - pair_run * n_groups, lengths[run]))
    groups = np.concatenate(group_parts)
    uniq = sorted_unique(groups * n + np.concatenate(member_parts))
    u_group = uniq // n
    indptr = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(np.bincount(u_group, minlength=n_groups), out=indptr[1:])
    return group_of, indptr, uniq - u_group * n


# ----------------------------------------------------------------------
# sorted bucket segments
# ----------------------------------------------------------------------


class _Segment(NamedTuple):
    """Bucket runs over all bands: one run per distinct key value.

    ``members[starts[u]:starts[u + 1]]`` are the items holding key
    ``keys[u]`` in some band; which band is checked at lookup.
    """

    keys: np.ndarray  # (runs,) uint64, ascending and distinct
    starts: np.ndarray  # (runs + 1,) int64
    members: np.ndarray  # (entries,) int64


class _Buckets(NamedTuple):
    """One published state: items ``[0, covered)`` are in a segment,
    the rest (the tail) are scanned directly."""

    main: _Segment
    delta: _Segment
    covered: int


_NONE = np.empty(0, dtype=np.int64)
_EMPTY = _Segment(np.empty(0, dtype=np.uint64), np.zeros(1, dtype=np.int64), _NONE)


def _segment(keys: np.ndarray, members: np.ndarray) -> _Segment:
    """The runs of (at least one) ``(key, member)`` entries sorted by key."""
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1], [True])))
    return _Segment(keys[starts[:-1]], starts, members)


def _sorted_entries(
    block: np.ndarray, first_item: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(key, item)`` entries of consecutive items' key rows, by key."""
    flat = block.ravel()
    order = np.argsort(flat)
    return flat[order], first_item + order // block.shape[1]


def _merged(segment: _Segment, keys: np.ndarray, members: np.ndarray) -> _Segment:
    """``segment`` plus sorted entries of items newer than all of its own."""
    old_keys = np.repeat(segment.keys, np.diff(segment.starts))
    at = old_keys.searchsorted(keys, side="right")
    return _segment(np.insert(old_keys, at, keys), np.insert(segment.members, at, members))


def _run_entries(
    segment: _Segment, queries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(query, member)`` for every entry of every run a query hits.

    Sorted ``queries`` let the search narrow from one key to the next.
    """
    keys = segment.keys
    pos = keys.searchsorted(queries)
    found = np.flatnonzero(keys.take(pos, mode="clip") == queries)
    if not len(found):
        return found, found
    run = pos[found]
    first = segment.starts[run]
    lengths = segment.starts[run + 1] - first
    entries = _ranges(first, lengths)
    if len(entries) > len(found):
        found = np.repeat(found, lengths)
    return found, segment.members[entries]


# ----------------------------------------------------------------------
# the index surface
# ----------------------------------------------------------------------


class BaseClusteredIndex:
    """The clustered index: item storage, queries, inserts and updates.

    Item storage uses amortised doubling buffers: band keys and
    assignments live in capacity arrays trimmed to the logical item
    count, so a stream of :meth:`insert` calls costs O(1) amortised
    per item instead of the O(n) reallocation a ``vstack`` per insert
    would pay.  The buckets are the sorted segments described in the
    module docstring; :class:`ClusteredLSHIndex` builds the index.
    """

    def __init__(self, bands: int, rows: int):
        validate_bands_rows(bands, rows)
        self.bands = int(bands)
        self.rows = int(rows)
        self._keys_buf: np.ndarray | None = None  # (capacity, bands) uint64
        self._assign_buf: np.ndarray | None = None  # (capacity,) int64
        self._n = 0
        self._read_only = False
        self._state: _Buckets | None = None  # built on first use

    # -- shared build plumbing -------------------------------------------

    @staticmethod
    def _validated_assignments(
        n_rows: int, assignments: np.ndarray, what: str
    ) -> np.ndarray:
        assignments = np.asarray(assignments)
        if assignments.ndim != 1:
            raise DataValidationError(
                f"assignments must be 1-D, got ndim={assignments.ndim}"
            )
        if len(assignments) != n_rows:
            raise DataValidationError(
                f"{n_rows} {what} but {len(assignments)} assignments"
            )
        if n_rows == 0:
            raise DataValidationError("cannot build an index over zero items")
        return assignments

    def _finalise(self, band_keys: np.ndarray, assignments: np.ndarray) -> None:
        """Store a freshly built key matrix and its cluster references."""
        self._keys_buf = np.ascontiguousarray(band_keys, dtype=np.uint64)
        self._assign_buf = assignments.astype(np.int64).copy()
        self._n = len(band_keys)
        self._state = None

    # -- the bucket segments ---------------------------------------------

    def _buckets(self) -> _Buckets:
        """The published bucket state, built from every item on first use."""
        state = self._state
        if state is None:
            assert self._keys_buf is not None
            main = _segment(*_sorted_entries(self._keys_buf[: self._n], 0))
            state = self._state = _Buckets(main, _EMPTY, self._n)
        return state

    def _fold_tail(self, limit: int) -> None:
        """Sort a tail of at least ``limit`` items into the delta.

        A delta that outgrows the main segment is merged into it in
        the same step; the new state is published in one assignment.
        """
        state = self._state
        if state is None or self._n - state.covered < limit:
            return
        assert self._keys_buf is not None
        tail = _sorted_entries(self._keys_buf[state.covered : self._n], state.covered)
        main, delta = state.main, _merged(state.delta, *tail)
        if len(delta.members) > max(_MIN_DELTA, len(main.members) // _DELTA_RATIO):
            delta_keys = np.repeat(delta.keys, np.diff(delta.starts))
            main, delta = _merged(main, delta_keys, delta.members), _EMPTY
        self._state = _Buckets(main, delta, self._n)

    def _hits(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(row, member)`` for every item sharing a bucket with a query row.

        ``keys`` is a ``(rows, bands)`` key matrix.  A member repeats
        within a row once per band it matches in; callers deduplicate.
        """
        state = self._buckets()
        stored = self._keys_buf
        assert stored is not None
        flat = keys.ravel()  # query q is row q // bands, band q % bands
        order = np.argsort(flat) if len(keys) > 1 else None
        queries = flat if order is None else flat[order]
        parts = [
            _run_entries(segment, queries)
            for segment in (state.main, state.delta)
            if len(segment.members)
        ]
        parts = [part for part in parts if len(part[0])]
        rows: list[np.ndarray] = []
        members: list[np.ndarray] = []
        if parts:
            query, member = (
                parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
            )
            if order is not None:
                query = order[query]
            row, band = np.divmod(query, self.bands)
            hit = stored[member, band] == flat[query]  # the band check
            rows.append(row[hit])
            members.append(member[hit])
        if state.covered < self._n:
            tail = stored[state.covered : self._n]
            row, item, _ = np.nonzero(keys[:, None, :] == tail)
            rows.append(row)
            members.append(item + state.covered)
        if len(members) < 2:
            return (rows[0], members[0]) if members else (_NONE, _NONE)
        return np.concatenate(rows), np.concatenate(members)

    # -- queries ---------------------------------------------------------

    def candidate_items(self, item: int) -> np.ndarray:
        """All items sharing at least one bucket with ``item`` (incl. itself)."""
        self._check_built()
        assert self._keys_buf is not None
        return sorted_unique(self._hits(self._keys_buf[item][None, :])[1])

    def candidate_clusters(self, item: int) -> np.ndarray:
        """The paper's shortlist: distinct clusters of the item's neighbours."""
        self._check_built()
        assert self._assign_buf is not None
        return sorted_unique(self._assign_buf[: self._n][self.candidate_items(item)])

    def candidate_clusters_for_signature(self, signature: np.ndarray) -> np.ndarray:
        """Shortlist for a *novel* (un-indexed) signature.

        Used at predict time for unseen items.  Unlike
        :meth:`candidate_clusters`, the result may be empty if the new
        signature collides with nothing.
        """
        self._check_built()
        signature = np.asarray(signature)
        if signature.ndim == 1:
            signature = signature[None, :]
        return self._clusters_for_keys(
            compute_band_keys(signature, self.bands, self.rows)[:1]
        )

    def _clusters_for_keys(self, keys: np.ndarray) -> np.ndarray:
        """Sorted distinct clusters sharing a bucket with one ``(1, bands)``
        key row (the caller may reuse the keys for an insert)."""
        assert self._assign_buf is not None
        members = self._hits(keys)[1]
        if not len(members):
            return np.empty(0, dtype=np.int64)
        return sorted_unique(self._assign_buf[members])

    def shortlists_for_signatures(
        self, signatures: np.ndarray | None, band_keys: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`candidate_clusters_for_signature` as a CSR pair.

        Band keys for every query row are computed in one call, all
        rows' buckets are found with one search over the sorted
        segments, and the per-row deduplication runs as a single
        segmented sort over the whole batch.

        Parameters
        ----------
        signatures:
            ``(n_rows, bands * rows)`` signature matrix of the queries.
        band_keys:
            Optional precomputed ``(n_rows, bands)`` key matrix of the
            same signatures, as :meth:`insert_batch` takes it (callers
            that band a chunk for its insert skip the rehash).

        Returns ``(indptr, clusters)``: row ``r``'s sorted distinct
        candidate clusters are ``clusters[indptr[r]:indptr[r + 1]]``
        (an empty slice where the row collides with nothing) —
        row for row identical to the per-signature method.
        """
        self._check_built()
        assert self._assign_buf is not None
        if band_keys is None:
            signatures = np.asarray(signatures)
            if signatures.ndim != 2:
                raise DataValidationError(
                    f"signatures must be 2-D, got ndim={signatures.ndim}"
                )
            band_keys = compute_band_keys(signatures, self.bands, self.rows)
        keys = np.asarray(band_keys, dtype=np.uint64)
        if keys.ndim != 2 or keys.shape[1] != self.bands:
            raise DataValidationError(
                f"band_keys must be (n_rows, {self.bands}), got shape {keys.shape}"
            )
        n_rows = len(keys)
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        if n_rows == 0:
            return indptr, np.empty(0, dtype=np.int64)
        rows_idx, members = self._hits(keys)
        if not len(members):
            return indptr, np.empty(0, dtype=np.int64)
        clusters = self._assign_buf[members]
        low = int(clusters.min())
        span = int(clusters.max()) - low + 1
        uniq = sorted_unique(rows_idx * span + (clusters - low))
        u_row = uniq // span
        u_cluster = uniq - u_row * span + low
        counts = np.bincount(u_row, minlength=n_rows)
        np.cumsum(counts, out=indptr[1:])
        return indptr, u_cluster

    # -- read-only query mode (serving) ----------------------------------

    @property
    def read_only(self) -> bool:
        """Whether the index is frozen for concurrent read-only queries."""
        return self._read_only

    def freeze(self) -> "BaseClusteredIndex":
        """Switch the built index into read-only query mode (idempotent).

        A frozen index rejects every mutation — :meth:`insert`,
        :meth:`update_assignment`, :meth:`set_assignments`,
        :meth:`assignments_view` — and marks its item buffers
        non-writable, so any number of threads (or forked serving
        workers) can query it concurrently without a lock.  Freezing
        builds the bucket segments and folds in the tail, so no query
        ever builds or publishes state, and forked workers share the
        segments copy-on-write.  This is the mode
        :class:`repro.serve.ModelServer` rebuilds persisted indexes
        into; training always works on unfrozen indexes.
        """
        self._check_built()
        if self._read_only:
            return self
        assert self._keys_buf is not None and self._assign_buf is not None
        self._buckets()
        self._fold_tail(1)
        # Trim the growth buffers to the logical item count so the
        # frozen views are exact, then seal them.
        self._keys_buf = self._keys_buf[: self._n]
        self._assign_buf = self._assign_buf[: self._n]
        self._keys_buf.setflags(write=False)
        self._assign_buf.setflags(write=False)
        self._read_only = True
        return self

    def _check_mutable(self, what: str) -> None:
        if self._read_only:
            raise ConfigurationError(
                f"{what} is not available on a frozen index; this index "
                "is in read-only query mode (see freeze())"
            )

    # -- incremental insertion (streaming extension) ---------------------

    def insert(self, signature: np.ndarray, cluster: int) -> int:
        """Add one new item to the index and return its item id.

        Supports the streaming extension (the paper's Further Work):
        late-arriving items are hashed into the existing buckets with
        their cluster reference, making them visible to subsequent
        queries.  Band keys and assignments grow through amortised
        doubling buffers; the item joins the directly scanned tail,
        which is sorted into the delta segment every
        :data:`TAIL_ITEMS` items.

        Parameters
        ----------
        signature:
            ``(bands * rows,)`` signature of the new item.
        cluster:
            The cluster reference to store for it.
        """
        self._check_built()
        self._check_mutable("insert")
        assert self._keys_buf is not None and self._assign_buf is not None
        signature = np.asarray(signature)
        if signature.ndim != 1:
            raise DataValidationError(
                f"signature must be 1-D, got ndim={signature.ndim}"
            )
        keys = compute_band_keys(signature[None, :], self.bands, self.rows)[0]
        item = self._n
        self._ensure_item_capacity(item + 1)
        self._keys_buf[item] = keys
        self._assign_buf[item] = np.int64(cluster)
        self._n = item + 1
        self._fold_tail(TAIL_ITEMS)
        return item

    def insert_batch(
        self,
        signatures: np.ndarray,
        clusters: np.ndarray,
        band_keys: np.ndarray | None = None,
    ) -> np.ndarray:
        """Add a whole chunk of new items at once; returns their item ids.

        Row-for-row equivalent to calling :meth:`insert` on each
        ``(signature, cluster)`` pair in order, but amortised: band
        keys for the chunk are computed in **one**
        :func:`~repro.lsh.bands.compute_band_keys` call, the doubling
        buffers grow to the final size in one step, and the chunk's
        entries are sorted once and merged into the delta segment as
        a whole.  This is the bulk-ingest path of the streaming
        extension.

        Parameters
        ----------
        signatures:
            ``(n_new, bands * rows)`` signature matrix of the arrivals.
        clusters:
            ``(n_new,)`` cluster reference per arrival.
        band_keys:
            Optional precomputed ``(n_new, bands)`` key matrix for the
            same signatures (callers that already banded the chunk —
            the streaming collision walk does — skip the rehash).
        """
        self._check_built()
        self._check_mutable("insert_batch")
        assert self._keys_buf is not None and self._assign_buf is not None
        clusters = np.asarray(clusters, dtype=np.int64)
        if clusters.ndim != 1:
            raise DataValidationError(
                f"clusters must be 1-D, got ndim={clusters.ndim}"
            )
        if band_keys is None:
            signatures = np.asarray(signatures)
            if signatures.ndim != 2:
                raise DataValidationError(
                    f"signatures must be 2-D, got ndim={signatures.ndim}"
                )
            if len(signatures) != len(clusters):
                raise DataValidationError(
                    f"{len(signatures)} signatures but {len(clusters)} clusters"
                )
            if len(clusters) == 0:
                return np.empty(0, dtype=np.int64)
            keys = compute_band_keys(signatures, self.bands, self.rows)
        else:
            keys = np.asarray(band_keys, dtype=np.uint64)
            if keys.ndim != 2 or keys.shape[1] != self.bands:
                raise DataValidationError(
                    f"band_keys must be (n_new, {self.bands}), got shape "
                    f"{keys.shape}"
                )
            if len(keys) != len(clusters):
                raise DataValidationError(
                    f"{len(keys)} key rows but {len(clusters)} clusters"
                )
            if len(clusters) == 0:
                return np.empty(0, dtype=np.int64)
        n_new = len(clusters)
        start = self._n
        items = np.arange(start, start + n_new, dtype=np.int64)
        self._ensure_item_capacity(start + n_new)
        self._keys_buf[start : start + n_new] = keys
        self._assign_buf[start : start + n_new] = clusters
        self._n = start + n_new
        self._fold_tail(TAIL_ITEMS)
        return items

    def _ensure_item_capacity(self, target: int) -> None:
        """Grow the doubling item buffers to hold ``target`` items."""
        assert self._keys_buf is not None and self._assign_buf is not None
        capacity = len(self._keys_buf)
        if target <= capacity:
            return
        new_capacity = max(4, capacity)
        while new_capacity < target:
            new_capacity *= 2
        used = self._n
        keys_buf = np.empty((new_capacity, self.bands), dtype=np.uint64)
        keys_buf[:used] = self._keys_buf[:used]
        self._keys_buf = keys_buf
        assign_buf = np.empty(new_capacity, dtype=np.int64)
        assign_buf[:used] = self._assign_buf[:used]
        self._assign_buf = assign_buf

    # -- cluster-reference updates ---------------------------------------

    def update_assignment(self, item: int, cluster: int) -> None:
        """O(1) rewrite of one item's cluster reference."""
        self._check_built()
        self._check_mutable("update_assignment")
        assert self._assign_buf is not None
        self._assign_buf[item] = cluster

    def set_assignments(self, assignments: np.ndarray) -> None:
        """Bulk-replace every cluster reference (used between iterations)."""
        self._check_built()
        self._check_mutable("set_assignments")
        assert self._assign_buf is not None
        assignments = np.asarray(assignments, dtype=np.int64)
        if assignments.shape != (self._n,):
            raise DataValidationError(
                f"expected shape {(self._n,)}, got {assignments.shape}"
            )
        self._assign_buf[: self._n] = assignments

    @property
    def assignments(self) -> np.ndarray:
        """A copy of the current cluster references."""
        self._check_built()
        assert self._assign_buf is not None
        return self._assign_buf[: self._n].copy()

    def assignments_view(self) -> np.ndarray:
        """The *live* cluster-reference array (no copy).

        Intended for the inner fitting loops of this library: writing
        ``view[i] = c`` is equivalent to :meth:`update_assignment` and
        is immediately visible to :meth:`candidate_clusters`.  Treat as
        an internal fast path; external callers should prefer the safe
        methods.  (A later :meth:`insert` may reallocate the backing
        buffer, so re-fetch the view after streaming new items in.)
        """
        self._check_built()
        self._check_mutable("assignments_view")
        assert self._assign_buf is not None
        return self._assign_buf[: self._n]

    # -- diagnostics -----------------------------------------------------

    @property
    def n_items(self) -> int:
        self._check_built()
        return self._n

    @property
    def band_keys(self) -> np.ndarray:
        """The ``(n_items, bands)`` bucket-key matrix (live, do not mutate).

        Together with the assignments this is sufficient to rebuild the
        index (``from_band_keys``), which is how fitted models are
        persisted without storing raw signatures.
        """
        self._check_built()
        assert self._keys_buf is not None
        return self._keys_buf[: self._n]

    def stats(self) -> IndexStats:
        """Bucket-level summary statistics."""
        self._check_built()
        sizes = np.concatenate(
            [np.unique(column, return_counts=True)[1] for column in self.band_keys.T]
        )
        return IndexStats(
            n_items=self.n_items,
            bands=self.bands,
            rows=self.rows,
            n_buckets=int(len(sizes)),
            mean_bucket_size=float(sizes.mean()),
            max_bucket_size=int(sizes.max()),
        )

    def _check_built(self) -> None:
        if self._keys_buf is None:
            raise NotFittedError(
                "index not built; call build(signatures, assignments) first"
            )


# ----------------------------------------------------------------------
# the index
# ----------------------------------------------------------------------


class ClusteredLSHIndex(BaseClusteredIndex):
    """Banded LSH index whose entries carry mutable cluster references.

    Parameters
    ----------
    bands:
        Number of bands ``b``.
    rows:
        Rows per band ``r``.  Signatures must have width ``b * r``.

    Every index accepts inserts until it is frozen.  It stores no
    neighbour lists; a fit builds its own with
    :func:`grouped_neighbour_csr` over its band keys.

    Examples
    --------
    >>> from repro.lsh import MinHasher, TokenSets
    >>> items = TokenSets.from_lists([[1, 2, 3], [1, 2, 4], [9, 10, 11]])
    >>> sigs = MinHasher(n_hashes=8, seed=0).signatures(items)
    >>> index = ClusteredLSHIndex(bands=4, rows=2)
    >>> index.build(sigs, assignments=np.array([0, 1, 2]))
    >>> sorted(index.candidate_clusters(0).tolist())  # doctest: +SKIP
    [0, 1]
    """

    def build(self, signatures: np.ndarray, assignments: np.ndarray) -> "ClusteredLSHIndex":
        """Index every item once (the single pass of Algorithm 2).

        Parameters
        ----------
        signatures:
            ``(n_items, bands * rows)`` signature matrix.
        assignments:
            ``(n_items,)`` initial cluster id per item.  Copied; use
            :meth:`update_assignment` / :meth:`set_assignments` to
            change later.
        """
        signatures = np.asarray(signatures)
        assignments = self._validated_assignments(
            len(signatures), assignments, "signatures"
        )
        band_keys = compute_band_keys(signatures, self.bands, self.rows)
        self._finalise(band_keys, assignments)
        return self

    @classmethod
    def from_band_keys(
        cls,
        bands: int,
        rows: int,
        band_keys: np.ndarray,
        assignments: np.ndarray,
    ) -> "ClusteredLSHIndex":
        """Rebuild an index from already-computed ``(n, bands)`` keys.

        Band keys fully determine the buckets and neighbour lists, so a
        persisted model only needs to store them (not the signatures)
        to reconstruct its index exactly; see
        :func:`repro.data.io.save_model`.
        """
        band_keys = np.asarray(band_keys)
        if band_keys.ndim != 2 or band_keys.shape[1] != bands:
            raise DataValidationError(
                f"band_keys must be (n_items, {bands}), got shape "
                f"{band_keys.shape}"
            )
        assignments = cls._validated_assignments(
            len(band_keys), assignments, "key rows"
        )
        index = cls(bands, rows)
        index._finalise(band_keys.astype(np.uint64, copy=False), assignments)
        return index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusteredLSHIndex(bands={self.bands}, rows={self.rows}, "
            f"built={self._keys_buf is not None})"
        )
