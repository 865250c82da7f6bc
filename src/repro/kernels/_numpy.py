"""Pure-NumPy kernel implementations — the always-available fallback.

These are the exact vectorised code paths that used to live inline in
:meth:`repro.lsh.minhash.MinHasher.signatures`,
:meth:`repro.core.streaming.ClusterModeTracker.add_batch`,
:meth:`repro.kmodes.postings.ModePostings.nearest` and
:func:`repro.engine.parallel.best_shortlisted_centroids`; the compiled
backends are conformance-tested bit-for-bit against them
(``tests/kernels/test_conformance.py``), and the property suites pin
both to the sequential reference semantics.

Two of the loops here also serve callers that have no compiled tier:
:func:`nearest_rows` reduces the dense compare of
:class:`~repro.kmodes.postings.ModePostings`, and
:func:`shortlist_argmin` scores numeric shortlists with the model's own
``_block_distances`` (:class:`~repro.kmeans.mh_kmeans.LSHKMeans`).
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "minhash_signatures",
    "count_update",
    "nearest_modes",
    "nearest_rows",
    "shortlist_matching",
    "shortlist_argmin",
]

#: Rough element budget for one padded ``(rows, smax, m)`` distance
#: tensor of :func:`shortlist_argmin`; blocks are sliced to stay under it.
_BLOCK_ELEMENT_BUDGET = 4_000_000

#: Rows :func:`shortlist_argmin` handles per tile group before memory
#: capping.
_BLOCK_ITEMS = 1024

#: The Mersenne prime modulus shared with ``repro.lsh.hashing``
#: (duplicated here so the kernels layer has no import cycle with lsh).
_P31 = (1 << 31) - 1


def _reduce31(y: np.ndarray) -> np.ndarray:
    """Exact ``y % (2**31 - 1)`` for ``0 <= y < 2**62`` via shifts.

    The same two-fold-plus-subtract sequence as
    :meth:`repro.lsh.hashing.UniversalHashFamily._reduce`.
    """
    y = (y & _P31) + (y >> 31)
    y = (y & _P31) + (y >> 31)
    return y - (y >= _P31) * _P31


def minhash_signatures(
    indices: np.ndarray,
    indptr: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    empty_slot: int,
) -> np.ndarray:
    """Ragged CSR MinHash: one ``minimum.reduceat`` pass per hash.

    Parameters
    ----------
    indices, indptr:
        The CSR token stream (``repro.lsh.tokens.TokenSets`` layout).
        Tokens must already be validated into ``[0, 2**31 - 1)``.
    a, b:
        Universal-hash coefficient vectors, one entry per hash.
    empty_slot:
        Sentinel written to every slot of an empty row.

    Returns
    -------
    numpy.ndarray
        ``(n_rows, n_hashes)`` int64 signature matrix.
    """
    n = len(indptr) - 1
    n_hashes = len(a)
    out = np.full((n, n_hashes), empty_slot, dtype=np.int64)
    if n == 0 or len(indices) == 0:
        return out
    lengths = np.diff(indptr)
    non_empty = lengths > 0
    # ``reduceat`` cannot express empty segments, so reduce only the
    # non-empty rows and scatter the results back.
    starts = indptr[:-1][non_empty]
    for i in range(n_hashes):
        hashed = _reduce31(a[i] * indices + b[i])
        out[non_empty, i] = np.minimum.reduceat(hashed, starts)
    return out


def count_update(
    dense: np.ndarray, values: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Scatter a batch into the count tensor; gather the final counts.

    Parameters
    ----------
    dense:
        The ``(n_clusters, n_attributes, capacity)`` int64 count
        tensor, updated in place.
    values:
        ``(n_rows, n_attributes)`` int64 category codes, all within
        ``[0, capacity)``.
    labels:
        ``(n_rows,)`` int64 cluster assignments.

    Returns
    -------
    numpy.ndarray
        ``(n_rows, n_attributes)`` int64 — each updated triple's count
        *after* the whole batch landed (every occurrence of a triple
        reads the same final value).
    """
    attr_idx = np.arange(dense.shape[1], dtype=np.int64)
    np.add.at(dense, (labels[:, None], attr_idx[None, :], values), 1)
    return dense[labels[:, None], attr_idx[None, :], values]


def nearest_rows(X, current, block_rows, block_distances):
    """First-minimum column of ``block_distances`` per row of ``X``.

    ``block_distances(X[lo:hi])`` returns the block's ``(rows, k)``
    integer distances; rows go through it ``block_rows`` at a time.  Ties
    go to the smallest column.  With ``current``, a row whose current
    column (``current >= 0``) is at least as close as that minimum keeps
    it.  Returns ``(labels, distances)``, both int64.
    """
    n = X.shape[0]
    labels = np.empty(n, dtype=np.int64)
    distances = np.empty(n, dtype=np.int64)
    for lo in range(0, n, block_rows):
        hi = min(lo + block_rows, n)
        dist = block_distances(X[lo:hi])
        best = np.argmin(dist, axis=1)
        if current is not None:
            rows = np.flatnonzero(current[lo:hi] >= 0)
            held = current[lo:hi][rows]
            keep = dist[rows, held] <= dist[rows, best[rows]]
            best[rows[keep]] = held[keep]
        labels[lo:hi] = best
        distances[lo:hi] = dist[np.arange(hi - lo), best]
    return labels, distances


def nearest_modes(X, current, runs, block_rows):
    """Nearest mode per row of ``X``, scored off the mode postings' runs.

    ``runs`` is a :class:`repro.kernels.ModeRuns`; rows are scored
    ``block_rows`` at a time into ``(rows, k)`` distance blocks and
    reduced by :func:`nearest_rows`.
    """
    return nearest_rows(
        X, current, block_rows, functools.partial(_posting_distances, runs)
    )


def _posting_distances(runs, block: np.ndarray) -> np.ndarray:
    """``(rows, k)`` matching distances of one row block."""
    rows, m = block.shape
    k = len(runs.members) // m
    codes = block.astype(np.int64, copy=False) - runs.low
    queries = (codes + np.arange(m, dtype=np.int64) * runs.span).ravel()
    # Sorted queries walk the run keys in order: about twice as fast
    # as the same lookups in row order.
    order = np.argsort(queries)
    found = np.empty_like(order)
    found[order] = np.searchsorted(runs.run_keys, queries[order])
    np.minimum(found, len(runs.run_keys) - 1, out=found)
    # A code outside the modes' range would alias a neighbouring
    # attribute's key, so it must not count as a hit.
    hit = (runs.run_keys[found] == queries) & (
        (codes >= 0) & (codes < runs.span)
    ).ravel()
    found = found[hit]
    starts = runs.run_starts[found]
    lengths = runs.run_lengths[found]
    owner = np.flatnonzero(hit) // m
    long = 2 * lengths > k

    # distance = m − matches.  A short run is a match for each mode
    # on it.  A long run is a match for every mode except those on
    # its complement, and the complement is what the row scans.
    short = ~long
    hits = np.bincount(
        _flat_postings(runs.members, k, owner[short], starts[short], lengths[short]),
        minlength=rows * k,
    ).reshape(rows, k)
    if not np.any(long):
        return m - hits
    owner, starts, lengths = owner[long], starts[long], lengths[long]
    first = starts // k * k  # the attribute's first position
    stops = starts + lengths
    misses = np.bincount(
        _flat_postings(
            runs.members,
            k,
            np.concatenate([owner, owner]),
            np.concatenate([first, stops]),
            np.concatenate([starts - first, first + k - stops]),
        ),
        minlength=rows * k,
    ).reshape(rows, k)
    misses -= hits
    misses += (m - np.bincount(owner, minlength=rows))[:, None]
    return misses


def _flat_postings(
    members: np.ndarray,
    k: int,
    owner: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
) -> np.ndarray:
    """``row * k + mode`` for every posting of the given ranges."""
    skip = np.cumsum(lengths) - lengths
    positions = np.arange(int(lengths.sum()))
    positions += np.repeat(starts - skip, lengths)
    return np.repeat(owner * k, lengths) + members[positions]


def _matching_distances(block: np.ndarray, centroid_blocks: np.ndarray) -> np.ndarray:
    """``(c, s)`` mismatch counts of ``block[i]`` against ``centroid_blocks[i]``."""
    return np.count_nonzero(centroid_blocks != block[:, None, :], axis=2)


def shortlist_matching(block, candidates, sizes, centroids):
    """First-minimum matching distance over each row's ragged shortlist.

    :func:`shortlist_argmin` with the matching distance; returns
    ``(labels, distances)``, both int64.
    """
    labels, distances = shortlist_argmin(
        block, candidates, sizes, centroids, _matching_distances
    )
    return labels, distances.astype(np.int64)


def shortlist_argmin(block, candidates, sizes, centroids, block_distances):
    """First-minimum centroid per row over ragged candidate lists.

    ``candidates`` concatenates each row's (non-empty, sorted) centroid
    shortlist; ``sizes`` holds the per-row lengths.  The ragged lists
    are padded into dense per-block ``(rows, smax)`` tiles, scored with
    ``block_distances(rows, centroid_tiles)`` in memory-capped row
    slices, and reduced with a masked argmin.  Because every shortlist
    is sorted, the first minimum is the smallest-id centroid among the
    ties — exactly what a per-row ``np.argmin`` over the same shortlist
    would pick.

    When the size distribution is skewed (a few huge shortlists among
    many tiny ones — typical for novel items hitting the predict
    fallback neighbourhoods), rows are processed in size-sorted order
    so each tile pads only to *its own* maximum, instead of every row
    paying for the global one.  Results are per-row and therefore
    identical under any processing order.

    Returns ``(best_label, best_distance)`` per row, int64 and float64.
    """
    count, m = block.shape
    best_label = np.empty(count, dtype=np.int64)
    best_distance = np.empty(count, dtype=np.float64)
    if count == 0:
        return best_label, best_distance
    smax = int(sizes.max())
    offsets = np.zeros(count, dtype=np.int64)
    np.cumsum(sizes[:-1], out=offsets[1:])

    # Size-sort only when padding to the global smax would inflate the
    # scored elements noticeably; unskewed inputs keep row order (and
    # the argsort off the hot per-iteration pass).
    skewed = smax * count >= 2 * len(candidates)
    order = np.argsort(sizes, kind="stable") if skewed else None

    for c0 in range(0, count, _BLOCK_ITEMS):
        c1 = min(c0 + _BLOCK_ITEMS, count)
        chunk_sel = order[c0:c1] if skewed else slice(c0, c1)
        chunk_smax = int(sizes[chunk_sel].max())
        rows_at_once = max(1, _BLOCK_ELEMENT_BUDGET // max(1, chunk_smax * m))
        for r0 in range(c0, c1, rows_at_once):
            r1 = min(r0 + rows_at_once, c1)
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
                block_distances(block[rows_sel], centroids[padded]),
                dtype=np.float64,
            )
            distances[~valid] = np.inf
            rows = np.arange(take)
            best_pos = np.argmin(distances, axis=1)
            best_distance[rows_sel] = distances[rows, best_pos]
            best_label[rows_sel] = padded[rows, best_pos]
    return best_label, best_distance
