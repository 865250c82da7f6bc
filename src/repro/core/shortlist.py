"""Shortlist accounting, fallback policies and the full-scan kernel.

The shortlist itself is produced by
:meth:`repro.lsh.index.ClusteredLSHIndex.candidate_clusters`; this
module adds the plumbing around it:

* :class:`ShortlistAccumulator` — cheap per-iteration accounting of
  shortlist sizes, feeding the "Avg. Clusters Returned" series of
  Figures 2b, 3c, 4a, 5b, 9b and 10c;
* :func:`apply_fallback` — what to do when a shortlist comes back
  empty.  For *indexed* items this cannot happen (an item always
  collides with itself, so its current cluster is always present); it
  matters when predicting for novel items and when streaming them in;
* :func:`best_centroids_full_scan` — the vectorised resolution of the
  ``'full'`` fallback: every row against every centroid, exactly.
  Categorical models score through their mode postings
  (:class:`~repro.kmodes.postings.ModePostings`), which touch the few
  modes sharing a row's values instead of all k·m attributes.  Numeric
  models broadcast the centroid matrix through their
  ``_block_distances`` kernel (never gathering it per row: a gathered
  ``(rows, k, m)`` copy for an all-clusters shortlist is what once made
  batched predict slower than the per-item loop on all-novel batches).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "ShortlistAccumulator",
    "apply_fallback",
    "best_centroids_full_scan",
    "FALLBACK_POLICIES",
]

#: Rough element budget of one broadcast ``(rows, k, m)`` distance
#: tensor; row blocks are sliced to stay under it.
_FULL_SCAN_ELEMENT_BUDGET = 4_000_000

#: Valid fallback policies for empty shortlists on novel items.
FALLBACK_POLICIES = ("full", "error")


class ShortlistAccumulator:
    """Accumulates shortlist sizes within one iteration.

    Examples
    --------
    >>> acc = ShortlistAccumulator()
    >>> acc.add(3)
    >>> acc.add(5)
    >>> acc.mean()
    4.0
    """

    def __init__(self) -> None:
        self._total = 0
        self._count = 0
        self._max = 0

    def add(self, size: int) -> None:
        """Record one item's shortlist size."""
        self._total += size
        self._count += 1
        if size > self._max:
            self._max = size

    def add_many(self, total: int, count: int, max_size: int = 0) -> None:
        """Record a batch of shortlist sizes by aggregate."""
        self._total += total
        self._count += count
        if max_size > self._max:
            self._max = max_size

    def mean(self) -> float:
        """Mean shortlist size this iteration (nan when empty)."""
        return self._total / self._count if self._count else float("nan")

    @property
    def count(self) -> int:
        return self._count

    @property
    def max(self) -> int:
        return self._max

    def reset(self) -> None:
        """Clear the accumulator for the next iteration."""
        self._total = 0
        self._count = 0
        self._max = 0


def apply_fallback(
    shortlist: np.ndarray, n_clusters: int, policy: str
) -> np.ndarray:
    """Resolve an empty shortlist according to ``policy``.

    Parameters
    ----------
    shortlist:
        Candidate cluster ids (possibly empty).
    n_clusters:
        Total number of clusters, for the ``'full'`` policy.
    policy:
        ``'full'`` — fall back to scanning every cluster (exact, slow);
        ``'error'`` — raise, for callers that must never scan.

    Returns
    -------
    numpy.ndarray
        A non-empty array of candidate cluster ids.
    """
    if policy not in FALLBACK_POLICIES:
        raise ConfigurationError(
            f"unknown fallback policy {policy!r}; choose from {FALLBACK_POLICIES}"
        )
    if shortlist.size:
        return shortlist
    if policy == "full":
        return np.arange(n_clusters, dtype=np.int64)
    raise ConfigurationError(
        "empty shortlist for a novel item and fallback policy is 'error'"
    )


def best_centroids_full_scan(
    model, X: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First-minimum centroid per row against the *full* centroid matrix.

    Ties resolve to the smallest centroid id, exactly like an
    all-clusters shortlist would.  When the model supplies mode
    postings (``model._mode_postings``, the categorical family), rows
    are scored through them in blocks of ``model.chunk_items``.
    Otherwise rows are scored with the model's vectorised
    ``_block_distances`` kernel, broadcasting the centroid matrix
    across the row block instead of gathering an explicit
    ``(rows, k, m)`` copy, and reduced with a row-wise ``argmin``; row
    blocks are sized to keep that broadcast distance tensor under a
    fixed element budget.

    Returns ``(best_label, best_distance)`` per row.
    """
    postings = model._mode_postings(centroids)
    if postings is not None:
        labels, distances = postings.nearest(X, block_rows=model.chunk_items)
        return labels, distances.astype(np.float64)
    n, m = X.shape
    k = centroids.shape[0]
    best_label = np.empty(n, dtype=np.int64)
    best_distance = np.empty(n, dtype=np.float64)
    rows_at_once = max(1, _FULL_SCAN_ELEMENT_BUDGET // max(1, k * m))
    for lo in range(0, n, rows_at_once):
        hi = min(lo + rows_at_once, n)
        distances = np.asarray(
            model._block_distances(
                X[lo:hi], np.broadcast_to(centroids, (hi - lo, k, m))
            ),
            dtype=np.float64,
        )
        rows = np.arange(hi - lo)
        best_pos = np.argmin(distances, axis=1)
        best_label[lo:hi] = best_pos
        best_distance[lo:hi] = distances[rows, best_pos]
    return best_label, best_distance
