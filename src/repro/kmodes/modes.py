"""Mode computation — the centroid update of K-Modes.

The mode of a cluster is, column by column, its most frequent category
value; the paper's Section III-A1 shows this is exactly the vector Q
minimising D(X, Q) (Equation 3).  Every cluster's counts come from one
table, the sorted *(cluster, attribute, value)* layout of
:class:`~repro.kmodes.counts.ModeCounts`: one sort of all n·m encoded
cells and one segmented maximum per call, whatever k and m are.  A
caller that iterates (the K-Modes and MH-K-Modes fits) passes the same
counts to every call, and each call then moves only the rows whose
label changed, so an iteration pays for its moves, not for n·m cells.

Ties are broken towards the smallest category code, which makes mode
computation fully deterministic (important for reproducing runs and
for the MH-vs-exact equivalence tests).  The codes may be any int64
values, negative ones included.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, DataValidationError, EmptyClusterError
from repro.kmodes.counts import ModeCounts

__all__ = ["compute_modes", "column_mode"]


def column_mode(values: np.ndarray) -> int:
    """Most frequent value of a 1-D integer array (smallest wins ties).

    Examples
    --------
    >>> column_mode(np.array([3, 1, 3, 2, 1]))
    1
    """
    values = np.asarray(values)
    if values.ndim != 1 or values.size == 0:
        raise DataValidationError("column_mode requires a non-empty 1-D array")
    uniques, counts = np.unique(values, return_counts=True)
    # np.unique returns sorted uniques, so argmax's first-hit rule
    # already selects the smallest value among equal counts.
    return int(uniques[np.argmax(counts)])


def compute_modes(
    X: np.ndarray,
    labels: np.ndarray,
    n_clusters: int,
    previous_modes: np.ndarray | None = None,
    empty_policy: str = "keep",
    rng: np.random.Generator | None = None,
    counts: ModeCounts | None = None,
) -> np.ndarray:
    """Frequency-based mode update for every cluster at once.

    Parameters
    ----------
    X:
        ``(n, m)`` categorical code matrix.
    labels:
        ``(n,)`` cluster id per item, values in ``[0, n_clusters)``.
    n_clusters:
        Number of clusters k.
    previous_modes:
        ``(k, m)`` modes from the previous iteration; required by the
        ``'keep'`` empty-cluster policy.
    empty_policy:
        What to do with clusters that currently have no members:

        * ``'keep'`` — retain the previous mode (default; a later
          iteration may repopulate the cluster);
        * ``'reinit'`` — draw a random item as the new mode;
        * ``'error'`` — raise :class:`EmptyClusterError`.
    rng:
        Generator for the ``'reinit'`` policy.
    counts:
        Counts to carry from one call to the next: an empty
        :class:`~repro.kmodes.counts.ModeCounts` of ``(n_clusters, m)``
        pairs on the first call, the same object on later calls with
        the same ``X`` object, which then counts only the rows whose
        label changed.  The result never depends on it; counts built on
        another matrix raise :class:`DataValidationError`.

    Returns
    -------
    numpy.ndarray
        ``(n_clusters, m)`` mode matrix, dtype of ``X``.
    """
    X = np.asarray(X)
    labels = np.asarray(labels)
    if X.ndim != 2:
        raise DataValidationError(f"X must be 2-D, got ndim={X.ndim}")
    if labels.ndim != 1 or len(labels) != len(X):
        raise DataValidationError(
            f"labels must be 1-D with one entry per item; got {labels.shape} "
            f"for {len(X)} items"
        )
    if n_clusters <= 0:
        raise ConfigurationError(f"n_clusters must be positive, got {n_clusters}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_clusters):
        raise DataValidationError(
            f"labels outside [0, {n_clusters}): min={labels.min()}, max={labels.max()}"
        )
    if empty_policy not in ("keep", "reinit", "error"):
        raise ConfigurationError(
            f"empty_policy must be 'keep', 'reinit' or 'error', got {empty_policy!r}"
        )

    n, m = X.shape
    sizes = np.bincount(labels, minlength=n_clusters)
    empty = np.flatnonzero(sizes == 0)
    if empty.size and empty_policy == "error":
        raise EmptyClusterError(
            f"{empty.size} cluster(s) have no members: {empty[:10].tolist()}"
        )

    if m == 0:
        modes = np.empty((n_clusters, 0), dtype=X.dtype)
    else:
        if counts is None:
            counts = ModeCounts(n_clusters, m)
        elif (counts.n_clusters, counts.n_attributes) != (n_clusters, m):
            raise DataValidationError(
                f"counts hold ({counts.n_clusters}, {counts.n_attributes}) "
                f"pairs, not ({n_clusters}, {m})"
            )
        counts.sync(X, labels)
        modes = counts.best_value.astype(X.dtype)

    if empty.size:
        if empty_policy == "keep":
            if previous_modes is None:
                raise ConfigurationError(
                    "empty_policy='keep' requires previous_modes when a "
                    "cluster has no members"
                )
            previous_modes = np.asarray(previous_modes)
            if previous_modes.shape != (n_clusters, m):
                raise DataValidationError(
                    f"previous_modes shape {previous_modes.shape} != "
                    f"({n_clusters}, {m})"
                )
            modes[empty] = previous_modes[empty]
        else:  # 'reinit'
            if rng is None:
                rng = np.random.default_rng()
            replacement = rng.integers(0, n, size=empty.size)
            modes[empty] = X[replacement]
    return modes
