"""Sort-based distinct values, the primitive the hot paths share.

NumPy 2.3 and later answer ``np.unique(values)`` without return flags
from a hash set.  On the integer keys this library deduplicates (int64
cluster and group keys, uint64 band keys; hundreds to hundreds of
thousands of values) one ``np.sort`` and a mask of run starts is 4–36×
faster: with NumPy 2.4.6 on a 2-vCPU x86-64 virtual machine, 266 values
took 18.1 µs hashed and 4.8 µs sorted, 26,666 values 3.29 and 0.36 ms,
666,666 values 342 and 9.4 ms.  :func:`sorted_unique` returns exactly
what ``np.unique`` returns; the flagged forms of ``np.unique``
(``return_index``, ``return_inverse``, ``return_counts``, ``axis``)
still sort and are used as they are.
"""

from __future__ import annotations

import numpy as np

__all__ = ["run_starts", "sorted_unique"]


def run_starts(values: np.ndarray) -> np.ndarray:
    """Index of the first element of every run of equal sorted values."""
    change = np.empty(len(values), dtype=bool)
    change[:1] = True
    np.not_equal(values[1:], values[:-1], out=change[1:])
    return np.flatnonzero(change)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of integer ``values`` (flattened).

    Equal to ``np.unique(values)``, dtype included, from one sort and
    one compare of neighbours.

    Examples
    --------
    >>> sorted_unique(np.array([3, 1, 3, -2])).tolist()
    [-2, 1, 3]
    """
    ordered = np.sort(values, axis=None)
    return ordered[run_starts(ordered)]
