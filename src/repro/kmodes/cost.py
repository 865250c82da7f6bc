"""The K-Modes cost function P(W, Q) — Equation 4 of the paper.

P(W, Q) is the total matching distance between every item and the mode
of its assigned cluster.  Batch K-Modes monotonically decreases this
quantity: the assignment step is optimal for fixed modes, and the mode
update is optimal for fixed assignments (Equation 3's minimiser).

The mismatches are counted in blocks of 4,096 rows, so the ``(n, m)``
gather of every item's mode never exists at once: a fit asks for the
cost after every iteration, and that gather was the largest array
those calls made.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataValidationError

__all__ = ["clustering_cost"]

#: Rows whose modes are gathered and compared at once.
_BLOCK_ROWS = 4096


def clustering_cost(X: np.ndarray, modes: np.ndarray, labels: np.ndarray) -> int:
    """Total mismatch count between items and their cluster modes.

    Parameters
    ----------
    X:
        ``(n, m)`` categorical code matrix.
    modes:
        ``(k, m)`` mode matrix.
    labels:
        ``(n,)`` cluster id per item, each in ``[0, k)``.

    Returns
    -------
    int
        P(W, Q); ranges from 0 (every item equals its mode) to n·m.
    """
    X = np.asarray(X)
    modes = np.asarray(modes)
    labels = np.asarray(labels)
    if X.ndim != 2 or modes.ndim != 2 or X.shape[1] != modes.shape[1]:
        raise DataValidationError(
            f"incompatible shapes: X {X.shape}, modes {modes.shape}"
        )
    if labels.shape != (X.shape[0],):
        raise DataValidationError(
            f"labels shape {labels.shape} != ({X.shape[0]},)"
        )
    if labels.size == 0:
        return 0
    if labels.min() < 0 or labels.max() >= modes.shape[0]:
        raise DataValidationError(
            f"labels outside [0, {modes.shape[0]})"
        )
    total = 0
    for lo in range(0, len(labels), _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        total += int(np.count_nonzero(X[block] != modes[labels[block]]))
    return total
