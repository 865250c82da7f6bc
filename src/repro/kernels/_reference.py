"""Loop-form kernel reference implementations — the conformance oracle.

These functions express the two hot-path kernels as plain element-wise
loops over preallocated arrays: the most direct transcription of the
semantics, with no vectorisation tricks to hide a bug.  The
conformance suite recomputes small cases through them and requires the
C and NumPy backends to agree bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["minhash_signatures_loop", "count_update_loop"]

_P31 = (1 << 31) - 1


def minhash_signatures_loop(indices, indptr, a, b, empty_slot, out):
    """Fill ``out`` with MinHash signatures, one row walk per item."""
    n_items = indptr.shape[0] - 1
    n_hashes = a.shape[0]
    for i in range(n_items):
        for h in range(n_hashes):
            out[i, h] = empty_slot
        for t in range(indptr[i], indptr[i + 1]):
            x = indices[t]
            for h in range(n_hashes):
                y = a[h] * x + b[h]
                y = (y & _P31) + (y >> 31)
                y = (y & _P31) + (y >> 31)
                if y >= _P31:
                    y -= _P31
                if y < out[i, h]:
                    out[i, h] = y
    return out


def count_update_loop(dense, values, labels, order, new_counts):
    """Accumulate ``values`` into ``dense`` then gather final counts."""
    n_rows = values.shape[0]
    n_attrs = values.shape[1]
    for s in range(n_rows):
        row = order[s]
        label = labels[row]
        for j in range(n_attrs):
            dense[label, j, values[row, j]] += 1
    for r in range(n_rows):
        label = labels[r]
        for j in range(n_attrs):
            new_counts[r, j] = dense[label, j, values[r, j]]
    return new_counts


def reference_minhash(indices, indptr, a, b, empty_slot):
    """Allocating convenience wrapper used by the conformance tests."""
    n = len(indptr) - 1
    out = np.empty((n, len(a)), dtype=np.int64)
    return minhash_signatures_loop(
        np.asarray(indices, dtype=np.int64),
        np.asarray(indptr, dtype=np.int64),
        np.asarray(a, dtype=np.int64),
        np.asarray(b, dtype=np.int64),
        empty_slot,
        out,
    )


def reference_count_update(dense, values, labels):
    """Allocating convenience wrapper used by the conformance tests."""
    values = np.asarray(values, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    order = np.argsort(labels, kind="stable")
    new_counts = np.empty(values.shape, dtype=np.int64)
    return count_update_loop(dense, values, labels, order, new_counts)
