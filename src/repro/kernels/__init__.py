"""repro.kernels — compiled hot-path kernels with NumPy fallbacks.

The profile in ``benchmarks/results/BENCH_stream.json`` puts ~70% of
the extend wall clock in two kernels: the ragged MinHash signature
computation (:mod:`repro.lsh.minhash`) and the mode-count tensor
update (:mod:`repro.core.streaming`).  This package provides compiled
implementations of both behind a single selection seam:

``minhash_signatures(indices, indptr, a, b, empty_slot)``
    CSR MinHash — one walk per item over its token list.

``count_update(dense, values, labels)``
    Scatter-add into the ``(k, m, capacity)`` count tensor plus the
    post-batch gather of each triple's final count.

Two backends, chosen under ``REPRO_KERNELS=auto`` (default):

``c``
    The shipped C source (``_kernels.c``) compiled on demand with the
    system C compiler and driven through :mod:`ctypes`
    (:mod:`repro.kernels._cbuild`).  Single-threaded: row parallelism
    comes from the engine backends, which split items across workers.
``numpy``
    The vectorised fallback (:mod:`repro.kernels._numpy`) — always
    available, and the conformance oracle for the compiled tier
    together with the loop transcriptions in
    :mod:`repro.kernels._reference`.

Under ``auto`` a C tier that cannot be built degrades to NumPy with
exactly one :class:`RuntimeWarning` per process; ``REPRO_KERNELS=off``
(or ``numpy``) forces the fallback silently.  Any other value warns
that it is not recognised and selects ``auto``.

Both backends are bit-identical on the supported domain (tokens and
coefficients below ``2**31``, category codes within the tensor
capacity); ``tests/kernels/`` enforces this, and the extend/hot-pass
property suites pin the end-to-end behaviour.  Selection is lazy (first
kernel call) and per-process, so ``PersistentPool`` workers re-resolve
after fork/spawn — nothing ctypes-owned ever crosses a pickle
boundary.
"""

from __future__ import annotations

import functools
import os
import threading
import warnings

import numpy as np

from repro.kernels import _numpy
from repro.kernels._cbuild import (
    KernelBuildError,
    c_count_update,
    c_minhash_signatures,
    load_compiled,
)

__all__ = ["minhash_signatures", "count_update", "active_backend"]

_lock = threading.Lock()

#: Resolved backend name ("c" | "numpy"), or None before the first
#: kernel call.
_backend: str | None = None

#: Implementation pair for the resolved backend.
_impl_minhash = None
_impl_counts = None


def _requested() -> str:
    value = os.environ.get("REPRO_KERNELS", "auto").strip().lower()
    if value in ("", "auto", "on", "1"):
        return "auto"
    if value in ("off", "0", "none", "numpy", "disable", "disabled"):
        return "numpy"
    warnings.warn(
        f"REPRO_KERNELS={value!r} not recognised; using auto selection",
        RuntimeWarning,
        stacklevel=3,
    )
    return "auto"


def _try_c():
    """Build/load the shipped C kernels; None when that fails."""
    try:
        library = load_compiled()
    except KernelBuildError:
        return None
    return (
        functools.partial(c_minhash_signatures, library),
        functools.partial(c_count_update, library),
    )


def _select() -> None:
    """Resolve the backend once per process (idempotent, thread-safe)."""
    global _backend, _impl_minhash, _impl_counts
    with _lock:
        if _backend is not None:
            return
        if _requested() == "auto":
            pair = _try_c()
            if pair is not None:
                _impl_minhash, _impl_counts = pair
                _backend = "c"
                return
            # The compiled tier was wanted but could not be built:
            # degrade loudly (once), never incorrectly.
            warnings.warn(
                "repro.kernels: the compiled C backend is unavailable; "
                "falling back to the pure-NumPy kernels",
                RuntimeWarning,
                stacklevel=4,
            )
        _impl_minhash = _numpy.minhash_signatures
        _impl_counts = _numpy.count_update
        _backend = "numpy"


def _reset_backend() -> None:
    """Forget the resolved backend (test hook; selection re-runs lazily)."""
    global _backend, _impl_minhash, _impl_counts
    with _lock:
        _backend = None
        _impl_minhash = None
        _impl_counts = None


def active_backend() -> str:
    """Name of the kernel backend in use: ``"c"`` or ``"numpy"``.

    Resolves the backend on first call; the result is stable for the
    rest of the process (or until ``_reset_backend()`` in tests).
    """
    if _backend is None:
        _select()
    return _backend  # type: ignore[return-value]


def minhash_signatures(
    indices: np.ndarray,
    indptr: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    empty_slot: int,
) -> np.ndarray:
    """MinHash signatures over CSR token sets.

    Parameters
    ----------
    indices, indptr:
        CSR token stream (``TokenSets`` layout); tokens must already be
        validated into ``[0, 2**31 - 1)``.
    a, b:
        int64 universal-hash coefficient vectors, one entry per hash.
    empty_slot:
        Sentinel filled into every slot of an empty row.

    Returns
    -------
    numpy.ndarray
        ``(n_rows, n_hashes)`` int64 signature matrix — bit-identical
        across backends.
    """
    if _backend is None:
        _select()
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    a = np.ascontiguousarray(a, dtype=np.int64)
    b = np.ascontiguousarray(b, dtype=np.int64)
    return _impl_minhash(indices, indptr, a, b, int(empty_slot))


def count_update(
    dense: np.ndarray, values: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Accumulate a labelled batch into the mode-count tensor.

    Parameters
    ----------
    dense:
        ``(n_clusters, n_attributes, capacity)`` C-contiguous int64
        count tensor, updated **in place**.
    values:
        ``(n_rows, n_attributes)`` category codes in ``[0, capacity)``.
    labels:
        ``(n_rows,)`` cluster assignments in ``[0, n_clusters)``.

    Returns
    -------
    numpy.ndarray
        ``(n_rows, n_attributes)`` int64 — the count of each updated
        ``(label, attribute, value)`` triple *after* the whole batch
        landed, matching ``np.add.at`` + fancy-gather semantics.
    """
    if _backend is None:
        _select()
    values = np.ascontiguousarray(values, dtype=np.int64)
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    return _impl_counts(dense, values, labels)
