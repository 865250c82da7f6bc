"""repro.kernels — compiled hot-path kernels with NumPy fallbacks.

Four loops sit under the hot paths: the ragged MinHash signature
computation (:mod:`repro.lsh.minhash`), which every fit, extend and
predict runs over its rows; the mode-count tensor update of the stream
tracker's dense route (:mod:`repro.core.streaming`); the exact
nearest-mode search over the mode postings
(:class:`~repro.kmodes.postings.ModePostings`), which is the fit's
exhaustive setup pass and the categorical empty-shortlist full scan;
and the exact matching distance over each row's LSH shortlist
(:func:`~repro.engine.parallel.best_shortlisted_centroids`), which
every MH-K-Modes pass, ``predict`` and ``extend`` runs.  The
benchmark's traced runs report the first two as the
``kernels.minhash_s`` and ``kernels.count_update_s`` layers and the
last two inside ``core.exhaustive_s``/``core.fallback_s`` and
``engine.score_s`` (``perfbench/``).  This package provides compiled
implementations of all four behind a single selection seam:

``minhash_signatures(indices, indptr, a, b, empty_slot)``
    CSR MinHash — one walk per item over its token list.

``count_update(dense, values, labels)``
    Scatter-add into the ``(k, m, capacity)`` count tensor plus the
    post-batch gather of each triple's final count.

``nearest_modes(X, current, runs, block_rows)``
    First-minimum matching distance to all k modes, read off the
    postings' sorted runs (:class:`ModeRuns`), with the keep-current
    rule — one counter per mode instead of a ``(rows, k)`` block.

``shortlist_matching(block, candidates, sizes, centroids)``
    First-minimum matching distance over each row's ragged, sorted
    candidate list — no padded ``(rows, smax, m)`` centroid tiles.

Two backends, chosen under ``REPRO_KERNELS=auto`` (default):

``c``
    The shipped C source (``_kernels.c``) compiled on demand with the
    system C compiler and driven through :mod:`ctypes`
    (:mod:`repro.kernels._cbuild`).  The MinHash loop runs on 32-bit
    lanes, and on x86-64 glibc builds the dynamic loader picks its
    AVX-512, AVX2 or baseline clone for the CPU at load time.
    Single-threaded: row parallelism comes from the engine backends,
    which split items across workers.  ``ctypes`` releases the GIL
    during each call, so ``thread``-backend workers run the kernels in
    parallel.
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
capacity, any int64 codes for the two matching kernels);
``tests/kernels/`` enforces this, and the extend/hot-pass
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
from typing import NamedTuple

import numpy as np

from repro.exceptions import DataValidationError
from repro.kernels import _numpy
from repro.kernels._cbuild import (
    KernelBuildError,
    c_count_update,
    c_minhash_signatures,
    c_nearest_modes,
    c_shortlist_matching,
    load_compiled,
)

__all__ = [
    "minhash_signatures",
    "count_update",
    "nearest_modes",
    "shortlist_matching",
    "ModeRuns",
    "active_backend",
]

_lock = threading.Lock()

#: Resolved backend name ("c" | "numpy"), or None before the first
#: kernel call.
_backend: str | None = None

#: Implementations for the resolved backend.
_impl_minhash = None
_impl_counts = None
_impl_nearest = None
_impl_shortlist = None


class ModeRuns(NamedTuple):
    """The k modes inverted on their *(attribute, code)* tokens.

    Attribute ``a`` owns positions ``[a·k, (a+1)·k)`` of ``members``,
    the mode ids sorted by their code on ``a``; the modes holding one
    code form a run.  Built by :class:`~repro.kmodes.postings.ModePostings`
    only while ``m · span`` fits in int64, so no key overflows.
    """

    #: smallest mode code; every code lies in ``[low, low + span)``
    low: int
    span: int
    #: ``(k·m,)`` int64 mode ids, attribute-major, in code order
    members: np.ndarray
    #: ``(runs,)`` int64 ascending keys ``attribute · span + code − low``
    run_keys: np.ndarray
    #: ``(runs,)`` int64 first position of each run in ``members``
    run_starts: np.ndarray
    #: ``(runs,)`` int64 number of modes in each run
    run_lengths: np.ndarray
    #: ``(m + 1,)`` int64 index of each attribute's first run
    attr_runs: np.ndarray


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
        functools.partial(c_nearest_modes, library),
        functools.partial(c_shortlist_matching, library),
    )


def _select() -> None:
    """Resolve the backend once per process (idempotent, thread-safe)."""
    global _backend, _impl_minhash, _impl_counts, _impl_nearest, _impl_shortlist
    with _lock:
        if _backend is not None:
            return
        if _requested() == "auto":
            impls = _try_c()
            if impls is not None:
                _impl_minhash, _impl_counts, _impl_nearest, _impl_shortlist = impls
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
        _impl_nearest = _numpy.nearest_modes
        _impl_shortlist = _numpy.shortlist_matching
        _backend = "numpy"


def _reset_backend() -> None:
    """Forget the resolved backend (test hook; selection re-runs lazily)."""
    global _backend, _impl_minhash, _impl_counts, _impl_nearest, _impl_shortlist
    with _lock:
        _backend = None
        _impl_minhash = None
        _impl_counts = None
        _impl_nearest = None
        _impl_shortlist = None


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


def nearest_modes(
    X: np.ndarray,
    current: np.ndarray | None,
    runs: ModeRuns,
    block_rows: int = 256,
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest mode and its matching distance for every row of ``X``.

    Parameters
    ----------
    X:
        ``(n_rows, m)`` integer category codes; any int64 value, codes
        outside the modes' range match no mode.
    current:
        ``None``, or ``(n_rows,)`` labels below k: a row whose current
        mode (``current >= 0``) is at least as close as the first
        minimum keeps it.
    runs:
        The mode postings' :class:`ModeRuns`.
    block_rows:
        Rows the NumPy tier scores per ``(rows, k)`` distance block; the
        compiled tier keeps one counter per mode and ignores it.

    Returns
    -------
    tuple of numpy.ndarray
        ``(labels, distances)``, int64: the first minimum (ties to the
        smallest mode id) after the keep-current rule, and its distance.
    """
    if _backend is None:
        _select()
    m = len(runs.attr_runs) - 1
    X = np.ascontiguousarray(X, dtype=np.int64)
    if X.ndim != 2 or X.shape[1] != m:
        raise DataValidationError(
            f"X must be a 2-D matrix with {m} attributes, got shape {X.shape}"
        )
    if current is not None:
        current = np.ascontiguousarray(current, dtype=np.int64)
        if current.shape != (X.shape[0],):
            raise DataValidationError(
                f"current holds {current.shape} labels for {X.shape[0]} rows"
            )
        _require_below(current, len(runs.members) // m, "current")
    return _impl_nearest(X, current, runs, int(block_rows))


def shortlist_matching(
    block: np.ndarray,
    candidates: np.ndarray,
    sizes: np.ndarray,
    centroids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """First-minimum matching distance over ragged candidate lists.

    Parameters
    ----------
    block:
        ``(n_rows, m)`` integer category codes.
    candidates:
        Each row's sorted, non-empty list of ids into ``centroids``,
        concatenated in row order.
    sizes:
        ``(n_rows,)`` list lengths, each at least 1, summing to
        ``len(candidates)``.
    centroids:
        ``(k, m)`` integer mode codes.

    Returns
    -------
    tuple of numpy.ndarray
        ``(labels, distances)``, int64: per row, the candidate with the
        fewest mismatching attributes (the smallest id among ties) and
        that count.
    """
    if _backend is None:
        _select()
    for name, array in (("block", block), ("centroids", centroids)):
        if np.ndim(array) != 2 or not np.issubdtype(np.asarray(array).dtype, np.integer):
            raise DataValidationError(f"{name} must be a 2-D integer matrix")
    block = np.ascontiguousarray(block, dtype=np.int64)
    centroids = np.ascontiguousarray(centroids, dtype=np.int64)
    candidates = np.ascontiguousarray(candidates, dtype=np.int64)
    sizes = np.ascontiguousarray(sizes, dtype=np.int64)
    n, m = block.shape
    if centroids.shape[1] != m:
        raise DataValidationError(
            f"block has {m} attributes but centroids have {centroids.shape[1]}"
        )
    if sizes.shape != (n,):
        raise DataValidationError(f"sizes holds {sizes.shape} lengths for {n} rows")
    if n and sizes.min() < 1:
        raise DataValidationError("every row needs at least one candidate")
    if candidates.ndim != 1 or int(sizes.sum()) != len(candidates):
        raise DataValidationError(
            f"sizes sum to {int(sizes.sum())} but {candidates.size} candidates given"
        )
    if len(candidates) and candidates.min() < 0:
        raise DataValidationError(f"candidates holds id {int(candidates.min())}")
    _require_below(candidates, len(centroids), "candidates")
    return _impl_shortlist(block, candidates, sizes, centroids)


def _require_below(ids: np.ndarray, k: int, name: str) -> None:
    """The compiled loops index k-sized arrays with these ids."""
    if len(ids) and ids.max() >= k:
        raise DataValidationError(
            f"{name} holds id {int(ids.max())}, but there are {k} modes"
        )
