"""On-demand C build for the compiled kernels.

``repro`` ships :mod:`repro.kernels` as plain C source
(``_kernels.c``) rather than a prebuilt extension, so the default
install stays pure-NumPy and nothing at pip time needs a toolchain.
The first time the compiled backend is selected, this module compiles
the source with the system C compiler into a content-addressed shared
library under a cache directory and loads it with :mod:`ctypes`:

* the cache key is the SHA-256 of the source, so editing the kernels
  invalidates stale builds and concurrent processes (worker pools!)
  converge on one artifact;
* the build lands via an atomic rename — racing processes may both
  compile, but the loaded library is always complete;
* the flags are ``-O3 -fPIC -shared`` and nothing else: the MinHash
  loop carries its own AVX-512/AVX2/baseline clones on x86-64 glibc
  builds, which the dynamic loader chooses between when the library
  loads (see ``_kernels.c``), so one artifact serves every CPU that
  shares the cache;
* every wrapper below hands the library C-contiguous int64 arrays, and
  the :mod:`repro.kernels` entry points have validated every id and
  label the C loops index with, so they never read outside an array;
* the library is single-threaded: row parallelism is the engine
  backends' job, and a thread team started in a parent process would
  not survive the ``fork`` of its pool workers;
* any failure (no compiler, sandboxed tmpdir, bad flags) raises
  :class:`KernelBuildError`, which the selector in
  :mod:`repro.kernels` turns into the NumPy fallback plus one warning.

``ctypes`` releases the GIL for the duration of each call, and nothing
ctypes-owned is ever attached to picklable objects — estimators and
pool kernels reference the compiled functions only through the
module-level wrappers in :mod:`repro.kernels`, which re-resolve in
every process.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["KernelBuildError", "load_compiled", "build_cache_dir"]

_SOURCE_PATH = Path(__file__).with_name("_kernels.c")

_FLAGS = ("-O3", "-fPIC", "-shared")

_I64 = ctypes.POINTER(ctypes.c_int64)


class KernelBuildError(RuntimeError):
    """The compiled backend could not be built or loaded."""


def build_cache_dir() -> Path:
    """Where compiled kernel libraries live (override:
    ``REPRO_KERNELS_CACHE``)."""
    override = os.environ.get("REPRO_KERNELS_CACHE")
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / f"repro-kernels-py{sys.version_info[0]}{sys.version_info[1]}"


def _source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]


def _compiler() -> str:
    return os.environ.get("CC", "cc")


def _compile(
    source_path: Path, target: Path, flags: tuple[str, ...] = _FLAGS
) -> None:
    """Compile ``source_path`` into ``target`` (atomic via rename)."""
    target.parent.mkdir(parents=True, exist_ok=True)
    scratch = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    command = [_compiler(), *flags, str(source_path), "-o", str(scratch)]
    try:
        result = subprocess.run(
            command, capture_output=True, text=True, timeout=120
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        error = str(exc)
    else:
        if result.returncode == 0:
            os.replace(scratch, target)
            return
        error = f"exit {result.returncode}: {result.stderr.strip()[:500]}"
    if scratch.exists():  # pragma: no cover - best-effort cleanup
        scratch.unlink(missing_ok=True)
    raise KernelBuildError(
        f"could not compile the hot-path kernels: {' '.join(command)}: {error}"
    )


def _bind(library: ctypes.CDLL) -> ctypes.CDLL:
    """Declare the four entry points' signatures (int64 scalars/ptrs)."""
    try:
        signatures = library.repro_minhash_signatures
        counts = library.repro_count_update
        nearest = library.repro_nearest_modes
        shortlist = library.repro_shortlist_matching
    except AttributeError as exc:  # pragma: no cover - corrupt artifact
        raise KernelBuildError(f"compiled library misses a symbol: {exc}")
    signatures.restype = ctypes.c_int
    signatures.argtypes = [
        ctypes.c_int64, ctypes.c_int64, _I64, _I64, _I64, _I64,
        ctypes.c_int64, _I64,
    ]
    counts.restype = None
    counts.argtypes = [
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        _I64, _I64, _I64, _I64, _I64,
    ]
    nearest.restype = ctypes.c_int
    nearest.argtypes = [
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, _I64, _I64,
        ctypes.c_int64, ctypes.c_int64, _I64, _I64, _I64, _I64, _I64,
        _I64, _I64,
    ]
    shortlist.restype = None
    shortlist.argtypes = [
        ctypes.c_int64, ctypes.c_int64, _I64, _I64, _I64, _I64, _I64, _I64,
    ]
    return library


def load_compiled() -> ctypes.CDLL:
    """Compile (once per source hash per machine) and load the library.

    Raises :class:`KernelBuildError` on any failure; never leaves a
    partial artifact behind.
    """
    try:
        source = _SOURCE_PATH.read_text(encoding="utf-8")
    except OSError as exc:  # pragma: no cover - package always ships it
        raise KernelBuildError(f"kernel source unavailable: {exc}")
    target = build_cache_dir() / f"repro_kernels_{_source_digest(source)}.so"
    if not target.exists():
        try:
            _compile(_SOURCE_PATH, target)
        except KernelBuildError:
            raise
        except OSError as exc:
            raise KernelBuildError(f"kernel build failed: {exc}")
    try:
        return _bind(ctypes.CDLL(str(target)))
    except OSError as exc:
        raise KernelBuildError(f"could not load {target}: {exc}")


def _ptr(array: np.ndarray):
    """Raw int64 pointer of a C-contiguous int64 array."""
    return array.ctypes.data_as(_I64)


def c_minhash_signatures(
    library: ctypes.CDLL,
    indices: np.ndarray,
    indptr: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    empty_slot: int,
) -> np.ndarray:
    n = len(indptr) - 1
    n_hashes = len(a)
    out = np.empty((n, n_hashes), dtype=np.int64)
    if n == 0:
        return out
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    status = library.repro_minhash_signatures(
        n, n_hashes, _ptr(indices), _ptr(indptr), _ptr(a), _ptr(b),
        int(empty_slot), _ptr(out),
    )
    if status != 0:
        raise MemoryError(f"MinHash kernel could not allocate {n_hashes} lanes")
    return out


def c_count_update(
    library: ctypes.CDLL,
    dense: np.ndarray,
    values: np.ndarray,
    labels: np.ndarray,
) -> np.ndarray:
    n, m = values.shape
    new_counts = np.empty((n, m), dtype=np.int64)
    if n == 0:
        return new_counts
    # Visit rows label-sorted so consecutive scatter targets share a
    # cluster block (the cache-friendly layout the C loop expects).
    order = np.argsort(labels, kind="stable")
    library.repro_count_update(
        n, m, dense.shape[2], _ptr(values), _ptr(labels), _ptr(order),
        _ptr(dense), _ptr(new_counts),
    )
    return new_counts


def c_nearest_modes(
    library: ctypes.CDLL,
    X: np.ndarray,
    current: np.ndarray | None,
    runs,
    block_rows: int,
) -> tuple[np.ndarray, np.ndarray]:
    # One call for every row: the kernel keeps one counter per mode, so
    # ``block_rows`` (the NumPy tier's memory cap) has nothing to bound.
    n, m = X.shape
    labels = np.empty(n, dtype=np.int64)
    distances = np.empty(n, dtype=np.int64)
    if n == 0:
        return labels, distances
    k = len(runs.members) // m
    status = library.repro_nearest_modes(
        n, m, k, _ptr(X), None if current is None else _ptr(current),
        runs.low, runs.span, _ptr(runs.members), _ptr(runs.run_keys),
        _ptr(runs.run_starts), _ptr(runs.run_lengths), _ptr(runs.attr_runs),
        _ptr(labels), _ptr(distances),
    )
    if status != 0:
        raise MemoryError(f"nearest-mode kernel could not allocate {k} counters")
    return labels, distances


def c_shortlist_matching(
    library: ctypes.CDLL,
    block: np.ndarray,
    candidates: np.ndarray,
    sizes: np.ndarray,
    centroids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    n, m = block.shape
    labels = np.empty(n, dtype=np.int64)
    distances = np.empty(n, dtype=np.int64)
    if n == 0:
        return labels, distances
    library.repro_shortlist_matching(
        n, m, _ptr(block), _ptr(candidates), _ptr(sizes), _ptr(centroids),
        _ptr(labels), _ptr(distances),
    )
    return labels, distances
