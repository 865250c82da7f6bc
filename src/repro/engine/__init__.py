"""Pluggable parallel execution for the clustering framework.

The engine subsystem scales the heavy phases of an LSH-accelerated
fit — the exhaustive setup pass, signature hashing, the per-iteration
shortlist assignment — across workers, behind one seam:

* :mod:`repro.engine.backends` — ``serial`` / ``thread`` / ``process``
  :class:`ExecutionBackend` strategies with reusable worker sessions;
* :mod:`repro.engine.shared` — :class:`SharedArray`, zero-copy /
  shared-memory transport for bulky read-only arrays;
* :mod:`repro.engine.chunking` — contiguous chunk iterators shared by
  every phase;
* :mod:`repro.engine.pool` — :class:`PersistentPool`, the worker pool
  with an explicit lifetime shared by fit sessions and the serving
  layer (:mod:`repro.serve`);
* :mod:`repro.engine.parallel` — :class:`~repro.engine.parallel.FitSession`,
  which runs those phases — including the vectorised batch assignment
  pass — on one worker pool per fit, for every backend.

Estimators configure it through an :class:`~repro.api.EngineSpec`
(``backend``, ``n_jobs``, ...); the default ``backend='serial'``
reproduces the paper's online semantics byte for byte, while batch
updates run a vectorised pass whose labels are identical across
backends and chunkings.  Every backend builds the same
:class:`~repro.lsh.index.ClusteredLSHIndex`.
"""

from repro.engine.backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    resolve_backend,
)
from repro.engine.chunking import chunk_ranges, iter_blocks
from repro.engine.pool import PersistentPool, live_pool_count
from repro.engine.shared import SharedArray, resolve_array

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "resolve_backend",
    "chunk_ranges",
    "iter_blocks",
    "PersistentPool",
    "live_pool_count",
    "SharedArray",
    "resolve_array",
]
