"""Pluggable execution backends for the clustering engine.

Every parallel phase of the engine is phrased the same way: a
module-level *kernel* ``fn(static, dynamic, task)`` is mapped over a
list of small tasks (usually item spans), where

* ``static`` is bulky read-only state fixed for the lifetime of a
  :class:`BackendSession` (the item matrix and the model's kernels —
  the engine opens **one** session per fit and it serves every phase);
* ``dynamic`` is small per-call state (current centroids and labels);
* ``task`` is the unit of work (usually a ``(start, stop)`` span).

Backends differ only in *where* the kernel runs:

``serial``
    In-process, one task at a time.  A fit runs on it through the
    same session as on any other backend; the paper's exact online
    per-item pass is legal only here (see
    :mod:`repro.engine.parallel`).
``thread``
    A :class:`~concurrent.futures.ThreadPoolExecutor`.  The chunk
    kernels spend their time in numpy, which releases the GIL, so
    threads scale for the distance-dominated phases and share
    ``static`` for free.
``process``
    A :mod:`multiprocessing` pool.  Where the platform supports the
    ``fork`` start method (Linux), workers inherit ``static`` through
    copy-on-write memory and nothing bulky is ever pickled; under
    ``spawn`` the engine routes bulky arrays through
    :class:`~repro.engine.shared.SharedArray` shared-memory segments,
    so the once-per-worker initializer pickle stays small.  Only
    ``dynamic`` and the small partial results cross the pipe per call.

Kernels must be module-level functions and their arguments picklable so
the process backend can dispatch them; the serial and thread backends
impose no such restriction but the engine keeps the discipline anyway.
"""

from __future__ import annotations

import abc
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable

from repro.engine.shared import SharedArray, ensure_cleanup_tracker
from repro.exceptions import ConfigurationError

__all__ = [
    "BACKEND_NAMES",
    "WORKER_FAILURE_EXCEPTIONS",
    "BackendSession",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "resolve_backend",
]

#: Backend names accepted by ``backend=`` parameters, in the order the
#: documentation presents them.
BACKEND_NAMES = ("serial", "thread", "process")

#: Kernel signature every backend maps over tasks.
Kernel = Callable[[Any, Any, Any], Any]

#: Exceptions meaning "the *infrastructure* under a dispatch failed"
#: (a worker died, a result was lost) as opposed to the kernel raising.
#: :class:`repro.engine.pool.PersistentPool` retries these by
#: respawning its session; kernel exceptions propagate untouched.
#: :class:`~repro.resilience.faults.InjectedPoolFault` is appended at
#: pool level so the chaos suite exercises the same path.
WORKER_FAILURE_EXCEPTIONS: tuple[type[BaseException], ...] = (BrokenProcessPool,)


def default_n_jobs() -> int:
    """Worker count used when ``n_jobs`` is not given (one per CPU)."""
    return os.cpu_count() or 1


class BackendSession(abc.ABC):
    """A worker pool bound to one ``static`` payload.

    Sessions are context managers; a fit or a server opens one and
    issues any number of :meth:`run` calls inside it.
    """

    def __enter__(self) -> "BackendSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @abc.abstractmethod
    def run(self, fn: Kernel, tasks: list, dynamic: Any = None) -> list:
        """Apply ``fn(static, dynamic, task)`` to every task, in order."""

    def run_metered(
        self, fn: Kernel, tasks: list, dynamic: Any = None
    ) -> tuple[list, list[dict]]:
        """Like :meth:`run`, but also return worker metric snapshots.

        Same-address-space sessions (serial, thread) record kernel-side
        spans straight into the caller's process-local default registry
        (:func:`repro.obs.metrics`), so there is nothing to ship: the
        base implementation returns ``(results, [])``.  The process
        session overrides this to capture each kernel call's registry
        delta inside the worker and return one snapshot per task for
        the caller to :meth:`~repro.obs.MetricsRegistry.merge` — that
        is how process-pool worker time is attributed, not lost.
        """
        return self.run(fn, tasks, dynamic), []

    def close(self) -> None:
        """Release the session's workers (idempotent)."""


class ExecutionBackend(abc.ABC):
    """Strategy object deciding where engine kernels execute."""

    #: Identifier used in ``backend=`` parameters and run statistics.
    name: str = "abstract"

    def __init__(self, n_jobs: int | None = None):
        if n_jobs is not None and n_jobs <= 0:
            raise ConfigurationError(f"n_jobs must be positive, got {n_jobs}")
        self.n_jobs = int(n_jobs) if n_jobs is not None else default_n_jobs()
        #: Sessions opened over this backend's lifetime.  The engine's
        #: contract is *one* session per fit (pools are expensive); unit
        #: tests assert it through this counter.
        self.sessions_opened = 0

    @property
    def is_parallel(self) -> bool:
        """Whether this backend runs tasks outside the calling thread."""
        return self.name != "serial"

    @property
    def inherits_static(self) -> bool:
        """Whether workers see session ``static`` without any transport.

        True for same-address-space backends (serial, thread) and for
        ``fork`` process pools (copy-on-write); False when the static
        payload must be shipped (``spawn``), in which case the engine
        routes bulky arrays through :meth:`share_array` instead.
        """
        return True

    def share_array(self, array: Any) -> SharedArray:
        """Wrap a bulky read-only array for transport to this backend's
        workers (zero-copy here; shared memory for process pools)."""
        return SharedArray.wrap(array)

    def session(self, static: Any = None) -> BackendSession:
        """Open a worker session holding ``static`` read-only state."""
        self.sessions_opened += 1
        return self._open_session(static)

    @abc.abstractmethod
    def _open_session(self, static: Any) -> BackendSession:
        """Create the concrete session (workers spin up here)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n_jobs={self.n_jobs})"


# ----------------------------------------------------------------------
# serial
# ----------------------------------------------------------------------


class _SerialSession(BackendSession):
    def __init__(self, static: Any):
        self._static = static

    def run(self, fn: Kernel, tasks: list, dynamic: Any = None) -> list:
        return [fn(self._static, dynamic, task) for task in tasks]


class SerialBackend(ExecutionBackend):
    """Run every task in the calling thread (the default)."""

    name = "serial"

    def __init__(self, n_jobs: int | None = None):
        super().__init__(1 if n_jobs is None else n_jobs)

    def _open_session(self, static: Any = None) -> BackendSession:
        return _SerialSession(static)


# ----------------------------------------------------------------------
# threads
# ----------------------------------------------------------------------


class _ThreadSession(BackendSession):
    def __init__(self, static: Any, n_jobs: int):
        self._static = static
        self._executor: ThreadPoolExecutor | None = ThreadPoolExecutor(
            max_workers=n_jobs, thread_name_prefix="repro-engine"
        )

    def run(self, fn: Kernel, tasks: list, dynamic: Any = None) -> list:
        assert self._executor is not None, "session is closed"
        static = self._static
        return list(
            self._executor.map(lambda task: fn(static, dynamic, task), tasks)
        )

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


class ThreadBackend(ExecutionBackend):
    """Run tasks on a shared-memory thread pool."""

    name = "thread"

    def _open_session(self, static: Any = None) -> BackendSession:
        return _ThreadSession(static, self.n_jobs)


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------

#: Per-worker slot for the session's static payload.  Set by
#: :func:`_init_process_worker` (from fork-inherited memory on Linux,
#: from a once-per-worker pickle elsewhere).
_PROCESS_STATIC: Any = None


def _init_process_worker(static: Any) -> None:
    global _PROCESS_STATIC
    _PROCESS_STATIC = static


def _invoke_in_process(call: tuple) -> Any:
    fn, dynamic, task = call
    return fn(_PROCESS_STATIC, dynamic, task)


def _invoke_in_process_metered(call: tuple) -> tuple[Any, dict]:
    """Run one kernel call and capture its metric delta.

    The capture swaps in a fresh default registry for exactly this
    call, so fork-inherited parent counters never leak into the
    snapshot — the returned dict is precisely what this kernel call
    recorded.  Worker processes run tasks one at a time, so the swap
    is race-free there.
    """
    from repro.obs.registry import capture_metrics

    fn, dynamic, task = call
    with capture_metrics() as captured:
        result = fn(_PROCESS_STATIC, dynamic, task)
    return result, captured.snapshot()


class _ProcessSession(BackendSession):
    def __init__(self, static: Any, n_jobs: int, start_method: str | None = None):
        # fork keeps ``static`` out of the pickle pipe entirely
        # (copy-on-write); under spawn the initializer ships it once per
        # worker — the engine routes bulky arrays through shared memory
        # so only small objects ever cross that pickle.  Workers must
        # inherit the parent's (not their own) resource tracker for the
        # shared-memory bookkeeping to balance.
        #
        # ProcessPoolExecutor rather than multiprocessing.Pool: when a
        # worker dies abruptly (SIGKILL, OOM), the executor *raises*
        # BrokenProcessPool on the pending map instead of hanging the
        # dispatch forever — which is what lets PersistentPool detect
        # worker death and respawn.  A kernel exception still
        # propagates per-task without breaking the executor.
        ensure_cleanup_tracker()
        context = multiprocessing.get_context(start_method)
        self._executor: ProcessPoolExecutor | None = ProcessPoolExecutor(
            max_workers=n_jobs,
            mp_context=context,
            initializer=_init_process_worker,
            initargs=(static,),
        )

    def run(self, fn: Kernel, tasks: list, dynamic: Any = None) -> list:
        assert self._executor is not None, "session is closed"
        return list(
            self._executor.map(
                _invoke_in_process, [(fn, dynamic, task) for task in tasks]
            )
        )

    def run_metered(
        self, fn: Kernel, tasks: list, dynamic: Any = None
    ) -> tuple[list, list[dict]]:
        assert self._executor is not None, "session is closed"
        pairs = list(
            self._executor.map(
                _invoke_in_process_metered,
                [(fn, dynamic, task) for task in tasks],
            )
        )
        return [result for result, _ in pairs], [snap for _, snap in pairs]

    def close(self) -> None:
        if self._executor is not None:
            # A broken executor's workers are already dead; shutdown
            # then just reaps bookkeeping and returns promptly.
            self._executor.shutdown(wait=True)
            self._executor = None


class ProcessBackend(ExecutionBackend):
    """Run tasks on a pool of worker processes.

    Parameters
    ----------
    n_jobs:
        Worker count (default: one per CPU).
    start_method:
        Multiprocessing start method.  Defaults to ``'fork'`` where the
        platform supports it (workers inherit session state through
        copy-on-write) and the platform default elsewhere; pass
        ``'spawn'`` explicitly to exercise the shared-memory transport
        on any platform.
    """

    name = "process"

    def __init__(self, n_jobs: int | None = None, start_method: str | None = None):
        super().__init__(n_jobs)
        available = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in available else available[0]
        elif start_method not in available:
            raise ConfigurationError(
                f"start_method must be one of {available}, got {start_method!r}"
            )
        self.start_method = start_method

    @property
    def inherits_static(self) -> bool:
        return self.start_method == "fork"

    def share_array(self, array: Any) -> SharedArray:
        # Process workers live in other address spaces: hand arrays over
        # through shared memory so they never ride the task pickles.
        return SharedArray.via_shm(array)

    def _open_session(self, static: Any = None) -> BackendSession:
        return _ProcessSession(static, self.n_jobs, self.start_method)


# ----------------------------------------------------------------------
# resolution
# ----------------------------------------------------------------------

_BACKEND_CLASSES: dict[str, type[ExecutionBackend]] = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "process": ProcessBackend,
}


def resolve_backend(
    name: str, n_jobs: int | None = None, start_method: str | None = None
) -> ExecutionBackend:
    """Build the :class:`ExecutionBackend` a ``backend=`` name describes.

    Parameters
    ----------
    name:
        A backend name from :data:`BACKEND_NAMES`.
    n_jobs:
        Worker count; defaults to one worker per CPU for the parallel
        backends and to 1 for serial.
    start_method:
        Multiprocessing start method, for ``'process'`` only.
    """
    cls = _BACKEND_CLASSES.get(name)
    if cls is None:
        raise ConfigurationError(
            f"unknown backend {name!r}; choose from {BACKEND_NAMES}"
        )
    if start_method is None:
        return cls(n_jobs)
    if cls is not ProcessBackend:
        raise ConfigurationError(
            f"start_method applies to backend='process' only, got {name!r}"
        )
    return ProcessBackend(n_jobs, start_method=start_method)
