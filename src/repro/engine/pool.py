"""Persistent worker pools: one pool, many dispatches, explicit lifetime.

A fit ties a worker pool's lifetime to itself
(:class:`~repro.engine.parallel.FitSession`).  Serving breaks
that shape: a :class:`repro.serve.ModelServer` answers an unbounded
stream of predict batches and must keep its workers warm *across*
calls.  :class:`PersistentPool` is the lifetime-owning object both
sides now share:

* it opens exactly one :class:`~repro.engine.backends.BackendSession`
  over a backend (counted by ``backend.sessions_opened``, which is how
  the one-pool-per-fit and one-pool-per-server contracts are asserted
  in tests — respawns after a worker death open additional sessions,
  by design);
* it tracks every :class:`~repro.engine.shared.SharedArray` segment
  created through :meth:`share` and releases them all at :meth:`close`
  — shared memory cannot outlive the pool that shipped it.  A
  :mod:`weakref` finalizer backs the close path, so segments are
  unlinked even when a crash leaves the pool to the garbage collector;
* :meth:`run` may be called any number of times, from any thread
  (the underlying executors serialise dispatch internally), and a
  kernel exception leaves the pool usable — the failed call raises,
  the next call proceeds;
* **worker death does not poison the pool**: when a dispatch fails
  with an infrastructure error (a worker SIGKILLed mid-chunk surfaces
  as ``BrokenProcessPool``), :meth:`run` respawns the session and
  retries the whole call under a
  :class:`~repro.resilience.retry.RetryPolicy` — kernels are pure, so
  re-running every chunk of the failed call is correct.  Adopted shm
  segments need no re-sharing: workers attach lazily by *name*, so
  existing handles stay valid in the fresh workers.  After the retry
  budget is spent the pool degrades to running the kernels in-process
  (``degrade='serial'``) or raises
  :class:`~repro.exceptions.PoolBrokenError` (``degrade='error'``).
  Restarts and degraded calls are counted on
  ``repro_pool_restarts_total`` / ``repro_degraded_requests_total``;
* :meth:`close` is idempotent, and the module-level
  :func:`live_pool_count` lets leak tests assert that every pool
  opened in a block was torn down.
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Any

import numpy as np

from repro.engine.backends import (
    WORKER_FAILURE_EXCEPTIONS,
    ExecutionBackend,
    Kernel,
)
from repro.engine.shared import SharedArray
from repro.exceptions import ConfigurationError, PoolBrokenError, ServerClosedError
from repro.resilience.faults import InjectedPoolFault, active_faults, faulted_kernel
from repro.resilience.retry import RetryPolicy

__all__ = ["PersistentPool", "live_pool_count"]

#: Degrade policies accepted by :class:`PersistentPool`.
DEGRADE_POLICIES = ("serial", "error")

#: Exceptions that mean the dispatch *infrastructure* failed (vs the
#: kernel raising): worker death from the backend, plus the chaos
#: suite's injected lost-result stand-in.
_POOL_FAILURES = WORKER_FAILURE_EXCEPTIONS + (InjectedPoolFault,)

_LIVE_LOCK = threading.Lock()
_LIVE_POOLS = 0


def _count_pool(delta: int) -> None:
    global _LIVE_POOLS
    with _LIVE_LOCK:
        _LIVE_POOLS += delta


def live_pool_count() -> int:
    """Pools currently open in this process (0 when nothing leaks)."""
    with _LIVE_LOCK:
        return _LIVE_POOLS


def _release_handles(handles: list) -> None:
    """Finalizer target: release whatever segments are still tracked.

    Module-level and fed the mutable handle *list* (never the pool, or
    the finalizer would keep it alive); runs at :meth:`close`, or from
    the GC if a pool is dropped without closing — either way every
    adopted segment is unlinked instead of leaking until interpreter
    exit.
    """
    for handle in handles:
        try:
            handle.release()
        except Exception:  # pragma: no cover - best-effort teardown
            pass
    handles.clear()


class PersistentPool:
    """A worker pool bound to one static payload, alive until closed.

    Parameters
    ----------
    backend:
        The :class:`~repro.engine.backends.ExecutionBackend` whose
        workers execute dispatched kernels.  Serial backends are legal
        (the "pool" then runs in-process), so callers need one code
        path.
    static:
        Bulky read-only state pinned for the pool's lifetime (workers
        see it via fork copy-on-write, a once-per-worker pickle under
        spawn, or directly in shared address spaces).  Kept by the pool
        so a respawned session — and the serial degrade path — can
        rebuild worker state.
    handles:
        Already-created :class:`~repro.engine.shared.SharedArray`
        segments whose lifetime this pool adopts: released at
        :meth:`close` (finalizer-backed), or immediately if opening
        the session fails (no session means no close would ever run).
    metrics:
        Where kernel-side metrics recorded in *process* workers merge
        after each dispatch: a :class:`~repro.obs.MetricsRegistry`,
        ``True`` for the caller's process-local default registry
        (resolved per dispatch), or ``None``/``False`` to skip the
        snapshot shipping entirely.  Serial and thread workers share
        the caller's address space, so their kernels always reach the
        default registry directly regardless of this setting.  Restart
        and degrade counters are recorded on the given registry when
        one is passed, else on the process default — worker death is
        never invisible.
    retry_policy:
        Backoff schedule for respawn-and-retry after an infrastructure
        failure (default: :class:`~repro.resilience.retry.RetryPolicy`
        defaults — 2 retries, 50 ms doubling to 2 s, 10 % jitter).
    degrade:
        What happens once retries are exhausted: ``'serial'`` (default)
        runs the failed call's kernels in-process and answers anyway;
        ``'error'`` raises :class:`~repro.exceptions.PoolBrokenError`.
    """

    def __init__(
        self,
        backend: ExecutionBackend,
        static: Any = None,
        handles: tuple[SharedArray, ...] = (),
        metrics: Any = None,
        retry_policy: RetryPolicy | None = None,
        degrade: str = "serial",
    ):
        if degrade not in DEGRADE_POLICIES:
            raise ConfigurationError(
                f"degrade must be one of {DEGRADE_POLICIES}, got {degrade!r}"
            )
        self.backend = backend
        self._static = static
        # note: an *empty* registry is falsy (len 0) but still a target
        self._metrics = None if metrics is None or metrics is False else metrics
        self._retry_policy = retry_policy or RetryPolicy()
        self._degrade_policy = degrade
        self._handles: list[SharedArray] = list(handles)
        self._handle_lock = threading.Lock()
        # The finalizer owns segment teardown: close() invokes it
        # explicitly, the GC invokes it if a crashed caller never does.
        # It must see the same list object share() appends to, which is
        # why the handle list is only ever mutated in place.
        self._finalizer = weakref.finalize(self, _release_handles, self._handles)
        try:
            self._session = backend.session(static)
        except BaseException:
            self._finalizer()
            raise
        self._closed = False
        self._close_lock = threading.Lock()
        self._generation = 0
        self._restart_lock = threading.Lock()
        registry = self._resilience_registry(create_default=False)
        if registry is not None:
            self._init_resilience_instruments(registry)
        _count_pool(+1)
        # A pool reclaimed by the GC without close() is no longer live:
        # the leak counter must drop either way.  weakref.finalize runs
        # at most once, so close() calling it too cannot double-count.
        self._count_finalizer = weakref.finalize(self, _count_pool, -1)

    # -- metrics ---------------------------------------------------------

    def _resilience_registry(self, create_default: bool = True):
        """Registry for restart/degrade counters (never ``None`` unless
        ``create_default=False`` and no concrete registry was given)."""
        if self._metrics is not None and self._metrics is not True:
            return self._metrics
        if not create_default:
            return None
        from repro.obs.registry import metrics as default_registry

        return default_registry()

    @staticmethod
    def _init_resilience_instruments(registry) -> None:
        """Eagerly register the fault families (stable scrape schema)."""
        registry.counter(
            "repro_pool_restarts_total",
            help="Worker-pool sessions respawned after an infrastructure "
            "failure.",
        )
        registry.counter(
            "repro_degraded_requests_total",
            help="Dispatches answered by the in-process serial fallback "
            "after the retry budget was exhausted.",
        )

    # -- lifecycle -------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def restarts(self) -> int:
        """Sessions respawned over this pool's lifetime."""
        return self._generation

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Release the workers and every tracked segment.

        Idempotent and safe to race: exactly one caller tears down.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._count_finalizer()
        try:
            self._session.close()
        finally:
            self._finalizer()

    def _check_open(self) -> None:
        if self._closed:
            raise ServerClosedError("this PersistentPool is closed")

    # -- transport -------------------------------------------------------

    def share(self, array: np.ndarray) -> SharedArray:
        """Ship ``array`` to this pool's workers (released at close).

        Uses the backend's transport: zero-copy wrapping for shared
        address spaces, a named shared-memory segment for process
        pools.  The handle may ride inside any later ``dynamic`` tuple
        — including after a respawn, because workers attach segments
        lazily by name.
        """
        self._check_open()
        handle = self.backend.share_array(array)
        with self._handle_lock:
            self._handles.append(handle)
        return handle

    # -- dispatch --------------------------------------------------------

    def run(self, fn: Kernel, tasks: list, dynamic: Any = None) -> list:
        """Apply ``fn(static, dynamic, task)`` to every task, in order.

        A kernel exception propagates to the caller but does not poison
        the pool: subsequent :meth:`run` calls work normally.  An
        *infrastructure* failure (worker death) is retried under the
        pool's :class:`~repro.resilience.retry.RetryPolicy` with a
        session respawn per attempt, then handled per the degrade
        policy — see the class docstring.
        """
        self._check_open()
        # Fault-injection wrapping (chaos tests): route every kernel
        # call through the armed plan's counter.  Production pays one
        # module-global read.
        if active_faults() is not None:
            run_fn: Kernel = faulted_kernel
            run_tasks: list = [(fn, task) for task in tasks]
        else:
            run_fn, run_tasks = fn, tasks
        schedule = self._retry_policy.schedule()
        attempt = 0
        while True:
            generation = self._generation
            try:
                return self._dispatch(run_fn, run_tasks, dynamic)
            except _POOL_FAILURES as exc:
                attempt += 1
                if attempt > self._retry_policy.max_retries:
                    return self._degrade(fn, tasks, dynamic, exc)
                self._respawn(generation)
                delay_s = next(schedule)
                if delay_s > 0:
                    time.sleep(delay_s)

    def _dispatch(self, fn: Kernel, tasks: list, dynamic: Any) -> list:
        """One raw session dispatch (plus worker metric merging)."""
        if self._metrics is None:
            return self._session.run(fn, tasks, dynamic)
        results, snapshots = self._session.run_metered(fn, tasks, dynamic)
        if snapshots:
            target = self._resilience_registry()
            for snapshot in snapshots:
                target.merge(snapshot)
        return results

    def _respawn(self, seen_generation: int) -> None:
        """Replace a broken session with a fresh one, exactly once.

        Concurrent threads that all watched the same session die race
        here; the generation check makes the first one rebuild and the
        rest reuse its work, so ``repro_pool_restarts_total`` counts
        actual respawns, not observers.
        """
        with self._restart_lock:
            if self._closed:
                raise ServerClosedError("this PersistentPool is closed")
            if self._generation != seen_generation:
                return  # another thread already respawned this session
            old_session = self._session
            try:
                self._session = self.backend.session(self._static)
            except BaseException as exc:
                raise PoolBrokenError(
                    f"respawning the {self.backend.name!r} worker pool "
                    f"failed: {exc}"
                ) from exc
            self._generation += 1
            self._resilience_registry().counter(
                "repro_pool_restarts_total"
            ).inc()
        try:
            old_session.close()
        except Exception:  # pragma: no cover - broken sessions may gripe
            pass

    def _degrade(
        self, fn: Kernel, tasks: list, dynamic: Any, cause: BaseException
    ) -> list:
        """Retry budget spent: answer in-process or raise, per policy.

        Runs the *unwrapped* kernel — the fault plan applies to pool
        dispatches, not the fallback — so an injected fault schedule
        can never SIGKILL the caller's own process from here.
        """
        if self._degrade_policy == "error":
            raise PoolBrokenError(
                f"the {self.backend.name!r} worker pool failed "
                f"{self._retry_policy.max_retries + 1} consecutive "
                f"dispatch attempts (last error: {cause}); degrade "
                "policy is 'error'"
            ) from cause
        self._resilience_registry().counter(
            "repro_degraded_requests_total"
        ).inc()
        return [fn(self._static, dynamic, task) for task in tasks]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"PersistentPool(backend={self.backend.name!r}, {state}, "
            f"restarts={self._generation})"
        )
