"""Admission control + micro-batching in front of the serving path.

A stdlib ``ThreadingHTTPServer`` gives every connection its own thread,
so under overload a naive server grows threads without bound and every
request gets slower together.  :class:`AdmissionQueue` inverts that
shape into the classic bounded-queue server:

* **Admission.**  ``submit`` either enqueues the request or rejects it
  *immediately* — :class:`~repro.exceptions.OverloadedError` when
  ``max_queue_depth`` requests are already waiting (with a
  ``retry_after_s`` hint estimated from recent wave latency), or
  :class:`~repro.exceptions.ServerClosedError` once the queue is
  closed or draining.  An overloaded server answers fast; it never
  hangs a connection.
* **Micro-batching.**  ``max_in_flight`` dispatcher threads drain the
  queue in *waves*: concurrent small requests (the 1–100-row shape
  millions of users produce) are concatenated into one matrix of at
  most ``max_wave_rows`` rows and answered by a single ``execute``
  call — which is the server's chunked predict dispatch, so one wave
  fans out across the persistent pool via
  :func:`repro.engine.chunking.chunk_ranges` exactly like one large
  batch.  Row order within a wave is submission order, so the labels
  split back per request by offset; batching never changes a label.
* **Deadlines.**  With ``deadline_ms`` configured, a submitter waits at
  most that long — covering queue time *and* execution — then raises
  :class:`~repro.exceptions.DeadlineExceededError` and abandons the
  request (a wave already executing completes harmlessly; its result
  is discarded).  Requests found expired while still queued are
  answered with the same error without ever touching the pool.

The queue is transport-agnostic: ``ModelServer`` routes ``predict``
through it whenever its :class:`~repro.api.ResilienceSpec` is set, so
NDJSON, HTTP and in-process callers share one overload story.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable

import numpy as np

from repro.exceptions import (
    DeadlineExceededError,
    OverloadedError,
    ServerClosedError,
)

__all__ = ["AdmissionQueue"]

#: Reasons recorded on ``repro_queue_rejections_total``.
REJECTION_REASONS = ("queue_full", "deadline", "closed")

#: Floor/ceiling on the ``Retry-After`` estimate (seconds).
_MIN_RETRY_AFTER_S = 0.05
_MAX_RETRY_AFTER_S = 30.0

#: Cold-start value of the wave-latency EWMA, and the resting point the
#: estimate decays back to while the server sits idle.
_EWMA_SEED_WAVE_S = 0.1

#: Half-life of that idle decay: every this-many idle seconds the
#: EWMA's distance from the seed halves.
_RETRY_DECAY_HALFLIFE_S = 5.0


class _Pending:
    """One queued request: its matrix, its deadline, its outcome."""

    __slots__ = ("X", "n_rows", "deadline", "event", "labels", "error", "abandoned")

    def __init__(self, X: np.ndarray, deadline: float | None):
        self.X = X
        self.n_rows = int(X.shape[0])
        self.deadline = deadline
        self.event = threading.Event()
        self.labels: np.ndarray | None = None
        self.error: BaseException | None = None
        self.abandoned = False

    def fulfil(self, labels: np.ndarray | None, error: BaseException | None) -> None:
        self.labels = labels
        self.error = error
        self.event.set()


class AdmissionQueue:
    """Bounded request queue + micro-batch dispatcher (see module doc).

    Parameters
    ----------
    execute:
        ``execute(matrix) -> labels`` — the raw (already-validated)
        predict dispatch.  Called from dispatcher threads, at most
        ``max_in_flight`` concurrently.
    max_queue_depth:
        Requests allowed to wait; the next one is rejected.
    max_in_flight:
        Dispatcher threads, i.e. concurrent predict waves.
    max_wave_rows:
        Row cap per concatenated wave (the server passes its
        ``max_batch``, which also bounds the process-backend request
        buffer).
    deadline_ms:
        Per-request deadline covering queue wait + execution
        (``None``: requests wait indefinitely).
    batch_window_ms:
        Extra linger after the first request of a wave arrives, giving
        concurrent submitters time to coalesce.  ``0`` (default) drains
        only what is already queued — no added latency when idle.
    registry:
        A :class:`~repro.obs.MetricsRegistry` for the queue-depth
        gauge, wave histograms and rejection counters (``None``: no
        metrics).
    clock:
        Injectable monotonic clock for deterministic tests.  Deadlines
        expire by this clock, not by the time a submitter has waited.
    """

    def __init__(
        self,
        execute: Callable[[np.ndarray], np.ndarray],
        *,
        max_queue_depth: int,
        max_in_flight: int,
        max_wave_rows: int,
        deadline_ms: int | None = None,
        batch_window_ms: int = 0,
        registry=None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._execute = execute
        self._max_queue_depth = int(max_queue_depth)
        self._max_in_flight = int(max_in_flight)
        self._max_wave_rows = int(max_wave_rows)
        self._deadline_s = None if deadline_ms is None else deadline_ms / 1000.0
        self._window_s = batch_window_ms / 1000.0
        self._registry = registry
        self._clock = clock
        self._queue: deque[_Pending] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._busy = 0  # waves currently executing
        self._ewma_wave_s = _EWMA_SEED_WAVE_S  # seeds the Retry-After estimate
        self._last_wave_at = clock()  # anchors the idle decay
        if registry is not None:
            self._init_instruments()
        self._threads = [
            threading.Thread(
                target=self._dispatch_loop,
                name=f"repro-admission-{i}",
                daemon=True,
            )
            for i in range(self._max_in_flight)
        ]
        for thread in self._threads:
            thread.start()

    # -- metrics ---------------------------------------------------------

    def _init_instruments(self) -> None:
        """Eagerly register the queue families (stable scrape schema)."""
        from repro.obs import DEFAULT_SIZE_BUCKETS

        registry = self._registry
        registry.gauge(
            "repro_queue_depth", help="Requests waiting for a predict wave."
        )
        for reason in REJECTION_REASONS:
            registry.counter(
                "repro_queue_rejections_total",
                help="Requests rejected by admission control, by reason.",
                labels={"reason": reason},
            )
        registry.counter(
            "repro_waves_total", help="Micro-batch predict waves executed."
        )
        for name, help_text in (
            ("repro_wave_requests", "Requests coalesced per predict wave."),
            ("repro_wave_rows", "Rows per concatenated predict wave."),
        ):
            registry.histogram(
                name, help=help_text, buckets=DEFAULT_SIZE_BUCKETS
            )

    def _set_depth(self, depth: int) -> None:
        if self._registry is not None:
            self._registry.gauge("repro_queue_depth").set(float(depth))

    def _count_rejection(self, reason: str) -> None:
        if self._registry is not None:
            self._registry.counter(
                "repro_queue_rejections_total", labels={"reason": reason}
            ).inc()

    def _observe_wave(self, n_requests: int, n_rows: int, elapsed_s: float) -> None:
        # EWMA of wave latency feeds the Retry-After estimate; cheap
        # and lock-free (a stale read only skews a hint).
        self._ewma_wave_s = 0.8 * self._ewma_wave_s + 0.2 * elapsed_s
        self._last_wave_at = self._clock()
        if self._registry is None:
            return
        from repro.obs import DEFAULT_SIZE_BUCKETS

        self._registry.counter("repro_waves_total").inc()
        self._registry.histogram(
            "repro_wave_requests", buckets=DEFAULT_SIZE_BUCKETS
        ).observe(float(n_requests))
        self._registry.histogram(
            "repro_wave_rows", buckets=DEFAULT_SIZE_BUCKETS
        ).observe(float(n_rows))

    # -- admission -------------------------------------------------------

    @property
    def depth(self) -> int:
        """Requests currently waiting (excludes executing waves)."""
        with self._cond:
            return len(self._queue)

    @property
    def closed(self) -> bool:
        return self._closed

    def retry_after_s(self) -> float:
        """When a rejected client should try again (a coarse estimate).

        Current backlog times recent wave latency, spread across the
        dispatchers — clamped to a sane range so a cold or quiet
        server never advertises silly values.

        The wave-latency EWMA only moves when waves complete, so after
        a congested burst a naive estimate would keep advertising the
        burst's latency while the server sits empty.  Once the queue
        has drained and nothing is in flight, the EWMA decays toward
        its seed with half-life :data:`_RETRY_DECAY_HALFLIFE_S`, so
        the hint shrinks the longer the server has been quiet.
        """
        now = self._clock()
        if not self._queue and self._busy == 0:
            idle = now - self._last_wave_at
            if idle > 0.0:
                self._ewma_wave_s = _EWMA_SEED_WAVE_S + (
                    self._ewma_wave_s - _EWMA_SEED_WAVE_S
                ) * 0.5 ** (idle / _RETRY_DECAY_HALFLIFE_S)
                self._last_wave_at = now
        backlog = len(self._queue) + 1
        estimate = self._ewma_wave_s * backlog / self._max_in_flight
        return float(
            min(_MAX_RETRY_AFTER_S, max(_MIN_RETRY_AFTER_S, estimate))
        )

    def submit(self, X: np.ndarray, deadline_s: float | None = None) -> np.ndarray:
        """Queue one validated batch; block until labels or a verdict.

        Raises :class:`~repro.exceptions.OverloadedError` immediately
        on a full queue, :class:`~repro.exceptions.ServerClosedError`
        once closed, and
        :class:`~repro.exceptions.DeadlineExceededError` when the
        per-request deadline (``deadline_s`` override, else the
        configured ``deadline_ms``) expires first.
        """
        if deadline_s is None:
            deadline_s = self._deadline_s
        deadline = None if deadline_s is None else self._clock() + deadline_s
        with self._cond:
            if self._closed:
                self._count_rejection("closed")
                raise ServerClosedError(
                    "the admission queue is closed; this server is "
                    "shutting down"
                )
            if len(self._queue) >= self._max_queue_depth:
                retry_after = self.retry_after_s()
                self._count_rejection("queue_full")
                raise OverloadedError(
                    f"admission queue is full ({self._max_queue_depth} "
                    f"requests waiting); retry in ~{retry_after:.2f}s",
                    retry_after_s=retry_after,
                )
            pending = _Pending(X, deadline)
            self._queue.append(pending)
            self._set_depth(len(self._queue))
            self._cond.notify()
        # A timed-out wait expires the request only once the queue's
        # clock has passed the deadline; until then it waits again.
        while not pending.event.wait(
            None if deadline is None else max(0.0, deadline - self._clock())
        ):
            if self._clock() >= deadline:
                pending.abandoned = True
                self._count_rejection("deadline")
                raise DeadlineExceededError(
                    f"request missed its {deadline_s * 1000:.0f}ms deadline "
                    "(queue wait + execution); the result, if any, was "
                    "discarded"
                )
        if pending.error is not None:
            raise pending.error
        assert pending.labels is not None
        return pending.labels

    # -- dispatch --------------------------------------------------------

    def _take_wave(self) -> list[_Pending] | None:
        """Block for the next wave; ``None`` when closed and drained."""
        with self._cond:
            while not self._queue:
                if self._closed:
                    return None
                self._cond.wait()
            wave = [self._queue.popleft()]
            rows = wave[0].n_rows
            if self._window_s > 0 and not self._closed and not self._queue:
                # Linger briefly so concurrent submitters coalesce.
                linger_until = self._clock() + self._window_s
                while not self._queue and not self._closed:
                    remaining = linger_until - self._clock()
                    if remaining <= 0:
                        break
                    self._cond.wait(timeout=remaining)
            while self._queue and rows + self._queue[0].n_rows <= self._max_wave_rows:
                nxt = self._queue.popleft()
                wave.append(nxt)
                rows += nxt.n_rows
            self._set_depth(len(self._queue))
            self._busy += 1
            return wave

    def _dispatch_loop(self) -> None:
        while True:
            wave = self._take_wave()
            if wave is None:
                return
            try:
                self._run_wave(wave)
            finally:
                with self._cond:
                    self._busy -= 1
                    self._cond.notify_all()

    def _run_wave(self, wave: list[_Pending]) -> None:
        now = self._clock()
        live: list[_Pending] = []
        for pending in wave:
            if pending.abandoned or (
                pending.deadline is not None and now > pending.deadline
            ):
                # Expired while queued: answer without touching the pool.
                pending.fulfil(
                    None,
                    DeadlineExceededError(
                        "request expired while queued; it never reached "
                        "the pool"
                    ),
                )
            else:
                live.append(pending)
        if not live:
            return
        start = self._clock()
        try:
            if len(live) == 1:
                labels = self._execute(live[0].X)
                results = [labels]
            else:
                stacked = np.concatenate([pending.X for pending in live])
                labels = self._execute(stacked)
                offsets = np.cumsum([pending.n_rows for pending in live])[:-1]
                results = np.split(labels, offsets)
        except BaseException as exc:
            for pending in live:
                pending.fulfil(None, exc)
            return
        self._observe_wave(
            len(live), sum(p.n_rows for p in live), self._clock() - start
        )
        for pending, chunk in zip(live, results):
            pending.fulfil(chunk, None)

    # -- lifecycle -------------------------------------------------------

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop admitting; optionally drain what is queued, then reject.

        With ``drain=True`` the call blocks until every queued request
        and in-flight wave has been answered — bounded by ``timeout``
        seconds when given.  Anything still unanswered afterwards (and
        everything, with ``drain=False``) is fulfilled with
        :class:`~repro.exceptions.ServerClosedError`.  Idempotent.
        """
        with self._cond:
            already = self._closed
            self._closed = True
            self._cond.notify_all()
        if drain and not already:
            limit = None if timeout is None else self._clock() + timeout
            with self._cond:
                while self._queue or self._busy:
                    remaining = None if limit is None else limit - self._clock()
                    if remaining is not None and remaining <= 0:
                        break
                    self._cond.wait(timeout=remaining)
        with self._cond:
            leftovers = list(self._queue)
            self._queue.clear()
            self._set_depth(0)
            self._cond.notify_all()
        for pending in leftovers:
            pending.fulfil(
                None,
                ServerClosedError(
                    "the server shut down before this request ran"
                ),
            )
        for thread in self._threads:
            thread.join(timeout=5.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"depth={self.depth}"
        return (
            f"AdmissionQueue(max_queue_depth={self._max_queue_depth}, "
            f"max_in_flight={self._max_in_flight}, {state})"
        )
