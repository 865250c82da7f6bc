"""Chaos suite: injected worker faults against the real serving stack.

The load-bearing assertion everywhere: a fault schedule may slow a
request down or turn it into a *structured* error, but it may never
change a label.  Kill faults (real ``SIGKILL`` mid-chunk) only run on
the process backend; drop faults simulate the same lost-result failure
on serial/thread backends, which is what lets the hypothesis sweep run
whole schedules in milliseconds.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

# The autouse no-leak fixture is idempotent across hypothesis examples
# (each example arms and disarms its own plan), so the function-scoped
# fixture health check does not apply.
_CHAOS_SETTINGS = dict(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

from repro.api import ResilienceSpec, ServeSpec
from repro.engine import PersistentPool, SerialBackend, ThreadBackend
from repro.exceptions import (
    DeadlineExceededError,
    OverloadedError,
    PoolBrokenError,
)
from repro.obs import MetricsRegistry
from repro.resilience import FaultPlan, RetryPolicy, inject_faults
from repro.serve import ModelServer, error_descriptor

#: A retry policy chaos tests share: real retries, negligible sleeps.
FAST_RETRIES = RetryPolicy(
    max_retries=2, backoff_ms=1.0, backoff_max_ms=2.0, jitter=0.0
)


def _double(static, dynamic, task):
    return task * 2


class TestKillMidBatch:
    """The acceptance criterion: SIGKILL a worker mid-batch, recover."""

    def test_predict_recovers_bit_identical_with_one_restart(
        self, served_artifact
    ):
        model, X = served_artifact
        expected = model.predict(X[:120])
        spec = ServeSpec(
            backend="process",
            n_jobs=2,
            chunk_items=16,
            max_batch=512,
            resilience=ResilienceSpec(
                seed=0, backoff_ms=1.0, backoff_max_ms=2.0, jitter=0.0
            ),
        )
        # Arm before the server exists: fork workers inherit the plan
        # (and its shared chunk counter) at pool-creation time.
        with inject_faults(FaultPlan(kill_on_chunks=(2,))) as state:
            with ModelServer(model, spec) as server:
                labels = server.predict(X[:120])
                assert np.array_equal(labels, expected)
                assert server._pool.restarts == 1
                assert (
                    server.metrics.counter("repro_pool_restarts_total").value
                    == 1.0
                )
                # The killed attempt plus the clean retry both counted.
                assert state.chunks_seen > 2
                # Recovery is durable, not one-shot.
                again = server.predict(X[120:180])
                assert np.array_equal(again, model.predict(X[120:180]))
                assert server._pool.restarts == 1


class TestDeadlines:
    def test_deadline_expiry_does_not_poison_the_pool(self, served_artifact):
        model, X = served_artifact
        spec = ServeSpec(
            backend="thread",
            n_jobs=2,
            resilience=ResilienceSpec(deadline_ms=100),
        )
        with ModelServer(model, spec) as server:
            with inject_faults(FaultPlan(delay_s=0.5)) as faults:
                # The queue's clock reads 0 s until the first delayed
                # kernel call starts and 1 s from then on.  The first
                # request's wave is past the dispatcher's expiry check
                # by then, so the request misses its 100 ms deadline
                # while the wave sleeps; the recovery request below
                # starts at 1 s and cannot miss its own, however long
                # it takes on the wall clock.
                server._queue._clock = lambda: 1.0 if faults.chunks_seen else 0.0
                with pytest.raises(DeadlineExceededError):
                    server.predict(X[:8])
            # The abandoned wave still occupies the pool's worker
            # threads until its injected sleeps finish; wait it out so
            # the recovery request runs on a quiet pool.
            deadline = time.monotonic() + 10
            while server._queue._busy:
                assert time.monotonic() < deadline, "stale wave never drained"
                time.sleep(0.01)
            # The slow wave was discarded; a fresh request gets a
            # fresh, fast wave.
            labels = server.predict(X[:8])
            assert np.array_equal(labels, model.predict(X[:8]))
            rejections = server.metrics.counter(
                "repro_queue_rejections_total", labels={"reason": "deadline"}
            )
            assert rejections.value == 1.0


class TestOverload:
    def test_full_queue_rejects_structured_and_immediate(self, served_artifact):
        model, X = served_artifact
        spec = ServeSpec(
            backend="thread",
            n_jobs=2,
            resilience=ResilienceSpec(max_queue_depth=1, max_in_flight=1),
        )
        with ModelServer(model, spec) as server:
            with inject_faults(FaultPlan(delay_s=0.3)):
                boxes = []

                def submit():
                    box = {}
                    boxes.append(box)
                    try:
                        box["labels"] = server.predict(X[:4])
                    except BaseException as exc:  # noqa: BLE001
                        box["error"] = exc

                threads = [
                    threading.Thread(target=submit, daemon=True)
                    for _ in range(2)
                ]
                threads[0].start()  # goes in flight
                deadline = time.monotonic() + 5
                while server._queue._busy == 0:
                    assert time.monotonic() < deadline
                    time.sleep(0.002)
                threads[1].start()  # fills the one queue slot
                deadline = time.monotonic() + 5
                while server._queue.depth < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.002)
                started = time.monotonic()
                with pytest.raises(OverloadedError) as excinfo:
                    server.predict(X[:4])
                assert time.monotonic() - started < 1.0
                status, error = error_descriptor(excinfo.value)
                assert status == 429
                assert error["code"] == "overloaded"
                assert error["retry_after_s"] >= 0.05
                for thread in threads:
                    thread.join(timeout=30)
                # Queued requests still answered correctly (the delay
                # fault slows chunks; it never corrupts them).
                expected = model.predict(X[:4])
                for box in boxes:
                    assert np.array_equal(box["labels"], expected)
            counter = server.metrics.counter(
                "repro_queue_rejections_total", labels={"reason": "queue_full"}
            )
            assert counter.value == 1.0


class TestDegrade:
    def test_exhausted_retries_degrade_to_serial_and_still_answer(
        self, served_artifact
    ):
        model, X = served_artifact
        spec = ServeSpec(
            backend="thread",
            n_jobs=2,
            resilience=ResilienceSpec(
                max_retries=1, backoff_ms=0.0, backoff_max_ms=0.0, jitter=0.0
            ),
        )
        # Drop every chunk the pool dispatches: both attempts fail, the
        # serial fallback (which the plan does not wrap) answers.
        with ModelServer(model, spec) as server:
            with inject_faults(FaultPlan(drop_on_chunks=tuple(range(1, 64)))):
                labels = server.predict(X[:24])
            assert np.array_equal(labels, model.predict(X[:24]))
            assert (
                server.metrics.counter("repro_degraded_requests_total").value
                == 1.0
            )
            assert server._pool.restarts == 1  # one respawn before giving up

    def test_degrade_error_surfaces_as_pool_broken(self, served_artifact):
        model, X = served_artifact
        spec = ServeSpec(
            backend="thread",
            n_jobs=2,
            resilience=ResilienceSpec(
                max_retries=1,
                backoff_ms=0.0,
                backoff_max_ms=0.0,
                jitter=0.0,
                degrade="error",
            ),
        )
        with ModelServer(model, spec) as server:
            with inject_faults(FaultPlan(drop_on_chunks=tuple(range(1, 64)))):
                with pytest.raises(PoolBrokenError) as excinfo:
                    server.predict(X[:24])
            status, error = error_descriptor(excinfo.value)
            assert status == 500
            assert error["code"] == "pool_broken"
            # The broken dispatch did not wedge the server: with the
            # plan cleared, the respawned pool serves normally.
            labels = server.predict(X[:24])
            assert np.array_equal(labels, model.predict(X[:24]))


class TestFaultScheduleProperty:
    """Any drop schedule → correct answer or structured error, never both
    wrong and silent."""

    @settings(max_examples=30, **_CHAOS_SETTINGS)
    @given(
        drops=st.sets(st.integers(min_value=1, max_value=12), max_size=4),
        degrade=st.sampled_from(["serial", "error"]),
    )
    def test_pool_never_returns_a_wrong_answer(self, drops, degrade):
        plan = FaultPlan(drop_on_chunks=tuple(sorted(drops)))
        policy = RetryPolicy(
            max_retries=2, backoff_ms=0.0, backoff_max_ms=0.0, jitter=0.0
        )
        registry = MetricsRegistry()
        with inject_faults(plan):
            with PersistentPool(
                SerialBackend(),
                metrics=registry,
                retry_policy=policy,
                degrade=degrade,
            ) as pool:
                try:
                    result = pool.run(_double, [1, 2, 3])
                except PoolBrokenError as exc:
                    assert degrade == "error"
                    status, error = error_descriptor(exc)
                    assert status == 500 and error["code"] == "pool_broken"
                else:
                    # Serial degrade guarantees an answer; either way a
                    # returned answer must be the right one.
                    assert result == [2, 4, 6]

    @settings(max_examples=10, **_CHAOS_SETTINGS)
    @given(drops=st.sets(st.integers(min_value=1, max_value=8), max_size=2))
    def test_thread_pool_agrees_with_serial_under_faults(self, drops):
        plan = FaultPlan(drop_on_chunks=tuple(sorted(drops)))
        policy = RetryPolicy(
            max_retries=3, backoff_ms=0.0, backoff_max_ms=0.0, jitter=0.0
        )
        with inject_faults(plan):
            with PersistentPool(
                ThreadBackend(n_jobs=2), retry_policy=policy
            ) as pool:
                assert pool.run(_double, [5, 6]) == [10, 12]
