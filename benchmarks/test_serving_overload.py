"""Open-loop overload bench: 4× sustained capacity against the SLO.

The resilience acceptance scenario: calibrate the server's sustained
closed-loop capacity, with as many closed-loop clients as the server
holds in service (``max_in_flight`` waves of up to ``max_batch`` rows),
then drive an *open-loop* request stream at 4× that rate — arrivals
keep their schedule whether or not earlier requests finished, which is
what real overload looks like.  One client alone leaves the second
wave and the coalescing idle, so "4×" of its rate can fit within what
the server absorbs.  A server
with admission control must then

* answer every accepted request within its deadline (the SLO bound on
  accepted-request p95 latency),
* shed the excess load *immediately* with the structured taxonomy
  (429 ``overloaded`` / 503 ``shutting_down`` / 504
  ``deadline_exceeded``), never with an unexplained exception,
* hang zero connections: every fired request resolves, one way or the
  other, within a bounded grace window.

Those three are asserted unconditionally — they are contracts, not
timings.  The results merge into ``benchmarks/results/BENCH_serve.json``
under an ``"slo"`` key (read-modify-write, so the throughput bench's
sections survive).  ``REPRO_BENCH_SMOKE=1`` (or CI) shrinks the
workload so the chaos-smoke job finishes in seconds.

The open loop fires from a fixed set of sender threads, started before
the clock and fed by a scheduler at each request's scheduled time, so
starting a thread per request never throttles the offered rate.  There
are as many senders as requests the server can hold blocked (its
queue plus its in-flight waves) plus a margin; every request's lateness
against its schedule is recorded, with the achieved rate.
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time

import numpy as np
import pytest

from benchmarks.conftest import RESULTS_DIR
from repro.api import LSHSpec, ResilienceSpec, ServeSpec, TrainSpec
from repro.core.mh_kmodes import MHKModes
from repro.data.datgen import RuleBasedGenerator
from repro.serve import ModelServer, error_descriptor

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE") or os.environ.get("CI"))

N_ITEMS = 2_000 if SMOKE else 8_000
N_CLUSTERS = 50 if SMOKE else 200
N_ATTRIBUTES = 30
SEED = 2016
REQUEST_ROWS = 32
CALIBRATION_REQUESTS = 20 if SMOKE else 50
OVERLOAD_REQUESTS = 150 if SMOKE else 600
OVERLOAD_FACTOR = 4.0
DEADLINE_MS = 500  # the SLO: accepted requests answer within this
JOIN_GRACE_S = 10.0
#: Senders beyond the requests the server can hold blocked, so one is
#: free when a rejection is still on its way back.
SENDER_MARGIN = 4


@pytest.fixture(scope="module")
def overload_server():
    dataset = RuleBasedGenerator(
        n_clusters=N_CLUSTERS,
        n_attributes=N_ATTRIBUTES,
        domain_size=2_000,
        seed=SEED,
    ).generate(N_ITEMS)
    model = MHKModes(
        n_clusters=N_CLUSTERS,
        lsh=LSHSpec(bands=10, rows=3, seed=SEED),
        train=TrainSpec(max_iter=2),
    ).fit(dataset.X)
    # max_batch caps a coalesced wave at two requests: micro-batching
    # otherwise absorbs many multiples of the closed-loop calibration
    # rate and the "overload" never overloads anything.
    spec = ServeSpec(
        backend="thread",
        n_jobs=2,
        chunk_items=64,
        max_batch=2 * REQUEST_ROWS,
        resilience=ResilienceSpec(
            max_queue_depth=8,
            max_in_flight=2,
            deadline_ms=DEADLINE_MS,
            batch_window_ms=2,
        ),
    )
    rng = np.random.default_rng(SEED)
    requests = [
        dataset.X[rng.choice(N_ITEMS, size=REQUEST_ROWS, replace=False)]
        for _ in range(32)
    ]
    with ModelServer(model.fitted_model(), spec) as server:
        yield server, requests


def _fire(server, X, outcomes: list, lock: threading.Lock) -> None:
    started = time.perf_counter()
    try:
        server.predict(X)
    except Exception as exc:  # noqa: BLE001 - classified below
        status, error = error_descriptor(exc)
        outcome = {
            "status": status,
            "code": error.get("code"),
            "latency_s": time.perf_counter() - started,
        }
    else:
        outcome = {
            "status": 200,
            "code": "ok",
            "latency_s": time.perf_counter() - started,
        }
    with lock:
        outcomes.append(outcome)


def test_overload_holds_slo_and_sheds_load_structurally(overload_server):
    server, requests = overload_server

    # -- calibration: sustained closed-loop capacity ---------------------
    # One closed-loop client per request the server holds in service:
    # max_in_flight waves, each coalescing up to max_batch rows.
    # Daemon threads joined against a deadline, as in the open loop: a
    # hung client fails the bench instead of blocking it.
    spec = server.spec
    clients = spec.resilience.max_in_flight * spec.max_batch // REQUEST_ROWS
    errors: list[BaseException] = []

    def closed_loop(client: int) -> None:
        try:
            for i in range(client, CALIBRATION_REQUESTS, clients):
                server.predict(requests[i % len(requests)])
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    server.predict(requests[0])  # warm the pool before timing
    calibrators = [
        threading.Thread(target=closed_loop, args=(c,), daemon=True)
        for c in range(clients)
    ]
    start = time.perf_counter()
    for thread in calibrators:
        thread.start()
    join_deadline = time.monotonic() + JOIN_GRACE_S
    for thread in calibrators:
        thread.join(timeout=max(0.0, join_deadline - time.monotonic()))
    calibration_s = time.perf_counter() - start
    assert not any(t.is_alive() for t in calibrators), "a calibration client hung"
    if errors:
        raise errors[0]
    capacity_rps = CALIBRATION_REQUESTS / calibration_s

    # -- open loop at 4x: arrivals never wait for completions ------------
    # A sender blocks while the server holds its request (queued or in
    # a wave) and the server rejects anything beyond that at once, so
    # this many senders keep one free at every scheduled time.
    offered_rps = OVERLOAD_FACTOR * capacity_rps
    interval_s = 1.0 / offered_rps
    outcomes: list[dict] = []
    lock = threading.Lock()
    n_senders = spec.resilience.max_queue_depth + clients + SENDER_MARGIN
    jobs: queue.SimpleQueue = queue.SimpleQueue()
    fired_at: list[float] = []
    lateness: list[float] = []
    busy = [False] * n_senders  # a sender holds an unresolved request

    def sender(slot: int) -> None:
        while (job := jobs.get()) is not None:
            i, scheduled = job
            busy[slot] = True
            fired = time.perf_counter()
            with lock:
                fired_at.append(fired)
                lateness.append(fired - scheduled)
            _fire(server, requests[i % len(requests)], outcomes, lock)
            busy[slot] = False

    senders = [
        threading.Thread(target=sender, args=(slot,), daemon=True)
        for slot in range(n_senders)
    ]
    for thread in senders:
        thread.start()
    start = time.perf_counter()
    try:
        for i in range(OVERLOAD_REQUESTS):
            scheduled = start + i * interval_s
            delay = scheduled - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            jobs.put((i, scheduled))
    finally:
        for _ in senders:
            jobs.put(None)
    drive_s = time.perf_counter() - start

    join_deadline = time.monotonic() + JOIN_GRACE_S
    for thread in senders:
        thread.join(timeout=max(0.0, join_deadline - time.monotonic()))
    hung = sum(
        busy[slot] for slot, thread in enumerate(senders) if thread.is_alive()
    )
    achieved_rps = (
        (len(fired_at) - 1) / (max(fired_at) - start)
        if len(fired_at) > 1
        else 0.0
    )
    lateness.sort()

    # -- classify --------------------------------------------------------
    by_code: dict[str, int] = {}
    for outcome in outcomes:
        by_code[outcome["code"]] = by_code.get(outcome["code"], 0) + 1
    accepted = sorted(
        o["latency_s"] for o in outcomes if o["code"] == "ok"
    )
    rejected = [o for o in outcomes if o["code"] != "ok"]

    def percentile(values: list[float], q: float) -> float | None:
        if not values:
            return None
        return values[min(len(values) - 1, int(q * len(values)))]

    p95_s = percentile(accepted, 0.95)
    slo_s = DEADLINE_MS / 1000.0
    record_slo = {
        "smoke": SMOKE,
        "request_rows": REQUEST_ROWS,
        "deadline_ms": DEADLINE_MS,
        "calibration_clients": clients,
        "capacity_rps": round(capacity_rps, 1),
        "offered_rps": round(offered_rps, 1),
        "achieved_rps": round(achieved_rps, 1),
        "overload_factor": OVERLOAD_FACTOR,
        "requests_fired": OVERLOAD_REQUESTS,
        "senders": n_senders,
        "drive_window_s": round(drive_s, 3),
        "lateness_s": {
            "p95": round(percentile(lateness, 0.95) or 0.0, 4),
            "max": round(lateness[-1], 4) if lateness else None,
        },
        "outcomes": by_code,
        "accepted": len(accepted),
        "rejected": len(rejected),
        "hung_connections": hung,
        "accepted_latency_s": {
            "p50": round(percentile(accepted, 0.50) or 0.0, 4),
            "p95": round(p95_s or 0.0, 4),
            "max": round(accepted[-1], 4) if accepted else None,
        },
        "slo_p95_s": slo_s,
        "slo_held": p95_s is not None and p95_s <= slo_s,
    }

    # -- merge into BENCH_serve.json (read-modify-write) -----------------
    RESULTS_DIR.mkdir(exist_ok=True)
    bench_path = RESULTS_DIR / "BENCH_serve.json"
    record = (
        json.loads(bench_path.read_text(encoding="utf-8"))
        if bench_path.exists()
        else {}
    )
    record["slo"] = record_slo
    bench_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"\n{json.dumps(record_slo, indent=2)}\n")

    # -- contracts (asserted everywhere, including CI) -------------------
    assert len(outcomes) + hung == OVERLOAD_REQUESTS
    assert hung == 0, f"{hung} connections never resolved"
    unexplained = [
        o for o in rejected if o["code"] not in ("overloaded", "deadline_exceeded", "shutting_down")
    ]
    assert not unexplained, f"unstructured failures under overload: {unexplained}"
    assert accepted, "the server accepted nothing at 4x overload"
    # Admission control at 4x offered load must actually shed requests;
    # a server that absorbed everything was never overloaded (the
    # calibration would be wrong, not the server heroic).
    assert rejected, (
        "4x overload produced zero rejections (offered "
        f"{offered_rps:.0f} rps, achieved {achieved_rps:.0f} rps, lateness "
        f"p95 {record_slo['lateness_s']['p95']:.4f} s, max "
        f"{record_slo['lateness_s']['max']} s)"
    )
    # Every rejection is immediate or deadline-bounded: no rejection
    # may take longer than deadline + scheduling slack.
    worst_rejection_s = max(o["latency_s"] for o in rejected)
    assert worst_rejection_s < slo_s + 2.0, (
        f"slowest rejection took {worst_rejection_s:.3f}s; rejections "
        "must be immediate (queue_full) or deadline-bounded"
    )

    # wall-clock SLO gate is local-only (CI runners are too noisy)
    if os.environ.get("CI"):
        pytest.skip("p95-vs-SLO wall-clock gate is local-only")
    assert p95_s is not None and p95_s <= slo_s, (
        f"accepted-request p95 {p95_s:.3f}s exceeded the "
        f"{slo_s:.3f}s SLO at {OVERLOAD_FACTOR}x overload"
    )
