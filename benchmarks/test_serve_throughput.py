"""Serving throughput — ModelServer vs single-process ClusterModel.predict.

The serving scenario on the engine-scaling workload (20 000 items,
k = 800, 60 attributes): a model is fitted, saved and re-loaded from
disk, then a stream of 10 × 2 000-row predict requests is answered by

* ``single-process/cold`` — the naive serving path: a freshly loaded
  ``ClusterModel`` answering the stream in-process, paying its lazy
  index rebuild inside the serving window (first request);
* ``single-process/warm`` — the same artifact after warm-up, i.e. the
  pure in-process predict throughput;
* ``ModelServer`` on serial / thread / process backends — index
  rebuilt once at load (``load_s``, outside the serving window, which
  is the point of a serving layer), a persistent pool kept warm
  across requests, batches chunked across workers through the shared
  request buffer.

Labels must be bit-identical along every path (asserted everywhere);
items/sec land in machine-readable
``benchmarks/results/BENCH_serve.json``, together with a ``metrics``
section: the merged registry snapshot of a metered serial run and the
measured overhead of ``ServeSpec.emit_metrics`` (on vs off on the same
stream, request by request back to back, compared in CPU time).  The wall-clock acceptances — the process-backend server
beats single-process ``ClusterModel.predict`` on both the cold and the
warm stream (multi-core boxes; single-core boxes assert the best
backend beats the cold path instead), and request metrics stay within
the observability budget — are local-only (shared CI runners are too
noisy to gate on timing).
"""

from __future__ import annotations

import json
import os
import statistics
import time

import numpy as np
import pytest

from benchmarks.conftest import RESULTS_DIR
from repro.api import LSHSpec, ServeSpec, TrainSpec
from repro.core.mh_kmodes import MHKModes
from repro.data.datgen import RuleBasedGenerator
from repro.data.io import load_cluster_model, save_model
from repro.kernels import active_backend
from repro.serve import ModelServer

N_ITEMS = 20_000
N_CLUSTERS = 800
N_ATTRIBUTES = 60
SEED = 2016
N_REQUESTS = 10
REQUEST_ROWS = N_ITEMS // N_REQUESTS
STREAM_REPEATS = 4
#: Streams each side of the metrics-overhead gate answers.
OVERHEAD_STREAMS = 4

#: (label, backend, n_jobs) server configurations, process first so its
#: fork reflects the leanest heap.
SERVERS = [
    ("process x2", "process", 2),
    ("thread x2", "thread", 2),
    ("serial", "serial", None),
]


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    dataset = RuleBasedGenerator(
        n_clusters=N_CLUSTERS,
        n_attributes=N_ATTRIBUTES,
        domain_size=40_000,
        noise_rate=0.1,
        seed=SEED,
    ).generate(N_ITEMS)
    rng = np.random.default_rng(SEED)
    initial = dataset.X[rng.choice(N_ITEMS, size=N_CLUSTERS, replace=False)].copy()
    model = MHKModes(
        n_clusters=N_CLUSTERS,
        lsh=LSHSpec(bands=20, rows=5, seed=SEED),
        train=TrainSpec(max_iter=2, update_refs="batch"),
    )
    model.fit(dataset.X, initial_centroids=initial)
    path = save_model(
        model,
        tmp_path_factory.mktemp("serving") / "model",
        serve=ServeSpec(backend="process", n_jobs=2, chunk_items=2048, max_batch=N_ITEMS),
    )
    requests = [
        dataset.X[i * REQUEST_ROWS : (i + 1) * REQUEST_ROWS]
        for i in range(N_REQUESTS)
    ]
    return path, requests


def _stream(answer, requests) -> tuple[float, list[np.ndarray]]:
    start = time.perf_counter()
    labels = [answer(request) for request in requests]
    return time.perf_counter() - start, labels


def _best_stream(answer, requests, repeats=STREAM_REPEATS):
    best_s, labels = float("inf"), None
    for _ in range(repeats):
        elapsed, labels = _stream(answer, requests)
        best_s = min(best_s, elapsed)
    return best_s, labels


def test_serve_throughput(saved_model):
    path, requests = saved_model
    total_items = sum(len(request) for request in requests)
    record: dict = {
        "workload": {
            "n_items": N_ITEMS,
            "n_clusters": N_CLUSTERS,
            "n_attributes": N_ATTRIBUTES,
            "bands": 20,
            "rows": 5,
            "seed": SEED,
            "requests": N_REQUESTS,
            "rows_per_request": REQUEST_ROWS,
            "algorithm": "MH-K-Modes",
            "kernels": active_backend(),
        },
        "paths": {},
    }

    # -- single-process baselines: ClusterModel.predict -----------------
    cold_artifact = load_cluster_model(path)
    cold_s, reference = _stream(cold_artifact.predict, requests)
    record["paths"]["single-process/cold"] = {
        "stream_s": round(cold_s, 4),
        "items_per_s": round(total_items / cold_s, 1),
        "note": "fresh ClusterModel; lazy index rebuild paid by request 1",
    }
    warm_s, warm_labels = _best_stream(cold_artifact.predict, requests)
    record["paths"]["single-process/warm"] = {
        "stream_s": round(warm_s, 4),
        "items_per_s": round(total_items / warm_s, 1),
    }

    # -- ModelServer on every backend ------------------------------------
    server_streams: dict[str, float] = {}
    for label, backend, n_jobs in SERVERS:
        spec = ServeSpec(
            backend=backend, n_jobs=n_jobs, chunk_items=2048, max_batch=N_ITEMS
        )
        start = time.perf_counter()
        server = ModelServer.from_path(path, spec=spec)
        load_s = time.perf_counter() - start
        with server:
            server.predict(requests[0])  # warm the pool before timing
            stream_s, labels = _best_stream(server.predict, requests)
        server_streams[label] = stream_s
        record["paths"][f"server/{label}"] = {
            "load_s": round(load_s, 4),
            "stream_s": round(stream_s, 4),
            "items_per_s": round(total_items / stream_s, 1),
        }
        # correctness gate runs everywhere: identical labels per request
        for got, expected in zip(labels, reference):
            assert np.array_equal(got, expected), label

    for got, expected in zip(warm_labels, reference):
        assert np.array_equal(got, expected)

    record["speedups"] = {
        "process_vs_cold_single": round(cold_s / server_streams["process x2"], 2),
        "process_vs_warm_single": round(warm_s / server_streams["process x2"], 2),
        "thread_vs_warm_single": round(warm_s / server_streams["thread x2"], 2),
    }

    # -- metrics overhead: the same serial stream with and without the
    # request registry (ServeSpec.emit_metrics), timed in CPU time (the
    # serial server computes in-process).  The two servers answer each
    # request back to back, taking turns at going first, so drift in
    # machine speed and other tenants' load hit both sides alike; the
    # overhead is the median of the per-request CPU-time ratios.  The
    # registry view of the metered run lands in the record so the bench
    # artifact carries the observability counters alongside the
    # throughput numbers.
    metered_spec = ServeSpec(backend="serial", chunk_items=2048, max_batch=N_ITEMS)
    bare_spec = metered_spec.replace(emit_metrics=False)
    cpu_s = {True: 0.0, False: 0.0}
    ratios = []
    with ModelServer.from_path(path, spec=metered_spec) as metered:
        with ModelServer.from_path(path, spec=bare_spec) as bare:
            servers = {True: metered, False: bare}
            for server in servers.values():
                server.predict(requests[0])  # warm before timing
            for i in range(OVERHEAD_STREAMS):
                spent = {}
                for j, request in enumerate(requests):
                    metered_first = (i + j) % 2 == 0
                    for on in (metered_first, not metered_first):
                        start = time.process_time()
                        labels = servers[on].predict(request)
                        spent[on] = time.process_time() - start
                        cpu_s[on] += spent[on]
                        assert np.array_equal(labels, reference[j])
                    ratios.append(spent[True] / spent[False])
        metrics_snapshot = metered.metrics_snapshot()
    overhead_pct = (statistics.median(ratios) - 1.0) * 100.0
    record["metrics"] = {
        "overhead": {
            "metrics_on_cpu_s": round(cpu_s[True], 4),
            "metrics_off_cpu_s": round(cpu_s[False], 4),
            "request_pairs": len(ratios),
            "overhead_pct": round(overhead_pct, 2),
        },
        "registry": metrics_snapshot,
    }

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_serve.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    print(f"\n{json.dumps(record, indent=2)}\n")

    # wall-clock acceptance is local-only (CI runners are too noisy)
    if os.environ.get("CI"):
        pytest.skip("wall-clock speedup assertion is flaky on shared CI runners")
    process_s = server_streams["process x2"]
    if (os.cpu_count() or 1) >= 2:
        assert process_s < cold_s, (
            f"process server stream {process_s:.3f}s did not beat the cold "
            f"single-process baseline {cold_s:.3f}s"
        )
        assert process_s < warm_s, (
            f"process server stream {process_s:.3f}s did not beat the warm "
            f"single-process baseline {warm_s:.3f}s"
        )
    else:
        # On a single-core box a 2-worker process pool is pure IPC
        # overhead — with the compiled kernels cutting per-item predict
        # cost it can no longer beat in-process compute.  The structural
        # claim that survives core count: some server backend beats the
        # naive cold path, because the serving layer pre-pays the index
        # rebuild outside the serving window.
        best_server_s = min(server_streams.values())
        assert best_server_s < cold_s, (
            f"best server stream {best_server_s:.3f}s did not beat the "
            f"cold single-process baseline {cold_s:.3f}s"
        )
    # The nominal observability budget is <5% of serial throughput; the
    # enforced ceiling keeps a measurement margin.
    assert overhead_pct < 12.0, (
        f"request metrics cost {overhead_pct:.2f}% of serial serving "
        f"CPU time (median over {len(ratios)} back-to-back request pairs; "
        f"metrics on {cpu_s[True]:.3f}s vs off {cpu_s[False]:.3f}s in "
        f"total); the observability budget is <5% + measurement noise"
    )
