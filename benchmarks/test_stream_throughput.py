"""Streaming ingest throughput — push loop vs the batch extend pipeline.

Bootstraps :class:`~repro.core.StreamingMHKModes` on the engine-scaling
workload (20 000 items, k = 800) and streams a second 20 000-item wave
from the same planted generator three ways over identical state:

* the sequential **push loop** (the paper-shaped per-item path) over a
  fixed slice, establishing the baseline;
* the **vectorised extend** pipeline (batch MinHash, batched shortlist
  query, collision walk, amortised ``insert_batch``, array-backed mode
  tracking) — first over the same slice, then over the full wave for
  the headline items/s.  Push loop and slice extend run as back-to-back
  pairs on fresh copies of the bootstrap, taking turns at going first,
  each timed in CPU time (both are single-threaded and in-process);
  every pair asserts bit-identical labels and modes, and the speedup
  is the median of the per-pair ratios;
* **process-chunked extend** — the same pipeline with chunk hashing
  dispatched to a process pool via a shared-memory request buffer
  (bit-identical to the serial run).

Results land in machine-readable
``benchmarks/results/BENCH_stream.json`` (a CI bench-smoke artifact)
so the ingest-throughput trajectory is tracked across commits.
"""

from __future__ import annotations

import copy
import json
import os
import statistics
import time

import numpy as np
import pytest

from benchmarks.conftest import RESULTS_DIR
from repro.api import LSHSpec, StreamSpec, TrainSpec
from repro.core.streaming import StreamingMHKModes
from repro.data.datgen import RuleBasedGenerator
from repro.kernels import active_backend
from repro.obs import capture_metrics

N_BOOTSTRAP = 20_000
N_STREAM = 20_000
N_CLUSTERS = 800
N_ATTRIBUTES = 60
SEED = 2016

#: Slice of the wave pushed item by item for the baseline (the full
#: wave through the push loop would dominate the suite's runtime).
PUSH_SLICE = 3_000

#: Floor for the local acceptance assertion: vectorised extend must
#: ingest the slice in at most a third of the push loop's CPU time.
#: The compiled signature kernel (repro.kernels) cut the per-item
#: push baseline itself by ~2.3x, so the ratio compressed from the
#: ~8x the pure-NumPy stack showed — both absolute times improved.
MIN_SPEEDUP = 3.0

#: Back-to-back push/extend pairs behind the median speedup.
SPEEDUP_PAIRS = 3


@pytest.fixture(scope="module")
def bootstrapped():
    data = RuleBasedGenerator(
        n_clusters=N_CLUSTERS,
        n_attributes=N_ATTRIBUTES,
        domain_size=40_000,
        noise_rate=0.1,
        seed=SEED,
    ).generate(N_BOOTSTRAP + N_STREAM)
    stream = StreamingMHKModes(
        n_clusters=N_CLUSTERS,
        lsh=LSHSpec(bands=20, rows=5, seed=SEED),
        train=TrainSpec(max_iter=2, update_refs="batch"),
    )
    stream.bootstrap(data.X[:N_BOOTSTRAP])
    return stream, data.X[N_BOOTSTRAP:]


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _cpu_timed(fn, *args):
    start = time.process_time()
    result = fn(*args)
    return time.process_time() - start, result


def _push_slice(stream, rows):
    return np.array([stream.push(row) for row in rows], dtype=np.int64)


def _extend_slice(stream, rows):
    return stream.extend(rows)


_INGEST = {"push": _push_slice, "extend": _extend_slice}


def test_stream_ingest_throughput(bootstrapped):
    base, wave = bootstrapped
    rows = wave[:PUSH_SLICE]

    # Push loop vs extend over the same slice: back-to-back pairs on
    # fresh copies, taking turns at going first, so drift in machine
    # speed hits both sides alike.  Every pair checks the contract.
    cpu_s = {"push": [], "extend": []}
    same = {"labels": [], "modes": [], "fallbacks": []}
    for pair in range(SPEEDUP_PAIRS):
        streams = {"push": copy.deepcopy(base), "extend": copy.deepcopy(base)}
        order = ("push", "extend") if pair % 2 == 0 else ("extend", "push")
        labels = {}
        for side in order:
            spent, labels[side] = _cpu_timed(_INGEST[side], streams[side], rows)
            cpu_s[side].append(spent)
        pushed, extended = streams["push"], streams["extend"]
        same["labels"].append(np.array_equal(labels["push"], labels["extend"]))
        same["modes"].append(np.array_equal(pushed.modes_, extended.modes_))
        same["fallbacks"].append(pushed.n_fallbacks_ == extended.n_fallbacks_)
    ratios = [push / ext for push, ext in zip(cpu_s["push"], cpu_s["extend"])]
    speedup = statistics.median(ratios)
    push_s = statistics.median(cpu_s["push"])
    slice_s = statistics.median(cpu_s["extend"])

    vec_stream = copy.deepcopy(base)
    with capture_metrics() as vec_metrics:
        vec_s, vec_labels = _timed(lambda: vec_stream.extend(wave))

    proc_stream = copy.deepcopy(base)
    proc_stream.stream = StreamSpec(
        backend="process", n_jobs=4, chunk_items=4096
    )
    with proc_stream:
        proc_s, proc_labels = _timed(lambda: proc_stream.extend(wave))
    process_identical = bool(
        np.array_equal(vec_labels, proc_labels)
        and np.array_equal(vec_stream.modes_, proc_stream.modes_)
    )

    record = {
        "workload": {
            "n_bootstrap": N_BOOTSTRAP,
            "n_streamed": N_STREAM,
            "n_clusters": N_CLUSTERS,
            "n_attributes": N_ATTRIBUTES,
            "bands": 20,
            "rows": 5,
            "seed": SEED,
            "algorithm": "Streaming MH-K-Modes",
            "kernels": active_backend(),
        },
        "push_loop": {
            "items": PUSH_SLICE,
            "cpu_seconds": round(push_s, 6),
            "items_per_cpu_s": round(PUSH_SLICE / push_s, 1),
        },
        "vectorised_extend": {
            "items": PUSH_SLICE,
            "cpu_seconds": round(slice_s, 6),
            "items_per_cpu_s": round(PUSH_SLICE / slice_s, 1),
            "pairs": SPEEDUP_PAIRS,
            "speedup_per_pair": [round(ratio, 2) for ratio in ratios],
            "speedup_vs_push": round(speedup, 2),
            "identical_labels": all(same["labels"]),
            "identical_modes": all(same["modes"]),
        },
        "vectorised_extend_full": {
            "items": N_STREAM,
            "seconds": round(vec_s, 6),
            "items_per_s": round(N_STREAM / vec_s, 1),
            "phase_s": {
                name: round(value, 6)
                for name, value in vec_stream.extend_stats_.items()
            },
        },
        "process_chunked_extend": {
            "items": N_STREAM,
            "seconds": round(proc_s, 6),
            "items_per_s": round(N_STREAM / proc_s, 1),
            "n_jobs": 4,
            "identical_to_serial": process_identical,
        },
        # registry view of the full vectorised extend: every extend.*
        # span recorded while the wave streamed in (repro.obs)
        "metrics": vec_metrics.snapshot(),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_stream.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    print(f"\n{json.dumps(record, indent=2)}\n")

    # correctness gates run everywhere, on every pair
    assert all(same["labels"]) and all(same["modes"])
    assert process_identical
    assert all(same["fallbacks"])

    # speedup gate is local-only (shared CI runners are too noisy)
    if os.environ.get("CI"):
        pytest.skip("speedup assertion is flaky on shared CI runners")
    assert speedup >= MIN_SPEEDUP, (
        f"vectorised extend only {speedup:.2f}x the push loop in CPU time "
        f"(median over {SPEEDUP_PAIRS} back-to-back pairs, per pair "
        f"{[round(ratio, 2) for ratio in ratios]}; medians {push_s:.3f}s vs "
        f"{slice_s:.3f}s for {PUSH_SLICE} items)"
    )
