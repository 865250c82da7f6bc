"""Engine scaling — end-to-end fit wall-time versus backend / n_jobs.

The workload is the Figure 2 configuration scaled up to 20 000 items
(same 60 attributes; k = 800), the regime the ROADMAP's
multi-backend north star targets.  Every backend starts from the same
initial modes and runs batch updates, so the runs are comparable *and*
must produce identical labels; the table records how the wall time
splits across the engine phases.

The ``serial/item`` row is the legacy baseline: the paper-shaped
per-item pass that was the serial batch path before the vectorised
hot loop landed.  Three claims are asserted:

* equivalence — every run returns exactly the same labels;
* vectorisation — plain ``serial`` (which now routes batch updates
  through the vectorised chunk kernel) beats the per-item baseline on
  the iterations phase by a wide margin;
* engine overhead — ``backend='process', n_jobs=4`` beats the
  per-item baseline on the iterations phase too, even on a
  single-core host: one fit-lifetime pool (band keys and the
  neighbour CSR cross once, through shared memory) plus the
  vectorised kernels outweigh the IPC cost.  On multi-core hosts the
  chunks additionally run concurrently.

The wall-clock gates compare the *iterations* phase, where the margin
is severalfold; end-to-end totals are recorded in the results table
but not asserted — on a loaded single-core host they are dominated by
the phases all runs share (exhaustive scan, hashing) plus scheduler
noise, which swamps a ~1.05x total-time margin.
"""

from __future__ import annotations

import gc
import os
import time

import numpy as np
import pytest

from benchmarks.conftest import write_result
from repro.api import EngineSpec, LSHSpec, TrainSpec
from repro.core.mh_kmodes import MHKModes
from repro.data.datgen import RuleBasedGenerator

N_ITEMS = 20_000
N_CLUSTERS = 800
N_ATTRIBUTES = 60
MAX_ITER = 4
SEED = 2016

#: (label, backend, n_jobs, force_per_item_pass) in execution order.
#: The process run goes first so its fork cost reflects a fresh heap —
#: later fits inflate the parent's page tables, which a single-core
#: host then pays for on every copy-on-write fault.
RUNS = [
    ("process x4", "process", 4, False),
    ("serial/item", "serial", None, True),
    ("serial", "serial", None, False),
    ("thread x2", "thread", 2, False),
]

#: Row order for the rendered table (baseline first).
PRESENTATION = ["serial/item", "serial", "thread x2", "process x4"]


@pytest.fixture(scope="module")
def workload():
    dataset = RuleBasedGenerator(
        n_clusters=N_CLUSTERS,
        n_attributes=N_ATTRIBUTES,
        domain_size=40_000,
        noise_rate=0.1,
        seed=SEED,
    ).generate(N_ITEMS)
    rng = np.random.default_rng(SEED)
    initial = dataset.X[
        rng.choice(N_ITEMS, size=N_CLUSTERS, replace=False)
    ].copy()
    return dataset, initial


def _fit(workload, backend: str, n_jobs: int | None, per_item: bool):
    dataset, initial = workload
    model = MHKModes(
        n_clusters=N_CLUSTERS,
        lsh=LSHSpec(bands=20, rows=5, seed=SEED),
        engine=EngineSpec(backend=backend, n_jobs=n_jobs),
        train=TrainSpec(max_iter=MAX_ITER, update_refs="batch"),
    )
    if per_item:
        model._force_per_item_pass = True
    start = time.perf_counter()
    model.fit(dataset.X, initial_centroids=initial)
    return model, time.perf_counter() - start


def test_engine_scaling(workload):
    rows = {}
    fitted = {}
    for label, backend, n_jobs, per_item in RUNS:
        model, elapsed = _fit(workload, backend, n_jobs, per_item)
        phases = model.stats_.phase_s
        # keep only the comparison artefacts — holding four fitted
        # indexes alive would bloat the heap the process pools fork
        fitted[label] = (model.labels_, elapsed, phases["iterations"])
        rows[label] = (
            f"{label:>11}  {elapsed:8.3f}s  "
            f"exhaustive={phases['exhaustive_assign']:6.3f}s  "
            f"signatures={phases['signatures']:6.3f}s  "
            f"index={phases['index_build']:6.3f}s  "
            f"iterations={phases['iterations']:6.3f}s  "
            f"pool={phases['session_open']:5.3f}s  "
            f"iters={model.n_iter_}"
        )
        del model
        gc.collect()

    baseline_labels, baseline_time, baseline_iter = fitted["serial/item"]
    _, serial_time, serial_iter = fitted["serial"]
    _, process_time, process_iter = fitted["process x4"]
    header = (
        f"engine scaling: MH-K-Modes 20b 5r, n={N_ITEMS} m={N_ATTRIBUTES} "
        f"k={N_CLUSTERS}, batch updates, max_iter={MAX_ITER} "
        f"(serial/item = legacy per-item pass)"
    )
    write_result(
        "engine_scaling",
        "\n".join(
            [
                header,
                *(rows[label] for label in PRESENTATION),
                f"serial vectorised vs per-item end-to-end: "
                f"{baseline_time / serial_time:.2f}x",
                f"process x4 vs per-item end-to-end: "
                f"{baseline_time / process_time:.2f}x",
            ]
        ),
    )

    # equivalence: identical labels for every run at the fixed seed
    for label, (labels, _, _) in fitted.items():
        assert np.array_equal(labels, baseline_labels), label

    # acceleration: both the vectorised serial pass and the full
    # process engine must beat the legacy per-item loop on the phase
    # the hot path owns.  Wall-clock comparisons are too noisy on
    # shared CI runners to gate a build, so the timing assertions are
    # local-only; equivalence above is asserted everywhere.
    if os.environ.get("CI"):
        pytest.skip("wall-clock speedup assertion is flaky on shared CI runners")
    assert serial_iter < baseline_iter, (
        f"vectorised serial iterations took {serial_iter:.3f}s vs per-item "
        f"{baseline_iter:.3f}s"
    )
    assert process_iter < baseline_iter, (
        f"process x4 iterations took {process_iter:.3f}s vs per-item "
        f"{baseline_iter:.3f}s"
    )
