"""Further Work — the framework generalises beyond K-Modes.

The paper: "evaluation on the performance and efficiency with other
clustering algorithms would be worthwhile. Further, it would be
interesting to investigate extending our framework to ... numeric
data."  This bench runs that experiment: K-Means on numeric blobs
versus LSH-K-Means (identical loop, p-stable hashing instead of
MinHash) and mini-batch K-Means (the related-work [16] baseline), all
from the same initial centroids.

Asserted shape: LSH-K-Means prunes the centroid search by an order of
magnitude at comparable clustering agreement with exact K-Means.
"""

import numpy as np
import pytest

from benchmarks.conftest import write_result
from repro.api import LSHSpec, TrainSpec
from repro.experiments.report import format_table
from repro.kmeans import KMeans, LSHKMeans, MiniBatchKMeans
from repro.metrics.external import adjusted_rand_index

K, N, DIM, SEED = 400, 8_000, 24, 13

_CACHE: dict[str, object] = {}


def _data():
    if "data" not in _CACHE:
        rng = np.random.default_rng(SEED)
        centres = rng.normal(0.0, 10.0, (K, DIM))
        truth = rng.integers(0, K, N)
        X = centres[truth] + rng.normal(0.0, 0.5, (N, DIM))
        init = X[rng.choice(N, K, replace=False)].copy()
        _CACHE["data"] = (X, truth, init)
    return _CACHE["data"]


def _fit_exact():
    X, _, init = _data()
    return KMeans(n_clusters=K, max_iter=20, seed=SEED).fit(
        X, initial_centroids=init
    )


def _fit_lsh():
    X, _, init = _data()
    return LSHKMeans(
        n_clusters=K,
        lsh=LSHSpec(family="pstable", bands=16, rows=4, width=6.0, seed=SEED),
        train=TrainSpec(max_iter=20),
    ).fit(X, initial_centroids=init)


def _fit_minibatch():
    X, _, _ = _data()
    return MiniBatchKMeans(
        n_clusters=K, batch_size=512, max_iter=60, seed=SEED
    ).fit(X)


@pytest.mark.parametrize(
    "name,fit",
    [("K-Means", _fit_exact), ("LSH-K-Means", _fit_lsh), ("MiniBatch", _fit_minibatch)],
    ids=lambda x: x if isinstance(x, str) else "",
)
def test_numeric_variant_fit(benchmark, name, fit):
    model = benchmark.pedantic(fit, rounds=1, iterations=1)
    assert model.labels_ is not None


def test_numeric_framework_report(benchmark):
    X, truth, _ = _data()
    exact = _fit_exact()
    lsh = benchmark.pedantic(_fit_lsh, rounds=1, iterations=1)
    minibatch = _fit_minibatch()

    exact_ari = adjusted_rand_index(exact.labels_, truth)
    lsh_ari = adjusted_rand_index(lsh.labels_, truth)
    mb_ari = adjusted_rand_index(minibatch.labels_, truth)

    shortlist = float(np.nanmean(lsh.stats_.shortlist_sizes))
    # The framework's pruning claim transfers to numeric data:
    assert shortlist < K / 10
    # ...at comparable quality with the exact algorithm:
    assert lsh_ari > 0.85 * exact_ari
    # ...and the SSE stays within a few percent.
    assert lsh.cost_ < exact.cost_ * 1.1

    rows = [
        ["K-Means (exact)", exact.n_iter_, f"{exact.cost_:.0f}",
         f"{exact_ari:.3f}", f"{K}"],
        ["LSH-K-Means 16b4r", lsh.n_iter_, f"{lsh.cost_:.0f}",
         f"{lsh_ari:.3f}", f"{shortlist:.1f}"],
        ["MiniBatch b512", minibatch.n_iter_, f"{minibatch.cost_:.0f}",
         f"{mb_ari:.3f}", f"{K}"],
    ]
    write_result(
        "further_work_numeric",
        "Further Work — the framework on numeric data "
        f"({N} pts x {DIM} dims, k={K})\n"
        + format_table(["algorithm", "iters", "SSE", "ARI", "mean shortlist"], rows),
    )
