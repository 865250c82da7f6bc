"""Quickstart: accelerate K-Modes with a MinHash index.

Generates a synthetic categorical dataset with planted clusters (the
paper's datgen-style workload), clusters it twice — once with exact
K-Modes, once with MH-K-Modes — from identical initial centroids, and
compares time, shortlist size and purity.  Finishes by exporting the
fitted model as an immutable ``ClusterModel`` artifact, the object a
serving deployment would ship.

Estimators are configured through the spec API (``repro.api``): an
``LSHSpec`` describes the index declaratively and a ``TrainSpec`` the
loop.  A spec field passed as a flat keyword is a ``TypeError``::

    MHKModes(n_clusters=400, bands=20, rows=5, max_iter=15, seed=7)
    # TypeError: MHKModes.__init__() got an unexpected keyword argument 'bands'
    MHKModes(
        n_clusters=400,
        lsh=LSHSpec(bands=20, rows=5, seed=7),
        train=TrainSpec(max_iter=15),
    )

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import KModes, MHKModes, RuleBasedGenerator, cluster_purity
from repro.api import LSHSpec, TrainSpec


def main() -> None:
    # 1. A dataset with 400 planted clusters over a 40 000-value domain.
    generator = RuleBasedGenerator(
        n_clusters=400,
        n_attributes=60,
        domain_size=40_000,
        noise_rate=0.1,
        seed=7,
    )
    data = generator.generate(3_000)
    print(f"dataset: {data.describe()}")

    # 2. Fix the initial modes so both algorithms start identically
    #    (the paper's evaluation protocol).
    rng = np.random.default_rng(7)
    initial = data.X[rng.choice(data.n_items, size=400, replace=False)]

    # 3. Exact K-Modes: every item against all 400 modes, every pass.
    exact = KModes(n_clusters=400, max_iter=15, seed=7)
    exact.fit(data.X, initial_modes=initial)

    # 4. MH-K-Modes: hash items once, then compare only against the
    #    clusters of colliding items.  The LSHSpec is the declarative
    #    description of the index (paper's banding: 20 bands x 5 rows).
    fast = MHKModes(
        n_clusters=400,
        lsh=LSHSpec(bands=20, rows=5, seed=7),
        train=TrainSpec(max_iter=15),
    )
    fast.fit(data.X, initial_centroids=initial)

    # 5. Compare.
    for model in (exact, fast):
        stats = model.stats_
        mean_shortlist = (
            np.nanmean(stats.shortlist_sizes) if stats.shortlist_sizes else 400
        )
        print(
            f"{stats.algorithm:22s} iterations={model.n_iter_:2d} "
            f"setup={stats.setup_s:6.2f}s total={stats.total_time_s:6.2f}s "
            f"mean shortlist={mean_shortlist:7.2f} "
            f"purity={cluster_purity(model.labels_, data.labels):.3f}"
        )
    speedup = exact.stats_.total_time_s / fast.stats_.total_time_s
    iter_speedup = (
        exact.stats_.mean_iteration_s / fast.stats_.mean_iteration_s
    )
    print(f"\nend-to-end speedup: {speedup:.2f}x   per-iteration: {iter_speedup:.2f}x")

    # 6. Export the immutable serving artifact: centroids + band keys +
    #    specs, no training machinery.  predict() on the artifact is
    #    bit-identical to the estimator's.
    artifact = fast.fitted_model()
    novel = generator.generate(50).X
    assert np.array_equal(artifact.predict(novel), fast.predict(novel))
    print(f"exported {artifact!r}")


if __name__ == "__main__":
    main()
