"""Helpers shared by the per-figure benchmark modules."""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import (
    fixed_initial_modes,
    get_comparison,
    get_dataset,
    write_result,
)
from repro.api import LSHSpec, TrainSpec
from repro.core.mh_kmodes import MHKModes
from repro.experiments.configs import SyntheticConfig, VariantSpec, YahooConfig
from repro.experiments.report import render_comparison_summary, render_series_table
from repro.experiments.runner import ComparisonResult
from repro.kmodes.kmodes import KModes

__all__ = [
    "fit_variant",
    "benchmark_variant_fit",
    "report_figure",
    "assert_acceleration_shape",
]


def fit_variant(config, variant: VariantSpec):
    """One complete fit of a variant under the paper's fixed-init protocol."""
    dataset = get_dataset(config.exp_id)
    init = fixed_initial_modes(config.exp_id)
    if isinstance(config, SyntheticConfig):
        k, absent = config.n_clusters, None
    else:
        k, absent = config.n_topics, 0
    if variant.is_baseline:
        model = KModes(n_clusters=k, max_iter=config.max_iter, seed=config.seed)
        model.fit(dataset.X, initial_modes=init)
    else:
        model = MHKModes(
            n_clusters=k,
            lsh=LSHSpec(bands=variant.bands, rows=variant.rows, seed=config.seed),
            train=TrainSpec(max_iter=config.max_iter),
            absent_code=absent,
        )
        model.fit(dataset.X, initial_centroids=init)
    return model


def benchmark_variant_fit(benchmark, config, variant: VariantSpec):
    """pytest-benchmark measurement of one variant's full fit."""
    get_dataset(config.exp_id)  # exclude data generation from the timing
    fixed_initial_modes(config.exp_id)
    model = benchmark.pedantic(
        fit_variant, args=(config, variant), rounds=1, iterations=1
    )
    assert model.labels_ is not None
    return model


def report_figure(
    exp_id: str,
    name: str,
    series_fields: tuple[str, ...] = ("duration_s", "mean_shortlist", "moves"),
) -> ComparisonResult:
    """Render one figure's paper-style tables to ``.bench_build/results/``."""
    comparison = get_comparison(exp_id)
    parts = [render_comparison_summary(comparison)]
    parts.extend(
        render_series_table(comparison, fieldname) for fieldname in series_fields
    )
    write_result(name, "\n\n".join(parts))
    return comparison


def assert_acceleration_shape(
    comparison: ComparisonResult,
    min_iteration_speedup: float = 1.3,
    min_purity_ratio: float = 0.75,
    max_shortlist_fraction: float = 0.25,
    max_extra_iterations: int = 1,
) -> None:
    """The qualitative claims every MH figure makes, as assertions.

    * every MH variant's mean iteration is faster than the baseline's;
    * shortlists are a small fraction of k;
    * purity stays comparable;
    * MH needs no more iterations than the baseline (± slack).
    """
    baseline = comparison.baseline
    k = float(np.nanmean(baseline.stats.shortlist_sizes))  # baseline scans k
    for label, run in comparison.results.items():
        if label == baseline.label:
            continue
        iteration_speedup = comparison.iteration_speedup(label)
        assert iteration_speedup >= min_iteration_speedup, (
            f"{label}: iteration speedup {iteration_speedup:.2f} below "
            f"{min_iteration_speedup}"
        )
        shortlist = float(np.nanmean(run.stats.shortlist_sizes))
        assert shortlist <= max_shortlist_fraction * k, (
            f"{label}: shortlist {shortlist:.1f} not << k={k:.0f}"
        )
        assert run.purity >= min_purity_ratio * baseline.purity, (
            f"{label}: purity {run.purity:.3f} vs baseline {baseline.purity:.3f}"
        )
        assert run.n_iterations <= baseline.n_iterations + max_extra_iterations, (
            f"{label}: {run.n_iterations} iterations vs baseline "
            f"{baseline.n_iterations}"
        )
