"""Ablations of the design choices DESIGN.md calls out.

Not part of the paper's evaluation — these benches justify the
implementation decisions the paper leaves implicit:

* presence filtering (Algorithm 2 lines 1-4) on sparse binary data;
* online vs batch cluster-reference updates;
* the (b, r) sweep behind §III-D's parameter guidance.

Neighbour lists have one form: a fit walks the grouped CSR its
session builds, so there is no on-the-fly variant left to ablate
(``benchmarks/test_hotpass.py`` times the pass that walks it).
"""

import numpy as np
import pytest

from benchmarks.conftest import get_dataset, write_result
from repro.api import LSHSpec, TrainSpec
from repro.core.mh_kmodes import MHKModes
from repro.experiments.report import format_table
from repro.metrics.purity import cluster_purity


K_FIG9 = 300


def _fit(update_refs=None):
    dataset = get_dataset("fig9")
    model = MHKModes(
        n_clusters=K_FIG9,
        lsh=LSHSpec(bands=10, rows=1, seed=0),
        train=TrainSpec(max_iter=6, update_refs=update_refs),
        absent_code=0,
    )
    model.fit(dataset.X)
    return model, dataset


class TestPresenceFiltering:
    def test_filtering_improves_shortlist_quality(self, benchmark):
        """Without the absent-value filter, shared absences flood MinHash."""
        filtered, dataset = benchmark.pedantic(_fit, rounds=1, iterations=1)
        unfiltered = MHKModes(
            n_clusters=K_FIG9,
            lsh=LSHSpec(bands=10, rows=1, seed=0),
            train=TrainSpec(max_iter=6),
            absent_code=None,
        ).fit(dataset.X)
        filtered_purity = cluster_purity(filtered.labels_, dataset.labels)
        unfiltered_purity = cluster_purity(unfiltered.labels_, dataset.labels)
        # Unfiltered hashing sees mostly 'word absent' tokens shared by
        # everyone: shortlists balloon and/or quality degrades.
        unfiltered_shortlist = np.nanmean(unfiltered.stats_.shortlist_sizes)
        filtered_shortlist = np.nanmean(filtered.stats_.shortlist_sizes)
        assert (
            filtered_purity >= unfiltered_purity - 0.02
            and filtered_shortlist <= unfiltered_shortlist * 2
        )
        write_result(
            "ablation_presence_filtering",
            "Ablation — presence filtering (Algorithm 2 lines 1-4)\n"
            + format_table(
                ["variant", "purity", "mean shortlist"],
                [
                    ["filtered (paper)", f"{filtered_purity:.3f}", f"{filtered_shortlist:.1f}"],
                    ["unfiltered", f"{unfiltered_purity:.3f}", f"{unfiltered_shortlist:.1f}"],
                ],
            ),
        )


class TestUpdateRefs:
    def test_online_vs_batch(self, benchmark):
        """The paper's online reference updates vs end-of-pass updates."""
        online, dataset = benchmark.pedantic(
            _fit, kwargs={"update_refs": "online"}, rounds=1, iterations=1
        )
        batch, _ = _fit(update_refs="batch")
        online_purity = cluster_purity(online.labels_, dataset.labels)
        batch_purity = cluster_purity(batch.labels_, dataset.labels)
        # Both modes must land in the same quality regime; online (the
        # paper's choice) must not be worse.
        assert online_purity >= batch_purity - 0.03
        write_result(
            "ablation_update_refs",
            "Ablation — online (paper) vs batch cluster-reference updates\n"
            + format_table(
                ["mode", "purity", "iterations", "total_s"],
                [
                    ["online", f"{online_purity:.3f}", online.n_iter_,
                     f"{online.stats_.total_time_s:.2f}"],
                    ["batch", f"{batch_purity:.3f}", batch.n_iter_,
                     f"{batch.stats_.total_time_s:.2f}"],
                ],
            ),
        )


class TestBandRowSweep:
    def test_sweep_matches_section_3d_guidance(self, benchmark):
        """More bands → bigger shortlists; more rows → smaller ones."""
        dataset = get_dataset("fig2")

        def run(bands, rows):
            return MHKModes(
                n_clusters=800,
                lsh=LSHSpec(bands=bands, rows=rows, seed=0),
                train=TrainSpec(max_iter=4),
            ).fit(dataset.X)

        models = benchmark.pedantic(
            lambda: {
                (b, r): run(b, r) for b, r in ((5, 2), (20, 2), (50, 2), (20, 5))
            },
            rounds=1,
            iterations=1,
        )
        shortlist = {
            key: float(np.nanmean(m.stats_.shortlist_sizes))
            for key, m in models.items()
        }
        # Bands grow the shortlist at fixed rows...
        assert shortlist[(5, 2)] <= shortlist[(20, 2)] <= shortlist[(50, 2)] + 0.5
        # ...rows shrink it at fixed bands.
        assert shortlist[(20, 5)] <= shortlist[(20, 2)]
        rows_out = [
            [f"{b}b {r}r", f"{shortlist[(b, r)]:.2f}",
             f"{cluster_purity(models[(b, r)].labels_, dataset.labels):.3f}"]
            for (b, r) in sorted(shortlist)
        ]
        write_result(
            "ablation_band_row_sweep",
            "Ablation — (bands, rows) sweep on the Figure 2 dataset\n"
            + format_table(["config", "mean shortlist", "purity"], rows_out),
        )
