"""Measurement plumbing shared by every estimator and benchmark.

The paper's evaluation (Figures 2-10) plots, per iteration: wall time,
number of cluster reassignments ("moves"), and the average size of the
candidate-cluster shortlist.  :class:`~repro.instrumentation.stats.RunStats`
records exactly those series so that any fitted estimator can be turned
into the paper's figures without re-running anything.
"""

from repro.instrumentation.stats import IterationStats, RunStats
from repro.instrumentation.timer import Timer

__all__ = ["IterationStats", "RunStats", "Timer"]
