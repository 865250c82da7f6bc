"""The paper's primary contribution: LSH-accelerated centroid clustering.

* :mod:`repro.core.framework` — the generic accelerate-any-centroid-
  algorithm loop: index items once, shortlist candidate clusters per
  item per iteration, update cluster references in O(1).
* :mod:`repro.core.mh_kmodes` — :class:`MHKModes`, the MinHash +
  K-Modes instantiation evaluated in the paper.
* :mod:`repro.core.error_bound` — closed-form candidate-pair and
  cluster-recall probabilities (Tables I & II) and the Section III-C
  error bound.
* :mod:`repro.core.parameters` — (bands, rows) selection helpers
  implementing the guidance of Section III-D.
* :mod:`repro.core.shortlist` — fallback policies for empty
  shortlists and the full-scan kernel behind them.
"""

from repro.core.error_bound import (
    candidate_pair_probability,
    cluster_recall_probability,
    error_bound,
    minimum_similarity,
)
from repro.core.framework import BaseLSHAcceleratedClustering
from repro.core.mh_kmodes import MHKModes
from repro.core.parameters import (
    ParameterRecommendation,
    probability_table,
    suggest_bands_rows,
)
from repro.core.streaming import ClusterModeTracker, StreamingMHKModes

__all__ = [
    "MHKModes",
    "StreamingMHKModes",
    "ClusterModeTracker",
    "BaseLSHAcceleratedClustering",
    "candidate_pair_probability",
    "cluster_recall_probability",
    "error_bound",
    "minimum_similarity",
    "suggest_bands_rows",
    "probability_table",
    "ParameterRecommendation",
]
