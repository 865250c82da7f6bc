"""K-Modes categorical clustering (Huang 1998) — the paper's baseline.

Implemented from scratch per Section III-A1 of the paper:

* :mod:`repro.kmodes.dissimilarity` — the matching dissimilarity
  d(X, Y) = number of mismatching attributes (Equations 1-2);
* :mod:`repro.kmodes.postings` — the exact nearest-mode search from
  *(attribute, value)* mode postings behind MH-K-Modes' full scans;
* :mod:`repro.kmodes.modes` — column-wise most-frequent-value modes,
  the minimiser of D(X, Q) (Equation 3), read from the sorted
  *(cluster, attribute, value)* counts of :mod:`repro.kmodes.counts`;
* :mod:`repro.kmodes.cost` — the clustering cost P(W, Q) (Equation 4);
* :mod:`repro.kmodes.initialization` — random (used by the paper),
  Huang and Cao centroid initialisation;
* :mod:`repro.kmodes.kmodes` — the :class:`KModes` estimator.
"""

from repro.kmodes.cost import clustering_cost
from repro.kmodes.dissimilarity import (
    distances_to_modes,
    matching_distance,
    pairwise_matching,
)
from repro.kmodes.fuzzy import FuzzyKModes
from repro.kmodes.initialization import (
    cao_init,
    huang_init,
    random_init,
    resolve_init,
)
from repro.kmodes.kmodes import KModes
from repro.kmodes.modes import compute_modes

__all__ = [
    "KModes",
    "FuzzyKModes",
    "matching_distance",
    "distances_to_modes",
    "pairwise_matching",
    "compute_modes",
    "clustering_cost",
    "random_init",
    "huang_init",
    "cao_init",
    "resolve_init",
]
