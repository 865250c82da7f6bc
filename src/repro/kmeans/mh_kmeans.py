"""LSH-K-Means — the framework applied to numeric data (Further Work).

Identical loop to :class:`repro.core.MHKModes`, with three swaps:

* the LSH family is SimHash (cosine) or p-stable projections
  (Euclidean) instead of MinHash;
* distances are squared Euclidean;
* centroids update as means instead of modes.

Everything else — the one-off exhaustive pass, the clustered index
with O(1) reference updates, the shortlist assignment — is inherited
from :class:`repro.core.framework.BaseLSHAcceleratedClustering`,
demonstrating the paper's claim that the framework is generic over
centroid-based algorithms.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_estimator
from repro.api.specs import EngineSpec, LSHSpec, TrainSpec
from repro.core.framework import BaseLSHAcceleratedClustering
from repro.exceptions import ConfigurationError, DataValidationError
from repro.kmeans.kmeans import _squared_distances
from repro.lsh.pstable import PStableHasher
from repro.lsh.simhash import SimHasher

__all__ = ["LSHKMeans"]


@register_estimator("lsh-kmeans")
class LSHKMeans(BaseLSHAcceleratedClustering):
    """K-Means accelerated with a banded LSH index over the items.

    Parameters
    ----------
    n_clusters:
        Number of clusters k.
    lsh:
        :class:`~repro.api.LSHSpec`; the family may be ``'simhash'``
        (cosine; good for direction-clustered data) or ``'pstable'``
        (Euclidean; pick ``width`` near the intra-cluster scale — the
        default spec).
    engine, train:
        See :class:`~repro.core.framework.BaseLSHAcceleratedClustering`.

    Examples
    --------
    >>> from repro.api import LSHSpec
    >>> rng = np.random.default_rng(0)
    >>> X = np.vstack([rng.normal(0, 0.1, (20, 5)), rng.normal(5, 0.1, (20, 5))])
    >>> spec = LSHSpec(family="pstable", bands=8, rows=2, seed=0)
    >>> model = LSHKMeans(n_clusters=2, lsh=spec).fit(X)
    >>> sorted(np.bincount(model.labels_).tolist())
    [20, 20]
    """

    _default_lsh = LSHSpec(family="pstable", bands=16, rows=4)
    _default_engine = EngineSpec()
    _default_train = TrainSpec()
    _supported_families = ("simhash", "pstable")
    _supported_inits = ("random",)
    # Empty clusters keep their previous centroid in the mean update.
    _supported_empty_policies = ("keep",)

    def __init__(
        self,
        n_clusters: int,
        lsh: LSHSpec | dict | None = None,
        engine: EngineSpec | dict | None = None,
        train: TrainSpec | dict | None = None,
    ):
        super().__init__(n_clusters, lsh=lsh, engine=engine, train=train)
        hash_seed = (0 if self.seed is None else int(self.seed)) ^ 0x5EEDBEEF
        if self.family == "simhash":
            self._hasher = SimHasher(self.bands * self.rows, seed=hash_seed)
        else:
            self._hasher = PStableHasher(
                self.bands * self.rows, seed=hash_seed, width=self.width
            )

    def _algorithm_name(self) -> str:
        return f"LSH-K-Means({self.family}) {self.bands}b {self.rows}r"

    def _validate_X(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.size == 0:
            raise DataValidationError("X must be a non-empty 2-D matrix")
        if not np.all(np.isfinite(X)):
            raise DataValidationError("X contains NaN or infinite values")
        return X

    def _initial_centroids(
        self, X: np.ndarray, initial: np.ndarray | None, rng: np.random.Generator
    ) -> np.ndarray:
        if initial is not None:
            initial = np.asarray(initial, dtype=np.float64)
            if initial.shape != (self.n_clusters, X.shape[1]):
                raise DataValidationError(
                    f"initial_centroids shape {initial.shape} != "
                    f"({self.n_clusters}, {X.shape[1]})"
                )
            return initial.copy()
        if self.n_clusters > X.shape[0]:
            raise ConfigurationError(
                f"n_clusters={self.n_clusters} exceeds n_items={X.shape[0]}"
            )
        return X[rng.choice(X.shape[0], self.n_clusters, replace=False)].copy()

    def _prepare_signatures(self, X: np.ndarray) -> None:
        # Both numeric hashers draw their projections lazily on first
        # use; force that here so parallel signature chunks never race
        # on the initialisation (and all see identical projections).
        self._hasher.signatures(X[:1])

    def _signatures(self, X: np.ndarray) -> np.ndarray:
        return self._hasher.signatures(X)

    def _exhaustive_assign(
        self, X: np.ndarray, centroids: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        distances = _squared_distances(X, centroids)
        best = np.argmin(distances, axis=1)
        assigned = labels >= 0
        if np.any(assigned):
            rows_idx = np.flatnonzero(assigned)
            current = labels[rows_idx]
            keep = distances[rows_idx, current] <= distances[rows_idx, best[rows_idx]]
            best[rows_idx[keep]] = current[keep]
        return best.astype(np.int64)

    def _point_distances(
        self, X: np.ndarray, item: int, centroids: np.ndarray
    ) -> np.ndarray:
        delta = centroids - X[item][None, :]
        return np.einsum("ij,ij->i", delta, delta)

    def _block_distances(
        self, block: np.ndarray, centroid_blocks: np.ndarray
    ) -> np.ndarray:
        # Same contraction order over the attribute axis as the per-item
        # einsum above, so chunked passes reproduce serial distances
        # bit for bit.
        delta = centroid_blocks - block[:, None, :]
        return np.einsum("csm,csm->cs", delta, delta)

    def _update_centroids(
        self,
        X: np.ndarray,
        labels: np.ndarray,
        previous: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        sums = np.zeros_like(previous)
        np.add.at(sums, labels, X)
        counts = np.bincount(labels, minlength=self.n_clusters).astype(np.float64)
        out = previous.copy()
        populated = counts > 0
        out[populated] = sums[populated] / counts[populated, None]
        return out

    def _compute_cost(
        self, X: np.ndarray, centroids: np.ndarray, labels: np.ndarray
    ) -> float:
        deltas = X - centroids[labels]
        return float(np.einsum("ij,ij->", deltas, deltas))
