"""Lloyd's K-Means — the exhaustive numeric baseline.

Mirrors :class:`repro.kmodes.KModes` structurally (same statistics,
same convergence criterion, same fixed-initialisation protocol) so the
numeric extension benchmarks read exactly like the categorical ones.
"""

from __future__ import annotations

import numpy as np

from repro.api.protocol import EstimatorProtocol
from repro.api.registry import register_estimator
from repro.api.specs import EngineSpec, TrainSpec
from repro.exceptions import (
    ConfigurationError,
    DataValidationError,
    check_fitted,
)
from repro.instrumentation import RunStats, Timer

__all__ = ["KMeans"]


def _squared_distances(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """All-pairs squared Euclidean distances via the expansion trick.

    ``|x - c|² = |x|² - 2 x·c + |c|²``; one matmul instead of an
    ``(n, k, d)`` broadcast.  Clipped at zero against float cancellation.
    """
    x_sq = np.einsum("ij,ij->i", X, X)[:, None]
    c_sq = np.einsum("ij,ij->i", centroids, centroids)[None, :]
    cross = X @ centroids.T
    return np.maximum(x_sq - 2.0 * cross + c_sq, 0.0)


@register_estimator("kmeans")
class KMeans(EstimatorProtocol):
    """Exhaustive K-Means with per-iteration instrumentation.

    Parameters
    ----------
    n_clusters:
        Number of clusters k.
    init:
        ``'random'`` — k distinct items; ``'kmeans++'`` — D² weighting.
    max_iter:
        Iteration cap.
    seed:
        Initialisation seed.
    track_cost:
        Record the SSE each iteration.

    Attributes
    ----------
    centroids_, labels_, cost_, n_iter_, converged_, stats_:
        As in :class:`repro.kmodes.KModes`.

    Examples
    --------
    >>> X = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
    >>> km = KMeans(n_clusters=2, seed=0).fit(X)
    >>> sorted(np.bincount(km.labels_).tolist())
    [2, 2]
    """

    def __init__(
        self,
        n_clusters: int,
        init: str = "random",
        max_iter: int = 100,
        seed: int | None = None,
        track_cost: bool = True,
    ):
        if n_clusters <= 0:
            raise ConfigurationError(f"n_clusters must be positive, got {n_clusters}")
        if max_iter <= 0:
            raise ConfigurationError(f"max_iter must be positive, got {max_iter}")
        if init not in ("random", "kmeans++"):
            raise ConfigurationError(
                f"init must be 'random' or 'kmeans++', got {init!r}"
            )
        self.n_clusters = int(n_clusters)
        self.init = init
        self.max_iter = int(max_iter)
        self.seed = seed
        self.track_cost = bool(track_cost)

        self.cost_: float = float("nan")
        self.n_iter_: int = 0
        self.converged_: bool = False
        self._centroids: np.ndarray | None = None
        self._labels: np.ndarray | None = None
        self._stats: RunStats | None = None

    # ------------------------------------------------------------------
    # fitted state (NotFittedError before fit)
    # ------------------------------------------------------------------

    def _is_fitted(self) -> bool:
        return self._centroids is not None

    @property
    def centroids_(self) -> np.ndarray:
        """``(k, d)`` fitted centroids."""
        check_fitted(self)
        return self._centroids

    @property
    def labels_(self) -> np.ndarray:
        """``(n,)`` cluster id per training item."""
        check_fitted(self)
        return self._labels

    @property
    def stats_(self) -> RunStats | None:
        """Fit statistics (``None`` on estimators restored from disk)."""
        check_fitted(self)
        return self._stats

    # ------------------------------------------------------------------

    def fit(self, X: np.ndarray, initial_centroids: np.ndarray | None = None) -> "KMeans":
        """Cluster ``X``; optionally start from explicit centroids."""
        X = self._validate_X(X)
        rng = np.random.default_rng(self.seed)
        centroids = self._initial_centroids(X, initial_centroids, rng)
        n = X.shape[0]
        labels = np.full(n, -1, dtype=np.int64)
        stats = RunStats(algorithm="K-Means")
        converged = False

        for _ in range(self.max_iter):
            with Timer() as timer:
                distances = _squared_distances(X, centroids)
                best = np.argmin(distances, axis=1)
                assigned = labels >= 0
                if np.any(assigned):
                    rows = np.flatnonzero(assigned)
                    current = labels[rows]
                    keep = distances[rows, current] <= distances[rows, best[rows]]
                    best[rows[keep]] = current[keep]
                moves = int(np.count_nonzero(best != labels))
                labels = best
                centroids = self._update(X, labels, centroids)
            cost = (
                float(_squared_distances(X, centroids)[np.arange(n), labels].sum())
                if self.track_cost
                else float("nan")
            )
            stats.record(
                duration_s=timer.elapsed_s,
                moves=moves,
                cost=cost,
                mean_shortlist=float(self.n_clusters),
                n_empty_clusters=self.n_clusters
                - np.count_nonzero(np.bincount(labels)),
            )
            if moves == 0:
                converged = True
                break

        stats.converged = converged
        self._centroids = centroids
        self._labels = labels
        self.cost_ = float(
            _squared_distances(X, centroids)[np.arange(n), labels].sum()
        )
        self.n_iter_ = stats.n_iterations
        self.converged_ = converged
        self._stats = stats
        return self

    def fit_predict(self, X: np.ndarray, initial_centroids: np.ndarray | None = None) -> np.ndarray:
        """Fit and return the training labels."""
        self.fit(X, initial_centroids=initial_centroids)
        assert self.labels_ is not None
        return self.labels_

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Assign new points to the nearest fitted centroid."""
        check_fitted(self)
        X = self._validate_predict_X(X)
        if X.shape[1] != self.centroids_.shape[1]:
            raise DataValidationError(
                f"X has {X.shape[1]} features but the model was fitted "
                f"with {self.centroids_.shape[1]}"
            )
        if X.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        return np.argmin(_squared_distances(X, self.centroids_), axis=1)

    # ------------------------------------------------------------------
    # artifact support
    # ------------------------------------------------------------------

    def fitted_model(self):
        """Export the immutable :class:`~repro.api.ClusterModel` artifact."""
        from repro.api.model import ClusterModel

        check_fitted(self)
        return ClusterModel(
            algorithm=type(self)._registry_name,
            n_clusters=self.n_clusters,
            centroids=self._centroids,
            lsh=None,
            engine=EngineSpec(),
            train=TrainSpec(
                init=self.init, max_iter=self.max_iter, track_cost=self.track_cost
            ),
            labels=self._labels,
            params=self.get_params(),
            state=self._artifact_scalars(),
            metadata=self._artifact_metadata(),
        )

    # ------------------------------------------------------------------

    def _validate_X(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.size == 0:
            raise DataValidationError("X must be a non-empty 2-D matrix")
        if not np.all(np.isfinite(X)):
            raise DataValidationError("X contains NaN or infinite values")
        return X

    def _initial_centroids(
        self,
        X: np.ndarray,
        initial: np.ndarray | None,
        rng: np.random.Generator,
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
        if self.init == "random":
            return X[rng.choice(X.shape[0], self.n_clusters, replace=False)].copy()
        return self._kmeanspp(X, rng)

    def _kmeanspp(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """k-means++ seeding (D² sampling)."""
        n = X.shape[0]
        centroids = np.empty((self.n_clusters, X.shape[1]), dtype=np.float64)
        centroids[0] = X[rng.integers(n)]
        closest = _squared_distances(X, centroids[:1]).ravel()
        for i in range(1, self.n_clusters):
            total = closest.sum()
            if total <= 0.0:
                # All points coincide with chosen centroids; fill uniformly.
                centroids[i:] = X[rng.choice(n, self.n_clusters - i)]
                break
            probabilities = closest / total
            centroids[i] = X[rng.choice(n, p=probabilities)]
            closest = np.minimum(
                closest, _squared_distances(X, centroids[i : i + 1]).ravel()
            )
        return centroids

    def _update(
        self, X: np.ndarray, labels: np.ndarray, previous: np.ndarray
    ) -> np.ndarray:
        """Mean update; empty clusters keep their previous centroid."""
        sums = np.zeros_like(previous)
        np.add.at(sums, labels, X)
        counts = np.bincount(labels, minlength=self.n_clusters).astype(np.float64)
        out = previous.copy()
        populated = counts > 0
        out[populated] = sums[populated] / counts[populated, None]
        return out

