"""The K-Modes estimator (Huang 1998) — exhaustive baseline.

Batch K-Modes as described in Section III-A1 of the paper:

1. select k initial modes;
2. assign every item to the cluster whose mode has the smallest
   matching dissimilarity — against **all k modes** (the bottleneck
   the paper attacks);
3. recompute every cluster's mode;
4. repeat 2-3 until no item changes cluster or ``max_iter`` is hit.

Determinism: given a seed (or explicit ``initial_modes``) the run is
fully reproducible.  Ties in the assignment step keep the item's
current cluster when it participates in the tie and otherwise go to the
lowest cluster id, which guarantees the no-moves termination criterion
is reachable.
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
from repro.kmodes.cost import clustering_cost
from repro.kmodes.counts import ModeCounts
from repro.kmodes.initialization import resolve_init
from repro.kmodes.modes import compute_modes

__all__ = ["KModes"]


@register_estimator("kmodes")
class KModes(EstimatorProtocol):
    """Exhaustive K-Modes clustering for categorical data.

    Parameters
    ----------
    n_clusters:
        Number of clusters k.
    init:
        Initialisation method: ``'random'`` (paper default), ``'huang'``
        or ``'cao'``.  Ignored when ``fit`` receives ``initial_modes``.
    max_iter:
        Iteration cap; the run may stop earlier on convergence.
    seed:
        Seed controlling initialisation.
    empty_cluster_policy:
        Passed to :func:`repro.kmodes.modes.compute_modes`:
        ``'keep'`` (default), ``'reinit'`` or ``'error'``.
    track_cost:
        Record P(W, Q) each iteration (small extra cost; on by default).
    chunk_items:
        Items per chunk in the exhaustive assignment step.  Bounds the
        ``(chunk, k, m)`` comparison tensor; tune down if memory-bound.

    Attributes
    ----------
    modes_:
        ``(k, m)`` fitted cluster modes.
    labels_:
        ``(n,)`` cluster id per training item.
    cost_:
        Final P(W, Q).
    n_iter_:
        Iterations executed.
    converged_:
        True if the run stopped because no item moved.
    stats_:
        :class:`repro.instrumentation.RunStats` with the per-iteration
        series (time, moves, cost) the paper plots.

    Examples
    --------
    >>> X = np.array([[0, 1], [0, 1], [5, 9], [5, 9]])
    >>> km = KModes(n_clusters=2, seed=0).fit(X)
    >>> sorted(np.bincount(km.labels_).tolist())
    [2, 2]
    """

    _centroid_attr = "_modes"

    def __init__(
        self,
        n_clusters: int,
        init: str = "random",
        max_iter: int = 100,
        seed: int | None = None,
        empty_cluster_policy: str = "keep",
        track_cost: bool = True,
        chunk_items: int = 256,
    ):
        if n_clusters <= 0:
            raise ConfigurationError(f"n_clusters must be positive, got {n_clusters}")
        if max_iter <= 0:
            raise ConfigurationError(f"max_iter must be positive, got {max_iter}")
        if chunk_items <= 0:
            raise ConfigurationError(f"chunk_items must be positive, got {chunk_items}")
        resolve_init(init)  # fail fast on unknown names
        self.n_clusters = int(n_clusters)
        self.init = init
        self.max_iter = int(max_iter)
        self.seed = seed
        self.empty_cluster_policy = empty_cluster_policy
        self.track_cost = bool(track_cost)
        self.chunk_items = int(chunk_items)

        self.cost_: float = float("nan")
        self.n_iter_: int = 0
        self.converged_: bool = False
        self._modes: np.ndarray | None = None
        self._labels: np.ndarray | None = None
        self._stats: RunStats | None = None

    # ------------------------------------------------------------------
    # fitted state (NotFittedError before fit)
    # ------------------------------------------------------------------

    def _is_fitted(self) -> bool:
        return self._modes is not None

    @property
    def modes_(self) -> np.ndarray:
        """``(k, m)`` fitted cluster modes."""
        check_fitted(self)
        return self._modes

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
    # fitting
    # ------------------------------------------------------------------

    def fit(self, X: np.ndarray, initial_modes: np.ndarray | None = None) -> "KModes":
        """Cluster ``X`` and populate the fitted attributes.

        Parameters
        ----------
        X:
            ``(n, m)`` matrix of non-negative integer category codes.
        initial_modes:
            Optional explicit ``(k, m)`` starting modes.  The paper
            fixes these across algorithm variants so initialisation
            cannot influence the comparison; pass the same array to
            :class:`repro.core.MHKModes` to replicate that protocol.
        """
        X = self._validate_X(X)
        rng = np.random.default_rng(self.seed)
        modes = self._initial_modes(X, initial_modes, rng)

        n = X.shape[0]
        labels = np.full(n, -1, dtype=np.int64)
        stats = RunStats(algorithm="K-Modes")
        converged = False
        # carried across iterations: each mode update counts the moves only
        counts = ModeCounts(self.n_clusters, X.shape[1])

        for _ in range(self.max_iter):
            with Timer() as timer:
                new_labels, moves = self._assign(X, modes, labels)
                modes = compute_modes(
                    X,
                    new_labels,
                    self.n_clusters,
                    previous_modes=modes,
                    empty_policy=self.empty_cluster_policy,
                    rng=rng,
                    counts=counts,
                )
                labels = new_labels
            cost = (
                clustering_cost(X, modes, labels) if self.track_cost else float("nan")
            )
            empty = self.n_clusters - np.count_nonzero(np.bincount(labels))
            stats.record(
                duration_s=timer.elapsed_s,
                moves=moves,
                cost=cost,
                mean_shortlist=float(self.n_clusters),
                n_empty_clusters=empty,
            )
            if moves == 0:
                converged = True
                break

        stats.converged = converged
        self._modes = modes
        self._labels = labels
        self.cost_ = float(clustering_cost(X, modes, labels))
        self.n_iter_ = stats.n_iterations
        self.converged_ = converged
        self._stats = stats
        return self

    def fit_predict(self, X: np.ndarray, initial_modes: np.ndarray | None = None) -> np.ndarray:
        """Fit and return the training labels."""
        self.fit(X, initial_modes=initial_modes)
        assert self.labels_ is not None
        return self.labels_

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Assign new items to the nearest fitted mode (exhaustively)."""
        check_fitted(self)
        X = self._validate_predict_X(X)
        if X.shape[1] != self.modes_.shape[1]:
            raise DataValidationError(
                f"X has {X.shape[1]} attributes but the model was fitted "
                f"with {self.modes_.shape[1]}"
            )
        if X.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        labels, _ = self._assign(X, self.modes_, np.full(len(X), -1, dtype=np.int64))
        return labels

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _validate_X(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X)
        if X.ndim != 2 or X.size == 0:
            raise DataValidationError("X must be a non-empty 2-D matrix")
        if not np.issubdtype(X.dtype, np.integer):
            raise DataValidationError(
                f"X must hold integer category codes, got dtype {X.dtype}; "
                "use repro.data.encoding.CategoricalEncoder for raw values"
            )
        if X.min() < 0:
            raise DataValidationError("category codes must be non-negative")
        # Canonical int64 C-order so dtype/contiguity variants of the
        # same codes produce identical distances and labels.
        return np.ascontiguousarray(X, dtype=np.int64)

    def _initial_modes(
        self,
        X: np.ndarray,
        initial_modes: np.ndarray | None,
        rng: np.random.Generator,
    ) -> np.ndarray:
        if initial_modes is not None:
            initial_modes = np.asarray(initial_modes)
            if initial_modes.shape != (self.n_clusters, X.shape[1]):
                raise DataValidationError(
                    f"initial_modes shape {initial_modes.shape} != "
                    f"({self.n_clusters}, {X.shape[1]})"
                )
            return initial_modes.astype(X.dtype, copy=True)
        if self.n_clusters > X.shape[0]:
            raise ConfigurationError(
                f"n_clusters={self.n_clusters} exceeds n_items={X.shape[0]}"
            )
        return resolve_init(self.init)(X, self.n_clusters, rng)

    def _assign(
        self, X: np.ndarray, modes: np.ndarray, labels: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Exhaustive assignment with keep-current-on-tie semantics.

        Processes items in chunks so the ``(chunk, k, m)`` boolean
        comparison tensor stays within a fixed memory budget.
        """
        n = X.shape[0]
        new_labels = np.empty(n, dtype=np.int64)
        for start in range(0, n, self.chunk_items):
            stop = min(start + self.chunk_items, n)
            dists = np.count_nonzero(
                X[start:stop, None, :] != modes[None, :, :], axis=2
            )
            best = np.argmin(dists, axis=1)
            chunk_labels = labels[start:stop]
            assigned = chunk_labels >= 0
            if np.any(assigned):
                rows = np.flatnonzero(assigned)
                current = chunk_labels[rows]
                keep = dists[rows, current] <= dists[rows, best[rows]]
                best[rows[keep]] = current[keep]
            new_labels[start:stop] = best
        moves = int(np.count_nonzero(new_labels != labels))
        return new_labels, moves

    # ------------------------------------------------------------------
    # artifact support
    # ------------------------------------------------------------------

    def fitted_model(self):
        """Export the immutable :class:`~repro.api.ClusterModel` artifact.

        The exhaustive baseline has no LSH index, so the artifact
        carries ``lsh=None`` and serves ``predict`` by full scans —
        exactly like this estimator.
        """
        from repro.api.model import ClusterModel

        check_fitted(self)
        return ClusterModel(
            algorithm=type(self)._registry_name,
            n_clusters=self.n_clusters,
            centroids=self._modes,
            lsh=None,
            engine=EngineSpec(chunk_items=self.chunk_items),
            train=TrainSpec(
                init=self.init,
                max_iter=self.max_iter,
                empty_cluster_policy=self.empty_cluster_policy,
                track_cost=self.track_cost,
            ),
            labels=self._labels,
            params=self.get_params(),
            state=self._artifact_scalars(),
            metadata=self._artifact_metadata(),
        )
