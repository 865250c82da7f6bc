"""MH-K-Modes — the paper's MinHash-accelerated K-Modes (Section III-B).

The estimator plugs the K-Modes kernels (matching dissimilarity,
frequency-based mode update, P(W, Q) cost) into the generic
:class:`~repro.core.framework.BaseLSHAcceleratedClustering` loop with
MinHash as the LSH family:

* items are encoded as sets of *(attribute, value)* tokens, optionally
  dropping an "absent" code first (the presence filtering of
  Algorithm 2 lines 1-4, important for sparse binary data such as the
  Yahoo! Answers word-presence vectors);
* each item is MinHashed once into a banded index that also carries
  the item's current cluster;
* every assignment step consults the index for a shortlist of
  candidate clusters and computes exact matching distances only
  against the shortlist.

With parameters ``bands=20, rows=5`` and the synthetic workloads of
Section IV-A, shortlists shrink from k (tens of thousands in the
paper) to a handful, which is where the 2-6× speedup comes from.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_estimator
from repro.api.specs import EngineSpec, LSHSpec, TrainSpec
from repro.core.framework import BaseLSHAcceleratedClustering
from repro.exceptions import ConfigurationError, DataValidationError
from repro.kmodes.cost import clustering_cost
from repro.kmodes.counts import ModeCounts
from repro.kmodes.initialization import resolve_init
from repro.kmodes.modes import compute_modes
from repro.kmodes.postings import ModePostings
from repro.lsh.minhash import MinHasher

__all__ = ["MHKModes"]


@register_estimator("mh-kmodes")
class MHKModes(BaseLSHAcceleratedClustering):
    """MinHash-accelerated K-Modes.

    Parameters
    ----------
    n_clusters:
        Number of clusters k.
    lsh:
        :class:`~repro.api.LSHSpec`; the family is always
        ``'minhash'``.  The paper evaluates bandings (20, 2), (20, 5),
        (50, 5) and (1, 1); see
        :func:`repro.core.parameters.suggest_bands_rows` for guidance.
    engine:
        :class:`~repro.api.EngineSpec` (backend / workers / setup
        chunking).
    train:
        :class:`~repro.api.TrainSpec`; ``init`` may be ``'random'``
        (the paper), ``'huang'`` or ``'cao'``, and
        ``empty_cluster_policy`` is forwarded to the mode update.
    absent_code:
        If given, attribute values equal to this code are treated as
        "feature not present" and excluded from MinHash (presence
        filtering).  Distances are still computed on the full vectors,
        exactly as in the paper.
    domain_size:
        Global category domain size for token encoding (default:
        inferred from the data).

    Attributes
    ----------
    modes_:
        Alias of ``centroids_`` in K-Modes terminology.

    Examples
    --------
    >>> from repro.api import LSHSpec
    >>> X = np.array([[0, 1, 2], [0, 1, 2], [7, 8, 9], [7, 8, 9]])
    >>> model = MHKModes(n_clusters=2, lsh=LSHSpec(bands=8, rows=1, seed=1))
    >>> sorted(np.bincount(model.fit(X).labels_).tolist())
    [2, 2]
    """

    _default_lsh = LSHSpec(family="minhash", bands=20, rows=5)
    _default_engine = EngineSpec()
    _default_train = TrainSpec()
    _supported_families = ("minhash",)
    _supported_inits = ("random", "huang", "cao")
    _matching_distance = True

    def __init__(
        self,
        n_clusters: int,
        lsh: LSHSpec | dict | None = None,
        engine: EngineSpec | dict | None = None,
        train: TrainSpec | dict | None = None,
        absent_code: int | None = None,
        domain_size: int | None = None,
    ):
        super().__init__(n_clusters, lsh=lsh, engine=engine, train=train)
        resolve_init(self.init)
        self.absent_code = absent_code
        self.domain_size = domain_size
        self._hasher = MinHasher(self.bands * self.rows, seed=self._hash_seed())
        self._fitted_domain_size: int | None = None
        self._postings: ModePostings | None = None
        self._mode_counts: ModeCounts | None = None

    def _hash_seed(self) -> int:
        # Decouple the hashing stream from the initialisation stream so
        # fixing initial modes across variants does not change hashes.
        return (0 if self.seed is None else int(self.seed)) ^ 0x5EEDBEEF

    # ------------------------------------------------------------------
    # K-Modes kernels
    # ------------------------------------------------------------------

    @property
    def modes_(self) -> np.ndarray | None:
        """Cluster modes (K-Modes name for the centroids)."""
        return self.centroids_

    def _algorithm_name(self) -> str:
        return f"MH-K-Modes {self.bands}b {self.rows}r"

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
        # Canonicalise: int64 C-order, so dtype/contiguity variants of
        # the same codes hash to identical tokens (narrow dtypes could
        # otherwise overflow the attribute-offset token encoding).
        return np.ascontiguousarray(X, dtype=np.int64)

    def _initial_centroids(
        self, X: np.ndarray, initial: np.ndarray | None, rng: np.random.Generator
    ) -> np.ndarray:
        if initial is not None:
            initial = np.asarray(initial)
            if initial.shape != (self.n_clusters, X.shape[1]):
                raise DataValidationError(
                    f"initial_centroids shape {initial.shape} != "
                    f"({self.n_clusters}, {X.shape[1]})"
                )
            return initial.astype(X.dtype, copy=True)
        if self.n_clusters > X.shape[0]:
            raise ConfigurationError(
                f"n_clusters={self.n_clusters} exceeds n_items={X.shape[0]}"
            )
        return resolve_init(self.init)(X, self.n_clusters, rng)

    def _prepare_signatures(self, X: np.ndarray) -> None:
        # Freeze the inferred domain on the full matrix before any
        # chunked hashing, so chunk-local maxima cannot change tokens.
        if self.domain_size is None and self._fitted_domain_size is None:
            self._fitted_domain_size = int(X.max()) + 1

    def _signatures(self, X: np.ndarray) -> np.ndarray:
        domain = self.domain_size
        if domain is None:
            # Freeze the inferred domain at fit time so predict-time
            # matrices with smaller maxima encode identically.
            if self._fitted_domain_size is None:
                self._fitted_domain_size = int(X.max()) + 1
            domain = self._fitted_domain_size
        return self._hasher.signatures_categorical(
            X, domain_size=domain, absent_code=self.absent_code
        )

    def _exhaustive_assign(
        self, X: np.ndarray, centroids: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        new_labels, _ = ModePostings(centroids).nearest(
            X, current=labels, block_rows=self.chunk_items
        )
        return new_labels

    def _mode_postings(self, centroids: np.ndarray) -> ModePostings:
        # The empty-shortlist full scan runs against the model's modes
        # or, in a stream, against modes refreshed every few hundred
        # rows.  A rebuild costs one to two milliseconds at k = 800;
        # comparing by content means a stale set is never used, whoever
        # changed the modes.  Threads racing here at worst build twice:
        # the attribute is replaced whole.
        postings = self._postings
        if postings is None or not np.array_equal(postings.modes, centroids):
            postings = ModePostings(centroids)
            self._postings = postings
        return postings

    def _point_distances(
        self, X: np.ndarray, item: int, centroids: np.ndarray
    ) -> np.ndarray:
        # Hot path: inline the matching-distance kernel without the
        # public API's validation (inputs are trusted here, and this
        # runs once per item per iteration).
        return np.count_nonzero(centroids != X[item][None, :], axis=1)

    def _block_distances(
        self, block: np.ndarray, centroid_blocks: np.ndarray
    ) -> np.ndarray:
        # Vectorised matching distance for the engine's chunked passes:
        # (c, s) mismatch counts in one comparison tensor.
        return np.count_nonzero(centroid_blocks != block[:, None, :], axis=2)

    def fit(self, X: np.ndarray, initial_centroids: np.ndarray | None = None):
        # The mode counts live for one fit: every mode update after the
        # first counts only the items that moved.  No fitted, pickled or
        # saved model carries them.
        self._mode_counts = None
        try:
            return super().fit(X, initial_centroids=initial_centroids)
        finally:
            self._mode_counts = None

    def _update_centroids(
        self,
        X: np.ndarray,
        labels: np.ndarray,
        previous: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        if self._mode_counts is None:
            self._mode_counts = ModeCounts(self.n_clusters, X.shape[1])
        return compute_modes(
            X,
            labels,
            self.n_clusters,
            previous_modes=previous,
            empty_policy=self.empty_cluster_policy,
            rng=rng,
            counts=self._mode_counts,
        )

    def _compute_cost(
        self, X: np.ndarray, centroids: np.ndarray, labels: np.ndarray
    ) -> float:
        return float(clustering_cost(X, centroids, labels))

    # ------------------------------------------------------------------
    # artifact support
    # ------------------------------------------------------------------

    def _artifact_params(self) -> dict:
        return {"absent_code": self.absent_code, "domain_size": self.domain_size}

    def _artifact_state(self) -> dict:
        state = super()._artifact_state()
        if self._fitted_domain_size is not None:
            state["fitted_domain_size"] = self._fitted_domain_size
        return state

    def _restore_fit_state(self, model) -> None:
        super()._restore_fit_state(model)
        fitted_domain = model.state.get("fitted_domain_size")
        if fitted_domain is not None:
            self._fitted_domain_size = int(fitted_domain)
