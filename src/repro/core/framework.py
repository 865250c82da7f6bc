"""The generic LSH-accelerated centroid clustering loop.

This is the paper's framework (Section III-B) factored out of any one
algorithm.  A concrete estimator supplies five kernels:

* how items are validated and *encoded* for the LSH family;
* how initial centroids are chosen;
* the exhaustive assignment pass (used once at setup, per the paper's
  step 2, and by the baseline comparison path);
* a point-to-centroids distance kernel (run against shortlists);
* the centroid update and the cost function.

The base class owns the loop itself:

1. choose centroids; run one exhaustive assignment pass;
2. hash every item once, build the
   :class:`~repro.lsh.index.ClusteredLSHIndex` with the items'
   cluster references (all of this is the *setup* cost the paper
   includes in total clustering time);
3. per iteration: compute exact distances only against each item's
   candidate-cluster shortlist from the index, and update cluster
   references in place (``update_refs='online'``, the paper's
   behaviour: a per-item pass where reassignments are visible to
   later items) or at the end of the pass (``'batch'``: a vectorised
   pass, identical labels on every backend).  Both passes walk the
   items' neighbour lists, which the fit session builds once per fit
   as one flat CSR (the index stores none);
4. recompute centroids; stop when no item moved or ``max_iter`` hits.

All phases of one fit — including the per-iteration passes — run on a
single :class:`~repro.engine.parallel.FitSession`, so every backend
opens exactly one worker pool per fit (in-process on ``serial``) and
bulky arrays cross into workers once.

Shortlists of indexed items always contain the item's current cluster
because every item collides with itself, so an iteration can never
leave an item without candidates.
"""

from __future__ import annotations

import abc

import numpy as np

from repro import kernels
from repro.api.model import ClusterModel
from repro.api.protocol import EstimatorProtocol, SpecAttributeSurface
from repro.api.specs import LSH_FAMILIES, EngineSpec, LSHSpec, TrainSpec
from repro.core.shortlist import apply_fallback, best_centroids_full_scan
from repro.engine.backends import resolve_backend
from repro.engine.parallel import FitSession, best_shortlisted_centroids
from repro.exceptions import (
    ConfigurationError,
    DataValidationError,
    NotFittedError,
    check_fitted,
)
from repro.instrumentation import RunStats, Timer
from repro.obs import PhaseSpans
from repro.lsh.index import ClusteredLSHIndex

__all__ = ["BaseLSHAcceleratedClustering"]


class BaseLSHAcceleratedClustering(SpecAttributeSurface, EstimatorProtocol, abc.ABC):
    """Template for centroid algorithms accelerated with a banded LSH index.

    Configuration is spec-driven (see :mod:`repro.api`): the three
    frozen spec objects fully describe a fit.

    Parameters
    ----------
    n_clusters:
        Number of clusters k.
    lsh:
        :class:`~repro.api.LSHSpec` — hash family, banding (``bands``,
        ``rows``), quantisation ``width`` and the ``seed`` controlling
        both initialisation and hashing.  ``None``: the estimator's
        default spec.
    engine:
        :class:`~repro.api.EngineSpec` — execution backend, worker
        count, setup chunking and process start method.  ``'serial'``
        (the default) reproduces the paper's exact loop; results are
        invariant to the backend.
    train:
        :class:`~repro.api.TrainSpec` — initialisation, ``max_iter``,
        reference-update mode (``'online'`` per the paper on serial,
        ``'batch'`` for the vectorised pass on any backend),
        empty-cluster policy, cost tracking and the predict fallback.

    Attributes
    ----------
    centroids_:
        ``(k, m)`` fitted centroids.
    labels_:
        Training assignments.
    stats_:
        Per-iteration series (time, moves, mean shortlist size); the
        setup pass is recorded in ``stats_.setup_s``.
    index_:
        The built :class:`~repro.lsh.index.ClusteredLSHIndex` (the
        same layout on every backend).

    All fitted attributes raise
    :class:`~repro.exceptions.NotFittedError` before ``fit`` completes;
    after it, :meth:`fitted_model` exports the immutable
    :class:`~repro.api.ClusterModel` serving artifact.
    """

    #: Spec acceptance marker used by the registry/artifact layer.
    _accepts_specs = True

    #: Per-class default specs; concrete estimators override.
    _default_lsh = LSHSpec()
    _default_engine = EngineSpec()
    _default_train = TrainSpec()

    #: Values of ``lsh.family`` / ``train.init`` /
    #: ``train.empty_cluster_policy`` the concrete algorithm supports.
    _supported_families: tuple[str, ...] = LSH_FAMILIES
    _supported_inits: tuple[str, ...] = ("random",)
    _supported_empty_policies: tuple[str, ...] = ("keep", "reinit", "error")

    def __init__(
        self,
        n_clusters: int,
        lsh: LSHSpec | dict | None = None,
        engine: EngineSpec | dict | None = None,
        train: TrainSpec | dict | None = None,
    ):
        lsh = LSHSpec.coerce(lsh, "lsh", self._default_lsh)
        engine = EngineSpec.coerce(engine, "engine", self._default_engine)
        train = TrainSpec.coerce(train, "train", self._default_train)
        if n_clusters <= 0:
            raise ConfigurationError(f"n_clusters must be positive, got {n_clusters}")
        if lsh.family not in self._supported_families:
            raise ConfigurationError(
                f"{type(self).__name__} supports LSH families "
                f"{self._supported_families}, got {lsh.family!r}"
            )
        if train.init not in self._supported_inits:
            raise ConfigurationError(
                f"{type(self).__name__} supports init {self._supported_inits}, "
                f"got {train.init!r}"
            )
        if train.empty_cluster_policy not in self._supported_empty_policies:
            raise ConfigurationError(
                f"{type(self).__name__} supports empty_cluster_policy "
                f"{self._supported_empty_policies}, got "
                f"{train.empty_cluster_policy!r}"
            )
        self.n_clusters = int(n_clusters)
        self.lsh = lsh
        self.engine = engine
        self.train = train
        parallel = engine.backend != "serial"
        if train.update_refs == "online" and parallel:
            raise ConfigurationError(
                "update_refs='online' requires backend='serial'; parallel "
                "backends merge reference updates at a per-pass barrier "
                "(update_refs='batch')"
            )
        self._resolved_update_refs = train.update_refs or (
            "batch" if parallel else "online"
        )

        self.cost_: float = float("nan")
        self.n_iter_: int = 0
        self.converged_: bool = False
        self._centroids: np.ndarray | None = None
        self._labels: np.ndarray | None = None
        self._stats: RunStats | None = None
        self._index: ClusteredLSHIndex | None = None

    # -- spec attribute views: SpecAttributeSurface, with update_refs
    # resolved against the backend --------------------------------------

    @property
    def update_refs(self) -> str:
        """The *resolved* reference-update mode ('online' or 'batch')."""
        return self._resolved_update_refs

    # -- fitted state (NotFittedError before fit) -----------------------

    def _is_fitted(self) -> bool:
        return self._centroids is not None

    @property
    def centroids_(self) -> np.ndarray:
        """``(k, m)`` fitted centroids."""
        check_fitted(self)
        return self._centroids

    @property
    def labels_(self) -> np.ndarray:
        """Training assignments."""
        check_fitted(self)
        return self._labels

    @property
    def stats_(self) -> RunStats | None:
        """Fit statistics (``None`` on estimators restored from disk)."""
        check_fitted(self)
        return self._stats

    @property
    def index_(self) -> ClusteredLSHIndex:
        """The built clustered index."""
        check_fitted(self)
        return self._index

    # -- the fitted-model artifact --------------------------------------

    def _artifact_params(self) -> dict:
        """Estimator-own constructor params persisted in the artifact."""
        return {}

    def _artifact_state(self) -> dict:
        """Extra fitted scalars persisted in the artifact."""
        return {}

    def fitted_model(self) -> ClusterModel:
        """Export the immutable :class:`~repro.api.ClusterModel` artifact.

        The artifact carries everything serving needs — centroids, the
        index's band keys and cluster references, the three specs and
        the estimator-own parameters — so ``predict`` works without
        this training object (and byte-identically to it).
        """
        check_fitted(self)
        index = self._index
        return ClusterModel(
            algorithm=getattr(type(self), "_registry_name", type(self).__name__),
            n_clusters=self.n_clusters,
            centroids=self._centroids,
            lsh=self.lsh,
            engine=self.engine,
            train=self.train,
            labels=self._labels,
            band_keys=None if index is None else index.band_keys,
            assignments=None if index is None else index.assignments,
            params=self._artifact_params(),
            state={**self._artifact_scalars(), **self._artifact_state()},
            metadata=self._artifact_metadata(),
        )

    def _restore_fit_state(self, model: ClusterModel) -> None:
        """Adopt a :class:`~repro.api.ClusterModel`'s fitted state.

        Called on a freshly constructed estimator by
        :meth:`ClusterModel.to_estimator`; the index is rebuilt
        in-process from the band keys (a read-only load should not fork
        a worker pool as a side effect).
        """
        super()._restore_fit_state(model)
        if model.band_keys is not None:
            self._index = ClusteredLSHIndex.from_band_keys(
                self.bands,
                self.rows,
                np.array(model.band_keys),
                np.array(model.assignments),
            )

    # ------------------------------------------------------------------
    # kernels supplied by concrete algorithms
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _validate_X(self, X: np.ndarray) -> np.ndarray:
        """Check and normalise the input matrix."""

    @abc.abstractmethod
    def _algorithm_name(self) -> str:
        """Label used in run statistics, e.g. ``"MH-K-Modes 20b 5r"``."""

    @abc.abstractmethod
    def _initial_centroids(
        self, X: np.ndarray, initial: np.ndarray | None, rng: np.random.Generator
    ) -> np.ndarray:
        """Choose the k starting centroids."""

    @abc.abstractmethod
    def _signatures(self, X: np.ndarray) -> np.ndarray:
        """Encode items and produce the ``(n, bands*rows)`` signatures."""

    @abc.abstractmethod
    def _exhaustive_assign(
        self, X: np.ndarray, centroids: np.ndarray, labels: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Assign every item against every centroid; returns (labels, moves)."""

    @abc.abstractmethod
    def _point_distances(
        self, X: np.ndarray, item: int, centroids: np.ndarray
    ) -> np.ndarray:
        """Distances from item ``item`` to a subset matrix of centroids."""

    @abc.abstractmethod
    def _update_centroids(
        self,
        X: np.ndarray,
        labels: np.ndarray,
        previous: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Recompute centroids for the new assignment."""

    @abc.abstractmethod
    def _compute_cost(
        self, X: np.ndarray, centroids: np.ndarray, labels: np.ndarray
    ) -> float:
        """Clustering cost (only called when ``track_cost`` is on)."""

    # -- optional kernels with generic defaults -------------------------

    def _prepare_signatures(self, X: np.ndarray) -> None:
        """Freeze any data-dependent encoding state before chunked hashing.

        Called by the fit session on the *full* matrix before
        ``_signatures`` runs per chunk, so a chunk's local statistics
        (e.g. the maximum category code) can never change the encoding.
        The default does nothing; override when ``_signatures`` infers
        state from its input.
        """

    def _mode_postings(self, centroids: np.ndarray):
        """Exact nearest-centroid postings over ``centroids``, or ``None``.

        :func:`~repro.core.shortlist.best_centroids_full_scan` resolves
        empty shortlists through the returned
        :class:`~repro.kmodes.postings.ModePostings`.  The default
        ``None`` makes it broadcast ``_block_distances`` over every
        centroid instead, which is what numeric families need.
        """
        return None

    def _block_distances(
        self, block: np.ndarray, centroid_blocks: np.ndarray
    ) -> np.ndarray:
        """Distances from ``block[i]`` to every row of ``centroid_blocks[i]``.

        Parameters
        ----------
        block:
            ``(c, m)`` items.
        centroid_blocks:
            ``(c, s, m)`` per-item candidate centroids (padded rows are
            masked by the caller, so their values are irrelevant).

        Returns
        -------
        numpy.ndarray
            ``(c, s)`` distances.  The default loops over the block via
            ``_point_distances``; override with a fully vectorised
            kernel — it is the hot path of the parallel backends.
        """
        return np.stack(
            [
                self._point_distances(block, i, centroid_blocks[i])
                for i in range(block.shape[0])
            ]
        )

    # ------------------------------------------------------------------
    # the framework loop
    # ------------------------------------------------------------------

    def fit(self, X: np.ndarray, initial_centroids: np.ndarray | None = None):
        """Run the accelerated clustering on ``X``.

        Parameters
        ----------
        X:
            Item matrix (validated by the concrete algorithm).
        initial_centroids:
            Optional explicit starting centroids; pass the same array
            to the exhaustive baseline to replicate the paper's
            fixed-initialisation protocol.
        """
        X = self._validate_X(X)
        rng = np.random.default_rng(self.seed)
        centroids = self._initial_centroids(X, initial_centroids, rng)
        n = X.shape[0]
        backend = resolve_backend(
            self.engine.backend, self.engine.n_jobs, self.engine.start_method
        )

        stats = RunStats(algorithm=self._algorithm_name())

        converged = False
        # One session serves every phase: it opens the backend's worker
        # pool here, exactly once per fit.
        with FitSession(backend, self, X) as session:
            # --- setup: one exhaustive pass + one indexing pass (paper's
            # "initial extra step", charged to total time, not
            # per-iteration).  Pool spin-up is charged to setup too.
            # Every phase reports through the span API: the same Timer
            # readings the old code published in phase_s, now also in
            # the metrics registry (span "fit.<phase>") and the trace
            # stream.  The session reports its own "fit.session_open"
            # span at open.
            phases = PhaseSpans("fit")
            with Timer() as setup_timer:
                with phases.span("exhaustive_assign"):
                    labels = session.exhaustive_assign(
                        centroids, np.full(n, -1, dtype=np.int64)
                    )
                with phases.span(
                    "signatures", kernels=kernels.active_backend()
                ):
                    band_keys = session.band_keys()
                with phases.span("index_build"):
                    index = session.build_index(band_keys, labels)
                centroids = self._update_centroids(X, labels, centroids, rng)
            stats.setup_s = setup_timer.elapsed_s + session.open_s
            stats.phase_s["session_open"] = session.open_s
            stats.phase_s.update(phases.totals)

            for _ in range(self.max_iter):
                with phases.span("iterations") as iteration_span:
                    labels, moves, shortlist_total = session.run_pass(
                        centroids, labels
                    )
                    centroids = self._update_centroids(X, labels, centroids, rng)
                cost = (
                    self._compute_cost(X, centroids, labels)
                    if self.track_cost
                    else float("nan")
                )
                stats.record(
                    duration_s=iteration_span.wall_s,
                    moves=moves,
                    cost=cost,
                    mean_shortlist=shortlist_total / n,
                    n_empty_clusters=self.n_clusters
                    - np.count_nonzero(np.bincount(labels)),
                )
                if moves == 0:
                    converged = True
                    break

        stats.converged = converged
        stats.phase_s["iterations"] = sum(it.duration_s for it in stats.iterations)
        self._centroids = centroids
        self._labels = labels
        self.cost_ = float(self._compute_cost(X, centroids, labels))
        self.n_iter_ = stats.n_iterations
        self.converged_ = converged
        self._stats = stats
        self._index = index
        return self

    def fit_predict(
        self, X: np.ndarray, initial_centroids: np.ndarray | None = None
    ) -> np.ndarray:
        """Fit and return the training labels."""
        self.fit(X, initial_centroids=initial_centroids)
        assert self.labels_ is not None
        return self.labels_

    def _shortlist_pass(
        self,
        X: np.ndarray,
        centroids: np.ndarray,
        labels: np.ndarray,
        index: ClusteredLSHIndex,
        csr: tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> tuple[np.ndarray, int, int]:
        """One assignment pass over all items using index shortlists.

        This is the hot loop of the whole library, so it works on raw
        arrays: the index's live assignment view doubles as the label
        array (online reference updates are then a plain element write),
        and the neighbour lists are walked as slices of ``csr``, the
        ``(group_of, indptr, indices)`` triple of
        :func:`~repro.lsh.index.grouped_neighbour_csr` over the index's
        band keys.  Returns ``(labels, moves, shortlist_total)``.
        """
        online = self.update_refs == "online"
        index.set_assignments(labels)
        refs = index.assignments_view()  # live view; refs[i] = c updates the index
        new_labels = labels.copy()
        working = refs if online else labels
        group_of, nbr_indptr, nbr_indices = csr
        point_distances = self._point_distances
        unique = np.unique
        argmin = np.argmin
        searchsorted = np.searchsorted
        moves = 0
        total_shortlist = 0
        n = X.shape[0]
        for i in range(n):
            group = group_of[i]
            neighbours = nbr_indices[nbr_indptr[group] : nbr_indptr[group + 1]]
            shortlist = unique(working[neighbours])
            total_shortlist += len(shortlist)
            distances = point_distances(X, i, centroids[shortlist])
            best_pos = argmin(distances)
            current = working[i] if online else labels[i]
            # Keep the current cluster on ties so that a fixed point of
            # the assignment step exists (required for the no-moves
            # termination criterion).  ``shortlist`` is sorted (np.unique),
            # so the current cluster is found by bisection.
            cur_pos = searchsorted(shortlist, current)
            if distances[cur_pos] <= distances[best_pos]:
                continue
            best = int(shortlist[best_pos])
            moves += 1
            new_labels[i] = best
            if online:
                refs[i] = best
        if not online:
            index.set_assignments(new_labels)
        return new_labels, moves, total_shortlist

    # ------------------------------------------------------------------
    # prediction for novel items
    # ------------------------------------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Assign unseen items using the index (with fallback policy).

        Novel items are hashed and their shortlists looked up from the
        trained index in one batched query
        (:meth:`~repro.lsh.index.BaseClusteredIndex.shortlists_for_signatures`);
        the nearest shortlisted centroid wins, scored with the
        vectorised ``_block_distances`` kernel over the ragged
        shortlist block.  Rows whose shortlist is empty trigger
        ``predict_fallback`` individually (``'full'`` scores them
        against every centroid; ``'error'`` raises).  Row for row
        identical to hashing and assigning each item on its own.
        """
        check_fitted(self)
        if self._index is None:
            raise NotFittedError(
                "this model carries no clustered index (it was restored "
                "from an artifact without band keys); shortlist-based "
                "predict is unavailable"
            )
        X = self._validate_predict_X(X)
        if X.shape[1] != self.centroids_.shape[1]:
            raise DataValidationError(
                f"X has {X.shape[1]} attributes but the model was fitted "
                f"with {self.centroids_.shape[1]}"
            )
        if X.shape[0] == 0:
            # An empty batch is a legal serving request; the signature
            # and shortlist machinery below assume at least one row.
            return np.empty(0, dtype=np.int64)
        return self._predict_from_signatures(X, self._signatures(X))

    def _predict_from_signatures(
        self, X: np.ndarray, signatures: np.ndarray, band_keys: np.ndarray | None = None
    ) -> np.ndarray:
        """The post-hashing tail of :meth:`predict`.

        Split out so callers that need the signatures for something
        else too — the serving layer's streaming ``extend`` hashes and
        bands once and feeds the same keys to ``insert_batch`` — avoid
        paying the MinHash pass twice.  ``band_keys``, when given, are
        the signatures' bucket keys.  ``X`` must already be validated
        and non-empty.
        """
        indptr, clusters = self.index_.shortlists_for_signatures(
            signatures, band_keys=band_keys
        )
        lengths = np.diff(indptr)
        out = np.empty(X.shape[0], dtype=np.int64)

        empty = np.flatnonzero(lengths == 0)
        if empty.size:
            # Resolve the policy once ('error' raises here); the 'full'
            # fallback then scores the empty rows against every centroid
            # with the full-scan kernel, not as an all-clusters shortlist
            # (which would gather a (rows, k, m) centroid copy per block).
            apply_fallback(
                np.empty(0, dtype=np.int64), self.n_clusters, self.predict_fallback
            )
            labels, _ = best_centroids_full_scan(self, X[empty], self.centroids_)
            out[empty] = labels

        filled = np.flatnonzero(lengths > 0)
        if filled.size:
            # ``clusters`` holds only the filled rows' entries (empty
            # rows contribute zero-length slices), already row-ordered.
            labels, _ = best_shortlisted_centroids(
                self, X[filled], clusters, lengths[filled], self.centroids_
            )
            out[filled] = labels
        return out
