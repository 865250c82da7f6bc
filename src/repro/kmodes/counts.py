"""Sorted *(cluster, attribute, value)* counts: the one mode-count layout.

Every mode update reads the same table: how often each category value
occurs in each attribute of each cluster's members.  A cluster's mode is
then, attribute by attribute, the value with the highest count, the
smallest code winning ties (Section III-A1, Equation 3).

:class:`ModeCounts` keeps that table as sorted int64 keys
``(cluster * m + attribute) * span + code``, one count per key, so each
``(cluster, attribute)`` pair owns a contiguous run ordered by value:

* a *main* segment, and a *delta* segment that new triples are inserted
  into and that merges into main past ``max(4096, main entries / 8)``
  (the growth rule of the array-native LSH index);
* the best value and its count per pair, kept incrementally: an
  increment can only lift the incremented value, so the pair's best
  increment is compared with the cached best; a decrement that hits the
  cached best value rescans that pair's runs in both segments, and
  nothing else;
* value codes that are exact over the whole int64 range: an offset from
  the smallest code while ``pairs * span`` stays below ``2**62`` (with
  doubling headroom when a later batch widens the range), otherwise
  ranks in a sorted vocabulary of the values counted.

Adds, removes and moves are one weighted update, so a fit's mode update
pays for the rows that moved
(:func:`repro.kmodes.modes.compute_modes` with ``counts=``), and the
streaming tracker (:class:`repro.core.streaming.ClusterModeTracker`)
counts arrivals in the same layout.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, DataValidationError
from repro.sorting import run_starts, sorted_unique

__all__ = ["ModeCounts", "raise_best"]

#: The delta segment merges into main once it holds more than
#: ``max(_MIN_DELTA, main entries // _DELTA_RATIO)`` entries.
_MIN_DELTA = 4096
_DELTA_RATIO = 8

#: Every key stays below this bound, so key arithmetic never wraps.
_KEY_LIMIT = 2**62

#: Stored counts are int32, a third of the layout's bytes saved: a count
#: passing this bound raises rather than wrapping.
_COUNT_MAX = np.iinfo(np.int32).max

_NO_KEYS = np.empty(0, dtype=np.int64)
_NO_COUNTS = np.empty(0, dtype=np.int32)


def _locate(keys: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(found, position)`` of sorted ``queries`` in the sorted ``keys``."""
    position = np.searchsorted(keys, queries)
    if not len(keys):
        return np.zeros(len(queries), dtype=bool), position
    found = keys[np.minimum(position, len(keys) - 1)] == queries
    return found, position


def _first_max(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per run ``counts[starts[i]:starts[i + 1]]``: the index of its first
    highest count, and that count.

    Entries of a run are sorted by value code, so the first entry that
    reaches the run's highest count holds the smallest tied code.
    """
    top = np.maximum.reduceat(counts, starts)
    lengths = np.diff(starts, append=len(counts))
    hits = np.flatnonzero(counts == np.repeat(top, lengths))
    return hits[np.searchsorted(hits, starts)], top


def raise_best(
    best_value: np.ndarray,
    best_count: np.ndarray,
    pairs: np.ndarray,
    values: np.ndarray,
    counts: np.ndarray,
) -> None:
    """Fold risen counts into cached ``(k, m)`` best values and counts.

    ``counts`` are the counts, after they rose, of distinct triples
    sorted by ``(pair, value)``, where pair ``c * m + a`` flattens
    ``(cluster, attribute)``.  A count that rose can only lift its own
    value, so per pair the best of the risen triples either replaces
    the cached best or leaves it standing.
    """
    starts = run_starts(pairs)
    first, count = _first_max(starts, counts)
    pair, value = pairs[starts], values[first]
    best_value = best_value.reshape(-1)
    best_count = best_count.reshape(-1)
    held = best_count[pair]
    better = (count > held) | ((count == held) & (value < best_value[pair]))
    best_count[pair[better]] = count[better]
    best_value[pair[better]] = value[better]


class ModeCounts:
    """Per-cluster, per-attribute value counts with incremental modes.

    Parameters
    ----------
    n_clusters, n_attributes:
        Extents of the ``(cluster, attribute)`` pairs.

    Attributes
    ----------
    best_value, best_count:
        ``(n_clusters, n_attributes)`` int64: per pair, the value with
        the highest count (smallest code on ties) and that count.  A
        count of 0 marks a pair with nothing counted; its value is
        meaningless.

    Examples
    --------
    >>> counts = ModeCounts(2, 2)
    >>> counts.add(np.array([[1, 7], [3, 7], [3, 5]]), np.array([0, 0, 1]))
    >>> counts.best_value.tolist(), counts.best_count.tolist()
    ([[1, 7], [3, 5]], [[1, 2], [1, 1]])
    >>> counts.remove(np.array([[1, 7]]), np.array([0]))
    >>> counts.best_value[0].tolist()
    [3, 7]
    """

    def __init__(self, n_clusters: int, n_attributes: int) -> None:
        if n_clusters <= 0 or n_attributes <= 0:
            raise ConfigurationError(
                "n_clusters and n_attributes must be positive, got "
                f"{n_clusters} and {n_attributes}"
            )
        self.n_clusters = int(n_clusters)
        self.n_attributes = int(n_attributes)
        self.best_value = np.zeros((self.n_clusters, self.n_attributes), np.int64)
        self.best_count = np.zeros((self.n_clusters, self.n_attributes), np.int64)
        self._attr = np.arange(self.n_attributes, dtype=np.int64)
        self._keys, self._counts = _NO_KEYS, _NO_COUNTS
        self._delta_keys, self._delta_counts = _NO_KEYS, _NO_COUNTS
        # value code = value - base, or a rank in vocab when set
        self._base = 0
        self._span = 1
        self._vocab: np.ndarray | None = None
        # the matrix and labelling sync() keeps these counts equal to
        self._source: np.ndarray | None = None
        self._labels: np.ndarray | None = None

    @property
    def n_entries(self) -> int:
        """Stored triples, in both segments (zero counts included)."""
        return len(self._keys) + len(self._delta_keys)

    # -- public updates --------------------------------------------------

    def add(self, X: np.ndarray, labels: np.ndarray) -> None:
        """Count the rows of ``X`` into the clusters ``labels`` names."""
        self._apply(*self._rows(X, labels))

    def remove(self, X: np.ndarray, labels: np.ndarray) -> None:
        """Take counted rows out again; rows never counted raise."""
        pairs, values = self._rows(X, labels)
        self._apply(pairs, values, np.full(len(pairs), -1, dtype=np.int64))

    def add_triples(
        self,
        clusters: np.ndarray,
        attributes: np.ndarray,
        values: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        """Add ``counts[i]`` to triple ``i``; a negative count removes."""
        clusters, attributes, values, counts = (
            np.asarray(a, dtype=np.int64).ravel()
            for a in (clusters, attributes, values, counts)
        )
        if not len(clusters) == len(attributes) == len(values) == len(counts):
            raise DataValidationError("triples and counts must have equal lengths")
        if len(clusters) and (
            clusters.min() < 0
            or clusters.max() >= self.n_clusters
            or attributes.min() < 0
            or attributes.max() >= self.n_attributes
        ):
            raise DataValidationError(
                f"(cluster, attribute) outside ({self.n_clusters}, "
                f"{self.n_attributes})"
            )
        self._apply(clusters * self.n_attributes + attributes, values, counts)

    def sync(self, X: np.ndarray, labels: np.ndarray) -> None:
        """Make the counts those of ``X`` under ``labels``.

        The first call counts every row; each later call moves only the
        rows whose label changed since the previous call.  The counts
        then belong to that matrix object: another matrix raises
        instead of being answered from stale counts.
        """
        labels = np.asarray(labels, dtype=np.int64)
        if self._source is None:
            if self.n_entries:
                raise DataValidationError(
                    "sync() needs counts that hold nothing yet or that an "
                    "earlier sync() built"
                )
            self.add(X, labels)
            self._source, self._labels = X, labels.copy()
            return
        if X is not self._source or labels.shape != self._labels.shape:
            raise DataValidationError(
                "these counts were built on another matrix; build fresh "
                "counts for this one"
            )
        moved = np.flatnonzero(labels != self._labels)
        if not moved.size:
            return
        rows = X[moved]
        old_pairs, values = self._rows(rows, self._labels[moved])
        new_pairs, _ = self._rows(rows, labels[moved])
        weights = np.ones(2 * len(values), dtype=np.int64)
        weights[: len(values)] = -1
        self._apply(
            np.concatenate([old_pairs, new_pairs]),
            np.concatenate([values, values]),
            weights,
        )
        self._labels[moved] = labels[moved]

    # -- the weighted update ---------------------------------------------

    def _rows(self, X: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat ``(pair, value)`` of every cell of labelled rows."""
        X = np.asarray(X)
        labels = np.asarray(labels, dtype=np.int64)
        if X.ndim != 2 or X.shape[1] != self.n_attributes:
            raise DataValidationError(
                f"X must be (n, {self.n_attributes}), got shape {X.shape}"
            )
        if X.dtype.kind not in "biu":
            raise DataValidationError(
                f"X must hold integer category codes, got dtype {X.dtype}"
            )
        if labels.shape != (len(X),):
            raise DataValidationError(f"{len(X)} rows but {len(labels)} labels")
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_clusters):
            raise DataValidationError(
                f"labels outside [0, {self.n_clusters}): min={labels.min()}, "
                f"max={labels.max()}"
            )
        pairs = (labels[:, None] * self.n_attributes + self._attr).ravel()
        return pairs, X.astype(np.int64, copy=False).ravel()

    def _apply(
        self, pairs: np.ndarray, values: np.ndarray, weights: np.ndarray | None = None
    ) -> None:
        """Add ``weights`` (default: 1 each) to the ``(pair, value)`` counts.

        ``pairs`` is consumed: its buffer becomes the keys.  Validates
        everything before changing anything: a batch that would take a
        count below zero raises and leaves the counts as they were.
        """
        if not len(pairs):
            return
        self._cover(values)
        span = self._span
        keys = pairs
        keys *= span
        if self._vocab is None:
            # in place; a wrapped intermediate still ends exact
            keys += values
            keys -= self._base
        else:
            keys += self._encode(values)
        if weights is None:
            keys.sort()
            starts = run_starts(keys)
            # run lengths written into one array: no appended copy
            net = np.empty(len(starts), dtype=np.int64)
            np.subtract(starts[1:], starts[:-1], out=net[:-1])
            net[-1] = len(keys) - starts[-1]
            keys = keys[starts]
            del starts  # freed before _build, where the layout peaks
        else:
            order = np.argsort(keys)
            keys = keys[order]
            starts = run_starts(keys)
            net = np.add.reduceat(weights[order], starts)
            keep = net != 0
            keys, net = keys[starts][keep], net[keep]
            if not len(keys):
                return
        if not self.n_entries and net.min() > 0:
            self._build(keys, net)
            return

        in_main, main_pos = _locate(self._keys, keys)
        rest = np.flatnonzero(~in_main)
        in_delta, delta_pos = _locate(self._delta_keys, keys[rest])
        final = net.copy()
        final[in_main] += self._counts[main_pos[in_main]]
        final[rest[in_delta]] += self._delta_counts[delta_pos[in_delta]]
        if final.min() < 0:
            raise DataValidationError(
                "remove would take a count below zero: those rows were "
                "not counted under those labels"
            )
        if final.max() > _COUNT_MAX:
            raise DataValidationError(f"a count would pass {_COUNT_MAX}")
        self._counts[main_pos[in_main]] = final[in_main]
        self._delta_counts[delta_pos[in_delta]] = final[rest[in_delta]]
        new = rest[~in_delta]
        if new.size:
            self._insert(keys[new], final[new])

        pairs = keys // span
        self._refresh_best(pairs, keys - pairs * span, net, final)
        if len(self._delta_keys) > max(_MIN_DELTA, len(self._keys) // _DELTA_RATIO):
            self._merge_delta()

    def _build(self, keys: np.ndarray, counts: np.ndarray) -> None:
        """Fill empty counts from sorted distinct keys: one segmented max."""
        if counts.max() > _COUNT_MAX:
            raise DataValidationError(f"a count would pass {_COUNT_MAX}")
        self._keys, self._counts = keys, counts.astype(np.int32)
        span = self._span
        # each pair's run starts where its lowest possible key would go
        bounds = np.searchsorted(
            keys, np.arange(self.best_count.size + 1, dtype=np.int64) * span
        )
        pair = np.flatnonzero(np.diff(bounds))
        first, top = _first_max(bounds[pair], self._counts)
        self.best_count.reshape(-1)[pair] = top
        self.best_value.reshape(-1)[pair] = self._decode(keys[first] - pair * span)

    def _insert(self, keys: np.ndarray, counts: np.ndarray) -> None:
        """Add new sorted triples to the delta."""
        at = np.searchsorted(self._delta_keys, keys)
        self._delta_keys = np.insert(self._delta_keys, at, keys)
        self._delta_counts = np.insert(self._delta_counts, at, counts)

    def _merge_delta(self) -> None:
        """Merge the delta into main, dropping triples counted down to 0."""
        at = np.searchsorted(self._keys, self._delta_keys)
        keys = np.insert(self._keys, at, self._delta_keys)
        counts = np.insert(self._counts, at, self._delta_counts)
        live = counts > 0
        if not live.all():
            keys, counts = keys[live], counts[live]
        self._keys, self._counts = keys, counts
        self._delta_keys, self._delta_counts = _NO_KEYS, _NO_COUNTS

    def _refresh_best(
        self, pairs: np.ndarray, codes: np.ndarray, net: np.ndarray, final: np.ndarray
    ) -> None:
        """Fold one update of sorted triples into the cached best values."""
        best_value = self.best_value.reshape(-1)
        best_count = self.best_count.reshape(-1)
        lost = np.flatnonzero(net < 0)
        rescan = sorted_unique(
            pairs[lost][self._decode(codes[lost]) == best_value[pairs[lost]]]
        )
        gained = net > 0
        if rescan.size:
            skip = np.zeros(best_value.size, dtype=bool)
            skip[rescan] = True
            gained &= ~skip[pairs]
        if gained.any():
            raise_best(
                self.best_value,
                self.best_count,
                pairs[gained],
                self._decode(codes[gained]),
                final[gained],
            )
        if rescan.size:
            self._rescan(rescan)

    def _rescan(self, pairs: np.ndarray) -> None:
        """Recompute the best value of ``pairs`` from both segments."""
        span = self._span
        low = pairs * span
        found_keys, found_counts = [], []
        for keys, counts in (
            (self._keys, self._counts),
            (self._delta_keys, self._delta_counts),
        ):
            start = np.searchsorted(keys, low)
            lengths = np.searchsorted(keys, low + span) - start
            at = np.repeat(start - np.cumsum(lengths) + lengths, lengths) + np.arange(
                lengths.sum()
            )
            found_keys.append(keys[at])
            found_counts.append(counts[at])
        keys = np.concatenate(found_keys)
        order = np.argsort(keys)
        keys, counts = keys[order], np.concatenate(found_counts)[order]
        best_value = self.best_value.reshape(-1)
        best_count = self.best_count.reshape(-1)
        best_count[pairs] = 0
        if len(keys):
            run_pairs = keys // span
            starts = run_starts(run_pairs)
            first, count = _first_max(starts, counts)
            pair = run_pairs[starts]
            best_count[pair] = count
            best_value[pair] = self._decode(keys[first] - pair * span)

    # -- value codes -----------------------------------------------------

    def _encode(self, values: np.ndarray) -> np.ndarray:
        if self._vocab is None:
            return values - self._base
        return np.searchsorted(self._vocab, values)

    def _decode(self, codes: np.ndarray) -> np.ndarray:
        if self._vocab is None:
            return codes + self._base
        return self._vocab[codes]

    def _cover(self, values: np.ndarray) -> None:
        """Re-key the stored triples so that codes cover ``values``."""
        low, high = int(values.min()), int(values.max())
        vocab = self._vocab
        if vocab is None:
            if self._base <= low and high < self._base + self._span:
                return
        else:
            at = np.minimum(np.searchsorted(vocab, values), len(vocab) - 1)
            if np.array_equal(vocab[at], values):
                return
        stored = [(self._keys, self._counts), (self._delta_keys, self._delta_counts)]
        decoded = []
        for keys, _ in stored:
            pairs = keys // self._span
            decoded.append((pairs, self._decode(keys - pairs * self._span)))
        if self.n_entries:
            if vocab is None:
                low = min(low, self._base)
                high = max(high, self._base + self._span - 1)
            else:
                low, high = min(low, int(vocab[0])), max(high, int(vocab[-1]))
        need = high - low + 1
        limit = _KEY_LIMIT // (self.n_clusters * self.n_attributes)
        if need <= limit:
            # headroom only once something is stored: a fit's matrix is
            # counted in one batch and never widens
            self._vocab = None
            self._base = low
            self._span = min(2 * need, limit) if self.n_entries else need
        else:
            self._vocab = sorted_unique(
                np.concatenate([values] + [value for _, value in decoded])
            )
            self._base = 0
            self._span = len(self._vocab)
        # codes keep the order of values, so re-keyed segments stay sorted
        (main_pairs, main_values), (delta_pairs, delta_values) = decoded
        self._keys = main_pairs * self._span + self._encode(main_values)
        self._delta_keys = delta_pairs * self._span + self._encode(delta_values)
