"""Exact nearest-mode search from mode postings.

The matching dissimilarity counts the attributes on which an item and a
mode disagree (Equations 1-2), so ``m - d(x, q)`` counts the
*(attribute, value)* tokens they share — the same tokens MinHash hashes
(:mod:`repro.lsh.tokens`).  :class:`ModePostings` inverts the k modes on
those tokens: one sorted key ``attribute * span + value`` per mode and
attribute (k·m entries), with the mode ids in key order, so the modes
holding a value on an attribute form one contiguous run and every
attribute owns exactly k consecutive entries.

A row's distance to every mode then takes about m run lookups and a
scatter-add over the runs its values hit, into a ``(rows, k)`` block,
instead of a ``(rows, k, m)`` comparison tensor.  Two rules keep that
from losing to the dense compare:

* **long runs** — where a value is held by more than half of the modes
  (value 0 of a sparse presence attribute), the row scans the shorter
  complement of the run inside the attribute's k entries instead: the
  run then counts as a match for every mode, minus the complement;
* **dense inputs** — when even the shorter side is long (balanced
  low-cardinality attributes), the expected scan is priced at build
  time from the run lengths, and the postings hand the work to the
  dense compare, :func:`~repro.kmodes.dissimilarity.pairwise_matching`.

Either way the result is exact: the distances equal the dense compare's
and the nearest mode is its first minimum, ties going to the smallest
mode id, so no label changes.  Unlike the LSH shortlist, this search
never misses the nearest mode; it is the exhaustive pass made cheaper.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataValidationError
from repro.kmodes.dissimilarity import pairwise_matching

__all__ = ["ModePostings"]

#: Expected share of the k·m postings a row scans above which the dense
#: compare is faster.  Measured as the CPU time of :meth:`ModePostings.nearest`
#: against the dense compare on 20 000 × 60 rows, k = 800, over balanced
#: d-valued attributes (scan share about 1/d): 0.70–0.85 of the dense
#: time at d = 6 (share 0.17), 0.99–1.07 at d = 5 (0.20) and 1.06–1.25
#: at d = 4 (0.25).
DENSE_SHARE = 0.2

#: Rough byte budget of one scoring block's largest temporaries: the
#: ``(rows, k, m)`` bool comparison tensor on the dense side; the int64
#: ``(rows, k)`` distance block and the postings the rows are expected
#: to scan on the postings side.  Row blocks are capped to stay under
#: it; on the postings side, smaller blocks also run faster once the
#: scan is long.
_BLOCK_BYTES = 4_000_000


class ModePostings:
    """The k modes inverted on their *(attribute, value)* tokens.

    Build once per mode matrix; the postings keep a private read-only
    copy of the modes they were built from (:attr:`modes`), so a caller
    caching them can check by content that they still match.

    Parameters
    ----------
    modes:
        ``(k, m)`` integer category codes.

    Attributes
    ----------
    modes:
        The read-only ``(k, m)`` int64 copy the postings index.
    scan_share:
        Expected share of the k·m postings one row scans, taking the
        shorter of each run and its complement and weighting each run by
        the share of modes that hold it: ``Σ (run/k)·min(run, k − run) /
        (k·m)`` over all runs.  Above ``DENSE_SHARE``, :meth:`nearest`
        uses the dense compare.

    Examples
    --------
    >>> postings = ModePostings(np.array([[0, 1, 2], [0, 5, 5], [7, 5, 5]]))
    >>> labels, distances = postings.nearest(np.array([[0, 5, 2], [7, 5, 9]]))
    >>> labels.tolist(), distances.tolist()
    ([0, 2], [1, 1])
    """

    def __init__(self, modes: np.ndarray) -> None:
        modes = np.asarray(modes)
        if modes.ndim != 2 or modes.size == 0:
            raise DataValidationError(
                f"modes must be a non-empty (k, m) matrix, got shape {modes.shape}"
            )
        _require_codes(modes, "modes")
        modes = modes.astype(np.int64)
        modes.flags.writeable = False
        self.modes = modes
        k, m = modes.shape
        self._low = int(modes.min())
        self._span = int(modes.max()) - self._low + 1
        self._offsets = np.arange(m, dtype=np.int64) * self._span
        # Attribute-major layout: attribute a owns positions [a·k,
        # (a+1)·k).  The order of mode ids inside a run does not matter,
        # so the sort need not be stable.
        codes = np.ascontiguousarray(modes.T) - self._low
        order = np.argsort(codes, axis=1)
        keys = np.take_along_axis(codes, order, axis=1) + self._offsets[:, None]
        keys = keys.ravel()
        self._members = order.ravel()
        self._run_starts = np.flatnonzero(np.diff(keys, prepend=-1))
        self._run_keys = keys[self._run_starts]
        self._run_lengths = np.diff(self._run_starts, append=k * m)
        runs = self._run_lengths
        self.scan_share = float(np.dot(runs, np.minimum(runs, k - runs))) / (k * k * m)
        self._dense = self.scan_share > DENSE_SHARE

    def nearest(
        self,
        X: np.ndarray,
        current: np.ndarray | None = None,
        block_rows: int = 256,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Nearest mode and its matching distance for every row of ``X``.

        The label is the first minimum of the row's distances to all k
        modes — ties go to the smallest mode id.  With ``current``, a
        row whose current mode (``current >= 0``) is at least as close
        as that minimum keeps it, the K-Modes keep-current-on-ties rule.
        Rows are scored in blocks of at most ``block_rows``, capped so
        one block's temporaries stay under a fixed byte budget.

        Returns ``(labels, distances)``, both int64.
        """
        X = np.asarray(X)
        k, m = self.modes.shape
        if X.ndim != 2 or X.shape[1] != m:
            raise DataValidationError(
                f"X must be a 2-D matrix with {m} attributes, got shape {X.shape}"
            )
        _require_codes(X, "X")
        n = X.shape[0]
        if current is not None and len(current) != n:
            raise DataValidationError(
                f"current holds {len(current)} labels for {n} rows"
            )
        labels = np.empty(n, dtype=np.int64)
        distances = np.empty(n, dtype=np.int64)
        if self._dense:
            row_bytes = k * m
        else:
            row_bytes = 8 * (k + self.scan_share * k * m)
        rows_at_once = max(1, min(block_rows, int(_BLOCK_BYTES // row_bytes)))
        for lo in range(0, n, rows_at_once):
            hi = min(lo + rows_at_once, n)
            if self._dense:
                dist = pairwise_matching(X[lo:hi], self.modes, chunk_rows=hi - lo)
            else:
                dist = self._posting_distances(X[lo:hi])
            best = np.argmin(dist, axis=1)
            if current is not None:
                rows = np.flatnonzero(current[lo:hi] >= 0)
                held = current[lo:hi][rows]
                keep = dist[rows, held] <= dist[rows, best[rows]]
                best[rows[keep]] = held[keep]
            labels[lo:hi] = best
            distances[lo:hi] = dist[np.arange(hi - lo), best]
        return labels, distances

    def _posting_distances(self, block: np.ndarray) -> np.ndarray:
        """``(rows, k)`` matching distances of one row block."""
        rows, m = block.shape
        k = self.modes.shape[0]
        codes = block.astype(np.int64, copy=False) - self._low
        queries = (codes + self._offsets).ravel()
        # Sorted queries walk the run keys in order: about twice as fast
        # as the same lookups in row order.
        order = np.argsort(queries)
        found = np.empty_like(order)
        found[order] = np.searchsorted(self._run_keys, queries[order])
        np.minimum(found, len(self._run_keys) - 1, out=found)
        # A code outside the modes' range would alias a neighbouring
        # attribute's key, so it must not count as a hit.
        hit = (self._run_keys[found] == queries) & (
            (codes >= 0) & (codes < self._span)
        ).ravel()
        found = found[hit]
        starts = self._run_starts[found]
        lengths = self._run_lengths[found]
        owner = np.flatnonzero(hit) // m
        long = 2 * lengths > k

        # distance = m − matches.  A short run is a match for each mode
        # on it.  A long run is a match for every mode except those on
        # its complement, and the complement is what the row scans.
        short = ~long
        hits = np.bincount(
            self._flat_postings(owner[short], starts[short], lengths[short]),
            minlength=rows * k,
        ).reshape(rows, k)
        if not np.any(long):
            return m - hits
        owner, starts, lengths = owner[long], starts[long], lengths[long]
        first = starts // k * k  # the attribute's first position
        stops = starts + lengths
        misses = np.bincount(
            self._flat_postings(
                np.concatenate([owner, owner]),
                np.concatenate([first, stops]),
                np.concatenate([starts - first, first + k - stops]),
            ),
            minlength=rows * k,
        ).reshape(rows, k)
        misses -= hits
        misses += (m - np.bincount(owner, minlength=rows))[:, None]
        return misses

    def _flat_postings(
        self, owner: np.ndarray, starts: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """``row * k + mode`` for every posting of the given ranges."""
        k = self.modes.shape[0]
        skip = np.cumsum(lengths) - lengths
        positions = np.arange(int(lengths.sum()))
        positions += np.repeat(starts - skip, lengths)
        return np.repeat(owner * k, lengths) + self._members[positions]


def _require_codes(array: np.ndarray, name: str) -> None:
    # Integer codes only: a float would be truncated onto a posting key
    # and match where the dense compare does not.
    if not np.issubdtype(array.dtype, np.integer):
        raise DataValidationError(
            f"{name} must hold integer category codes, got dtype {array.dtype}"
        )
