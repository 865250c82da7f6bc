"""Exact nearest-mode search from mode postings.

The matching dissimilarity counts the attributes on which an item and a
mode disagree (Equations 1-2), so ``m - d(x, q)`` counts the
*(attribute, value)* tokens they share — the same tokens MinHash hashes
(:mod:`repro.lsh.tokens`).  :class:`ModePostings` inverts the k modes on
those tokens: one sorted key ``attribute * span + value`` per mode and
attribute (k·m entries), with the mode ids in key order, so the modes
holding a value on an attribute form one contiguous run and every
attribute owns exactly k consecutive entries
(:class:`~repro.kernels.ModeRuns`).

A row's distance to every mode then takes about m run lookups and one
count per mode on the runs its values hit, instead of a ``(rows, k,
m)`` comparison tensor.  :func:`repro.kernels.nearest_modes` does the
counting: the compiled tier with one counter per mode and a binary
search inside each attribute's runs, the NumPy tier with a scatter-add
into ``(rows, k)`` blocks.  Two rules keep that from losing to the
dense compare:

* **long runs** — where a value is held by more than half of the modes
  (value 0 of a sparse presence attribute), the row scans the shorter
  complement of the run inside the attribute's k entries instead: the
  run then counts as a match for every mode, minus the complement;
* **dense inputs** — when even the shorter side is long (balanced
  low-cardinality attributes), the expected scan is priced at build
  time from the run lengths, and the postings hand the work to the
  dense compare, :func:`~repro.kmodes.dissimilarity.pairwise_matching`.
  The price was measured against the NumPy tier.

Codes so far apart that ``m · span`` does not fit in int64 would wrap
the keys; such modes also go to the dense compare, which is exact for
any codes.  Either way the result is exact: the distances equal the
dense compare's and the nearest mode is its first minimum, ties going
to the smallest mode id, so no label changes.  Unlike the LSH
shortlist, this search never misses the nearest mode; it is the
exhaustive pass made cheaper.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.exceptions import DataValidationError
from repro.kernels._numpy import nearest_rows
from repro.kmodes.dissimilarity import pairwise_matching

__all__ = ["ModePostings"]

#: Expected share of the k·m postings a row scans above which the dense
#: compare is faster.  Measured against the NumPy tier, as the CPU time
#: of :meth:`ModePostings.nearest` against the dense compare on 20 000 ×
#: 60 rows, k = 800, over balanced d-valued attributes (scan share about
#: 1/d): 0.70–0.85 of the dense time at d = 6 (share 0.17), 0.99–1.07 at
#: d = 5 (0.20) and 1.06–1.25 at d = 4 (0.25).  The compiled tier beats
#: the dense compare further out (see ROADMAP item (4)).
DENSE_SHARE = 0.2

#: Rough byte budget of one scoring block's largest temporaries: the
#: ``(rows, k, m)`` bool comparison tensor on the dense side; on the
#: NumPy tier's postings side, the int64 ``(rows, k)`` distance block
#: and the postings the rows are expected to scan.  Row blocks are
#: capped to stay under it; on the postings side, smaller blocks also
#: run faster once the scan is long.  The compiled tier needs no blocks.
_BLOCK_BYTES = 4_000_000

#: ``m · span`` may not pass it, so every key ``attribute * span + code``
#: fits in int64.
_INT64_MAX = int(np.iinfo(np.int64).max)


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
        low = int(modes.min())
        span = int(modes.max()) - low + 1
        # Attribute-major layout: attribute a owns positions [a·k,
        # (a+1)·k), sorted by code.  The order of mode ids inside a run
        # does not matter, so the sort need not be stable.
        codes = np.ascontiguousarray(modes.T)
        order = np.argsort(codes, axis=1)
        codes = np.take_along_axis(codes, order, axis=1)
        new_run = np.ones((m, k), dtype=bool)
        new_run[:, 1:] = codes[:, 1:] != codes[:, :-1]
        run_starts = np.flatnonzero(new_run)
        runs = np.diff(run_starts, append=k * m)
        self.scan_share = float(np.dot(runs, np.minimum(runs, k - runs))) / (k * k * m)
        self._dense = self.scan_share > DENSE_SHARE
        self._runs: kernels.ModeRuns | None = None
        if m * span <= _INT64_MAX:
            self._runs = kernels.ModeRuns(
                low=low,
                span=span,
                members=order.ravel(),
                run_keys=run_starts // k * span + (codes.ravel()[run_starts] - low),
                run_starts=run_starts,
                run_lengths=runs,
                attr_runs=np.searchsorted(
                    run_starts, np.arange(m + 1, dtype=np.int64) * k
                ),
            )

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
        as that minimum keeps it, the K-Modes keep-current-on-ties rule;
        a current label of k or more is a :class:`DataValidationError`.
        The dense compare and the NumPy tier score rows in blocks of at
        most ``block_rows``, capped so one block's temporaries stay
        under a fixed byte budget.

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
        if current is not None:
            if len(current) != n:
                raise DataValidationError(
                    f"current holds {len(current)} labels for {n} rows"
                )
            if n and np.max(current) >= k:
                raise DataValidationError(
                    f"current holds label {int(np.max(current))}, "
                    f"but there are {k} modes"
                )
        # Without runs the keys would overflow: only the dense compare is exact.
        if self._dense or self._runs is None:
            rows_at_once = max(1, min(block_rows, _BLOCK_BYTES // (k * m)))
            return nearest_rows(
                X,
                current,
                rows_at_once,
                lambda block: pairwise_matching(
                    block, self.modes, chunk_rows=len(block)
                ),
            )
        row_bytes = 8 * (k + self.scan_share * k * m)
        rows_at_once = max(1, min(block_rows, int(_BLOCK_BYTES // row_bytes)))
        return kernels.nearest_modes(X, current, self._runs, rows_at_once)


def _require_codes(array: np.ndarray, name: str) -> None:
    # Integer codes only: a float would be truncated onto a posting key
    # and match where the dense compare does not.
    if not np.issubdtype(array.dtype, np.integer):
        raise DataValidationError(
            f"{name} must hold integer category codes, got dtype {array.dtype}"
        )
