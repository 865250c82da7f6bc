"""Banding of signatures into bucket keys (the "LSH" step).

Section III-A2: a signature of length ``b * r`` is divided into ``b``
bands of ``r`` rows; each band is hashed to a bucket, with a separate
bucket space per band.  Two items become a *candidate pair* if they
share a bucket in at least one band, which happens with probability
``1 - (1 - s^r)^b`` for Jaccard similarity ``s`` — the S-curve that
gives the scheme its selectivity.

This module turns ``(n, b*r)`` signature matrices into ``(n, b)``
integer bucket keys.  Keys are built with a splitmix64 chain over the
band's rows, which gives avalanche mixing at a fixed, small memory
cost.  The chain is seeded per band, so equal keys in two bands are
astronomically rare, but they can occur.  The index sorts the keys of
all bands into one array and counts a hit only where an item's key in
the queried band equals the query key, honouring the paper's "no
overlapping between bands" requirement exactly.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.exceptions import ConfigurationError, DataValidationError
from repro.lsh.hashing import splitmix64, splitmix64_inplace

__all__ = [
    "compute_band_keys",
    "band_probability",
    "threshold_similarity",
    "validate_bands_rows",
]


def validate_bands_rows(bands: int, rows: int) -> None:
    """Raise :class:`ConfigurationError` unless both parameters are positive."""
    if bands <= 0:
        raise ConfigurationError(f"bands must be positive, got {bands}")
    if rows <= 0:
        raise ConfigurationError(f"rows must be positive, got {rows}")


@functools.lru_cache(maxsize=None)
def _band_seeds(bands: int) -> np.ndarray:
    """The per-band chain seeds (read-only, shared between calls)."""
    seeds = splitmix64(np.arange(bands, dtype=np.uint64))
    seeds.setflags(write=False)
    return seeds


def compute_band_keys(signatures: np.ndarray, bands: int, rows: int) -> np.ndarray:
    """Hash each band of each signature to a 64-bit bucket key.

    Parameters
    ----------
    signatures:
        ``(n_items, bands * rows)`` integer signature matrix.
    bands:
        Number of bands ``b``.
    rows:
        Rows per band ``r``.

    Returns
    -------
    numpy.ndarray
        ``(n_items, bands)`` uint64 key matrix.  Two items share a
        bucket in band ``j`` exactly when their keys in column ``j``
        are equal (up to a negligible 64-bit hash collision rate).

    Raises
    ------
    DataValidationError
        If the signature width is not ``bands * rows``.
    """
    validate_bands_rows(bands, rows)
    signatures = np.asarray(signatures)
    if signatures.ndim != 2:
        raise DataValidationError(
            f"expected 2-D signature matrix, got ndim={signatures.ndim}"
        )
    n, width = signatures.shape
    if width != bands * rows:
        raise DataValidationError(
            f"signature width {width} != bands*rows = {bands}*{rows}"
        )
    sig = signatures.astype(np.uint64, copy=False).reshape(n, bands, rows)
    # Chain the rows of each band through the mixer.  Seeding the chain
    # with the band index keeps identical row values in different bands
    # from producing identical keys.
    keys = np.empty((n, bands), dtype=np.uint64)
    keys[:] = _band_seeds(bands)
    with np.errstate(over="ignore"):
        for j in range(rows):
            keys ^= sig[:, :, j]
            splitmix64_inplace(keys)
    return keys


def band_probability(similarity: float, bands: int, rows: int) -> float:
    """Probability that two items become a candidate pair.

    Implements ``1 - (1 - s^r)^b`` from Section III-A2.

    Parameters
    ----------
    similarity:
        Jaccard similarity ``s`` in ``[0, 1]``.
    bands, rows:
        LSH banding parameters.
    """
    validate_bands_rows(bands, rows)
    if not 0.0 <= similarity <= 1.0:
        raise DataValidationError(f"similarity must be in [0, 1], got {similarity}")
    return 1.0 - (1.0 - similarity**rows) ** bands


def threshold_similarity(bands: int, rows: int) -> float:
    """Similarity at the steepest point of the S-curve, ``(1/b)^(1/r)``.

    Section III-A2: this is approximately the similarity at which a
    pair has a 50 % chance of becoming a candidate, so it acts as the
    effective similarity threshold of a ``(b, r)`` configuration.
    """
    validate_bands_rows(bands, rows)
    return (1.0 / bands) ** (1.0 / rows)
