"""Universal hashing primitives used to simulate MinHash permutations.

The paper (Section III-A2) simulates random permutations of the
characteristic matrix with randomly chosen hash functions of the form
``h(x) = (a·x + b) mod p``.  This module provides:

* :class:`UniversalHashFamily` — a batch of ``n`` such functions with
  vectorised evaluation over numpy arrays;
* :func:`stable_string_hash` — a deterministic (unsalted) string hash
  so text tokens map to stable integers across processes;
* :func:`splitmix64` — a fast 64-bit mixer used to hash signature
  bands to bucket keys.

All hash outputs live in ``[0, p)`` with ``p = 2**31 - 1`` (a Mersenne
prime).  Keeping inputs and coefficients below ``2**31`` means every
intermediate product fits comfortably in ``int64``, so the arithmetic
is exact without resorting to Python big integers.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "MERSENNE_PRIME_31",
    "UniversalHashFamily",
    "stable_string_hash",
    "splitmix64",
    "splitmix64_inplace",
]

#: Modulus shared by every universal hash function in the library.
MERSENNE_PRIME_31: int = (1 << 31) - 1


class UniversalHashFamily:
    """A family of ``n_hashes`` independent universal hash functions.

    Each member is ``h_i(x) = (a_i * x + b_i) mod p`` with ``a_i`` drawn
    uniformly from ``[1, p)`` and ``b_i`` from ``[0, p)``.  The family is
    fully determined by ``(n_hashes, seed)``, which makes signatures
    reproducible across runs and processes.

    Parameters
    ----------
    n_hashes:
        Number of hash functions in the family.  Must be positive.
    seed:
        Seed for the generator that draws the coefficients.
    prime:
        Modulus; defaults to :data:`MERSENNE_PRIME_31`.  Exposed mainly
        for testing with tiny primes.

    Examples
    --------
    >>> family = UniversalHashFamily(4, seed=7)
    >>> family.hash_values(np.array([3, 5, 3])).shape
    (4, 3)
    """

    def __init__(self, n_hashes: int, seed: int = 0, prime: int = MERSENNE_PRIME_31):
        if n_hashes <= 0:
            raise ConfigurationError(f"n_hashes must be positive, got {n_hashes}")
        if prime <= 2:
            raise ConfigurationError(f"prime must be > 2, got {prime}")
        self.n_hashes = int(n_hashes)
        self.prime = int(prime)
        self.seed = int(seed)
        rng = np.random.default_rng(seed)
        # ``a`` must be non-zero or the function collapses to a constant.
        self._a = rng.integers(1, self.prime, size=self.n_hashes, dtype=np.int64)
        self._b = rng.integers(0, self.prime, size=self.n_hashes, dtype=np.int64)

    @property
    def coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """Return copies of the ``(a, b)`` coefficient vectors."""
        return self._a.copy(), self._b.copy()

    def _reduce(self, y: np.ndarray) -> np.ndarray:
        """Modular reduction, using the Mersenne shortcut when possible.

        For ``p = 2**31 - 1`` the reduction of a value below ``2**62``
        needs only shifts, masks and one conditional subtraction —
        roughly 3× faster than integer division at signature-generation
        scale.  Other primes (used in tests) fall back to ``%``.
        """
        p = self.prime
        if p != MERSENNE_PRIME_31:
            return y % p
        y = (y & p) + (y >> 31)  # below 2**32 afterwards
        y = (y & p) + (y >> 31)  # at most p afterwards
        return y - (y >= p) * p

    def hash_values(self, x: np.ndarray) -> np.ndarray:
        """Evaluate every hash function on every element of ``x``.

        Parameters
        ----------
        x:
            1-D integer array with values in ``[0, prime)``.

        Returns
        -------
        numpy.ndarray
            ``(n_hashes, len(x))`` array of hash values in ``[0, prime)``.
        """
        x = np.asarray(x, dtype=np.int64)
        if x.ndim != 1:
            raise ValueError(f"expected a 1-D array of tokens, got ndim={x.ndim}")
        return self._reduce(self._a[:, None] * x[None, :] + self._b[:, None])

    def hash_with(self, i: int, x: np.ndarray) -> np.ndarray:
        """Evaluate only the ``i``-th hash function (vectorised over ``x``).

        This is the memory-friendly path used when hashing millions of
        tokens: callers loop over the (small) number of hash functions
        instead of materialising the full ``(n_hashes, n_tokens)`` grid.
        """
        x = np.asarray(x, dtype=np.int64)
        return self._reduce(self._a[i] * x + self._b[i])

    def __len__(self) -> int:
        return self.n_hashes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UniversalHashFamily(n_hashes={self.n_hashes}, seed={self.seed}, "
            f"prime={self.prime})"
        )


def stable_string_hash(token: str, prime: int = MERSENNE_PRIME_31) -> int:
    """Map a string to a stable integer in ``[0, prime)``.

    Python's built-in ``hash`` is salted per process, which would make
    MinHash signatures irreproducible.  We use the first 8 bytes of
    BLAKE2b instead, which is deterministic, fast and well distributed.

    Parameters
    ----------
    token:
        Any string (for instance an augmented feature value such as
        ``"zoo-1"`` from the paper's Yahoo! Answers encoding).
    prime:
        Upper bound (exclusive) of the output range.
    """
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % prime


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Apply the splitmix64 finalizer to an array of ``uint64`` values.

    Used to combine the ``r`` signature rows of a band into a single
    bucket key with avalanche behaviour: a change in any row changes
    every bit of the key with probability about one half.
    """
    z = np.asarray(x, dtype=np.uint64).copy()
    with np.errstate(over="ignore"):
        splitmix64_inplace(z)
    return z


def splitmix64_inplace(z: np.ndarray) -> None:
    """:func:`splitmix64` on a ``uint64`` array, overwriting it.

    Saves the temporaries of the copying form where a caller mixes
    many small arrays in a loop (banding one signature at a time).
    """
    z += np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
