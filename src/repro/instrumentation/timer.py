"""The small wall-clock timer used throughout the library.

``time.perf_counter`` based; no monkey-patching, no globals.  The
timer is deliberately tiny — it exists so estimators, benchmarks and
:mod:`repro.obs.spans` share one way of measuring rather than
sprinkling ``perf_counter`` arithmetic everywhere.
"""

from __future__ import annotations

import time
from types import TracebackType

__all__ = ["Timer"]


class Timer:
    """Context manager measuring one wall-clock interval.

    Examples
    --------
    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed_s >= 0.0
    True
    """

    def __init__(self) -> None:
        self._start: float | None = None
        self.elapsed_s: float = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        assert self._start is not None
        self.elapsed_s = time.perf_counter() - self._start

    def restart(self) -> None:
        """Reset the start point (for manual, non-context-manager use)."""
        self._start = time.perf_counter()

    def lap(self) -> float:
        """Seconds since construction/restart, without stopping."""
        if self._start is None:
            self.restart()
            return 0.0
        return time.perf_counter() - self._start

