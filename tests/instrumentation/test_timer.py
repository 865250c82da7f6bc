"""Unit tests for Timer."""

import time

from repro.instrumentation.timer import Timer


class TestTimer:
    def test_measures_elapsed(self):
        with Timer() as timer:
            time.sleep(0.01)
        assert timer.elapsed_s >= 0.009

    def test_lap_without_context(self):
        timer = Timer()
        assert timer.lap() == 0.0  # auto-restarts on first call
        time.sleep(0.005)
        assert timer.lap() >= 0.004

    def test_restart(self):
        timer = Timer()
        timer.restart()
        time.sleep(0.005)
        first = timer.lap()
        timer.restart()
        assert timer.lap() < first

