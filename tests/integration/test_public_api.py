"""The documented public API surface stays importable and coherent."""

import numpy as np
import pytest

import repro


class TestPublicSurface:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_quickstart_from_module_docstring(self):
        # The README/docstring example, executed verbatim (scaled down).
        data = repro.RuleBasedGenerator(
            n_clusters=20, n_attributes=16, seed=0
        ).generate(300)
        fast = repro.MHKModes(
            n_clusters=20, lsh=repro.LSHSpec(bands=20, rows=5, seed=0)
        ).fit(data.X)
        exact = repro.KModes(n_clusters=20, seed=0).fit(data.X)
        assert repro.cluster_purity(fast.labels_, data.labels) > 0.6
        assert repro.cluster_purity(exact.labels_, data.labels) > 0.6

    def test_exception_hierarchy(self):
        assert issubclass(repro.ConfigurationError, repro.ReproError)
        assert issubclass(repro.DataValidationError, repro.ReproError)
        assert issubclass(repro.NotFittedError, repro.ReproError)
        assert issubclass(repro.ConfigurationError, ValueError)
        assert issubclass(repro.NotFittedError, RuntimeError)

    def test_single_base_catch(self):
        with pytest.raises(repro.ReproError):
            repro.KModes(n_clusters=0)
        with pytest.raises(repro.ReproError):
            repro.MinHasher(0)

    def test_error_bound_accessible_at_top_level(self):
        assert repro.error_bound(100, 25, 1, 20) == pytest.approx(0.08, abs=0.005)

    def test_suggest_bands_rows_top_level(self):
        rec = repro.suggest_bands_rows(0.4, cluster_size=10, min_recall=0.9)
        assert rec.bands >= 1
