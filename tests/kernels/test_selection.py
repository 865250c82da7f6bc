"""Backend selection: REPRO_KERNELS routing, fallback, one warning.

Selection is process-global and lazy, so every test here snapshots the
resolved backend, forces a fresh selection under a controlled
environment, and restores the original state afterwards — the rest of
the suite keeps whatever backend the session resolved first.
"""

from __future__ import annotations

import shutil
import warnings

import numpy as np
import pytest

import repro.kernels as kernels
from repro.api import EngineSpec, LSHSpec, TrainSpec
from repro.core.mh_kmodes import MHKModes
from repro.core.streaming import StreamingMHKModes
from repro.data.datgen import RuleBasedGenerator
from repro.kernels import _cbuild
from repro.kernels import _numpy as numpy_impl

P31 = (1 << 31) - 1

_HAVE_CC = shutil.which("cc") is not None


_STATE = ("_backend", "_impl_minhash", "_impl_counts", "_impl_nearest", "_impl_shortlist")


@pytest.fixture
def fresh_selection(monkeypatch):
    """Reset the cached backend; restore the session's one afterwards."""
    saved = [getattr(kernels, name) for name in _STATE]
    kernels._reset_backend()
    yield kernels
    for name, value in zip(_STATE, saved):
        setattr(kernels, name, value)


def _tiny_case():
    indices = np.array([3, 8, 1], dtype=np.int64)
    indptr = np.array([0, 2, 2, 3], dtype=np.int64)
    a = np.array([5, 9], dtype=np.int64)
    b = np.array([2, 4], dtype=np.int64)
    return indices, indptr, a, b


def _break_compiled(monkeypatch, tmp_path):
    """Make the C tier unbuildable: missing compiler, empty cache."""
    monkeypatch.setenv("CC", str(tmp_path / "no-such-compiler"))
    monkeypatch.setenv("REPRO_KERNELS_CACHE", str(tmp_path / "cache"))


class TestSelection:
    def test_off_uses_numpy_silently(self, fresh_selection, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "off")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernels.active_backend() == "numpy"

    @pytest.mark.skipif(not _HAVE_CC, reason="no C toolchain available")
    def test_auto_prefers_a_compiled_backend(self, fresh_selection, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        assert kernels.active_backend() == "c"

    def test_active_backend_is_stable(self, fresh_selection, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "off")
        assert kernels.active_backend() == kernels.active_backend()
        kernels._select()  # re-selection is an idempotent no-op
        assert kernels.active_backend() == "numpy"

    @pytest.mark.parametrize("value", ["warp-speed", "c", "numba"])
    def test_unrecognised_value_warns_and_uses_auto(
        self, fresh_selection, monkeypatch, tmp_path, value
    ):
        monkeypatch.setenv("REPRO_KERNELS", value)
        _break_compiled(monkeypatch, tmp_path)
        with pytest.warns(RuntimeWarning) as caught:
            backend = kernels.active_backend()
        assert backend == "numpy"
        messages = [str(w.message) for w in caught]
        assert any("not recognised" in m for m in messages)
        assert any("falling back" in m for m in messages)


class TestForcedFallback:
    def test_unbuildable_c_warns_once_and_matches_numpy(
        self, fresh_selection, monkeypatch, tmp_path
    ):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        _break_compiled(monkeypatch, tmp_path)
        indices, indptr, a, b = _tiny_case()
        with pytest.warns(RuntimeWarning, match="falling back"):
            got = kernels.minhash_signatures(indices, indptr, a, b, P31)
        assert kernels.active_backend() == "numpy"
        assert np.array_equal(
            got, numpy_impl.minhash_signatures(indices, indptr, a, b, P31)
        )
        # the degradation is reported exactly once per process
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            kernels.minhash_signatures(indices, indptr, a, b, P31)
            dense = np.zeros((1, 2, 4), dtype=np.int64)
            kernels.count_update(
                dense,
                np.array([[1, 3]], dtype=np.int64),
                np.array([0], dtype=np.int64),
            )
        assert caught == []

    def test_fallback_count_update_matches_numpy(
        self, fresh_selection, monkeypatch, tmp_path
    ):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        _break_compiled(monkeypatch, tmp_path)
        dense_got = np.zeros((2, 2, 5), dtype=np.int64)
        dense_want = dense_got.copy()
        values = np.array([[0, 4], [0, 4], [1, 2]], dtype=np.int64)
        labels = np.array([1, 1, 0], dtype=np.int64)
        with pytest.warns(RuntimeWarning, match="falling back"):
            got = kernels.count_update(dense_got, values, labels)
        want = numpy_impl.count_update(dense_want, values, labels)
        assert np.array_equal(got, want)
        assert np.array_equal(dense_got, dense_want)

    def test_minhasher_identical_across_backends(
        self, fresh_selection, monkeypatch
    ):
        # End to end through the public API: whatever backend the
        # session resolves must agree with the forced NumPy path.
        from repro.lsh.minhash import MinHasher
        from repro.lsh.tokens import TokenSets

        rng = np.random.default_rng(11)
        X = rng.integers(0, 500, size=(30, 6))
        token_sets = TokenSets.from_categorical_matrix(X, domain_size=500)
        hasher = MinHasher(n_hashes=32, seed=5)

        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            default_sigs = hasher.signatures(token_sets)

        kernels._reset_backend()
        monkeypatch.setenv("REPRO_KERNELS", "off")
        numpy_sigs = hasher.signatures(token_sets)
        assert np.array_equal(default_sigs, numpy_sigs)


def _estimator_outputs() -> dict[str, np.ndarray]:
    """Everything the two matching kernels decide, end to end.

    MH-K-Modes fits on the serial and the process backend (exhaustive
    setup pass and shortlist passes), ``predict`` on novel rows of
    which half share no code with the fitted data (empty shortlists,
    so the full scan) and a stream's bootstrap and ``extend``.
    """
    data = RuleBasedGenerator(
        n_clusters=8, n_attributes=12, domain_size=300, seed=3
    ).generate(700)
    X, novel = data.X[:500], data.X[500:].copy()
    novel[::2] += 300  # codes the fit never saw: nothing to collide with
    lsh = LSHSpec(bands=8, rows=2, seed=1)
    train = TrainSpec(max_iter=6, update_refs="batch")
    out: dict[str, np.ndarray] = {}
    for backend, n_jobs in (("serial", None), ("process", 2)):
        model = MHKModes(
            8,
            lsh=lsh,
            engine=EngineSpec(backend=backend, n_jobs=n_jobs),
            train=train,
            domain_size=600,
        ).fit(X)
        out[f"{backend}.labels"] = model.labels_
        out[f"{backend}.modes"] = model.modes_
        out[f"{backend}.moves"] = np.array([it.moves for it in model.stats_.iterations])
        out[f"{backend}.predict"] = model.predict(novel)
    indptr, _ = model.index_.shortlists_for_signatures(model._signatures(novel))
    assert np.count_nonzero(np.diff(indptr) == 0) >= len(novel) // 2
    stream = StreamingMHKModes(8, lsh=lsh, train=TrainSpec(max_iter=3), domain_size=600)
    out["stream.bootstrap"] = stream.bootstrap(X[:300]).modes_.copy()
    out["stream.extend"] = stream.extend(np.vstack([X[300:], novel]))
    out["stream.modes"] = stream.modes_
    return out


class TestEstimatorsAcrossTiers:
    def test_fits_predict_and_extend_are_identical(self, fresh_selection, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        default = _estimator_outputs()
        default_backend = kernels.active_backend()
        kernels._reset_backend()
        monkeypatch.setenv("REPRO_KERNELS", "off")
        fallback = _estimator_outputs()
        assert kernels.active_backend() == "numpy"
        if _HAVE_CC:
            assert default_backend == "c"
        assert default.keys() == fallback.keys()
        for name, values in default.items():
            assert np.array_equal(values, fallback[name]), name


class TestBuildMachinery:
    def test_cache_dir_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_KERNELS_CACHE", str(tmp_path / "kc"))
        assert _cbuild.build_cache_dir() == tmp_path / "kc"
        monkeypatch.delenv("REPRO_KERNELS_CACHE")
        assert "repro-kernels" in _cbuild.build_cache_dir().name

    def test_missing_compiler_raises_build_error(self, monkeypatch, tmp_path):
        monkeypatch.setenv("CC", str(tmp_path / "no-such-compiler"))
        monkeypatch.setenv("REPRO_KERNELS_CACHE", str(tmp_path / "cache"))
        with pytest.raises(_cbuild.KernelBuildError, match="could not compile"):
            _cbuild.load_compiled()

    def test_failing_compiler_raises_build_error(self, monkeypatch, tmp_path):
        monkeypatch.setenv("CC", "false")  # exists, always exits 1
        monkeypatch.setenv("REPRO_KERNELS_CACHE", str(tmp_path / "cache"))
        with pytest.raises(_cbuild.KernelBuildError, match="could not compile"):
            _cbuild.load_compiled()

    def test_unwritable_cache_raises_build_error(self, monkeypatch, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the cache dir should be")
        monkeypatch.setenv("REPRO_KERNELS_CACHE", str(blocker / "cache"))
        with pytest.raises(_cbuild.KernelBuildError, match="build failed"):
            _cbuild.load_compiled()

    def test_corrupt_cached_artifact_raises_build_error(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_KERNELS_CACHE", str(tmp_path))
        source = _cbuild._SOURCE_PATH.read_text(encoding="utf-8")
        target = tmp_path / (
            f"repro_kernels_{_cbuild._source_digest(source)}.so"
        )
        target.write_bytes(b"this is not a shared library")
        with pytest.raises(_cbuild.KernelBuildError, match="could not load"):
            _cbuild.load_compiled()

    @pytest.mark.skipif(not _HAVE_CC, reason="no C toolchain available")
    def test_fresh_cache_compiles_and_loads(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_KERNELS_CACHE", str(tmp_path / "fresh"))
        monkeypatch.delenv("CC", raising=False)
        library = _cbuild.load_compiled()
        indices, indptr, a, b = _tiny_case()
        got = _cbuild.c_minhash_signatures(library, indices, indptr, a, b, P31)
        assert np.array_equal(
            got, numpy_impl.minhash_signatures(indices, indptr, a, b, P31)
        )
        # exactly one artifact landed, named by source digest
        cached = list((tmp_path / "fresh").glob("repro_kernels_*.so"))
        assert len(cached) == 1
