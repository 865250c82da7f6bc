"""The engine's fit-lifetime session contract.

One fit = one backend session (one worker pool), with the item matrix
and every post-open array reaching process workers through zero-copy
or shared-memory transport — never through per-task pickles.
"""

import hashlib
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.core.framework as framework
import repro.engine.parallel as parallel_module
from repro.api import EngineSpec, LSHSpec, TrainSpec
from repro.core.mh_kmodes import MHKModes
from repro.core.streaming import StreamingMHKModes
from repro.data.datgen import RuleBasedGenerator
from repro.engine import (
    ProcessBackend,
    SerialBackend,
    SharedArray,
    ThreadBackend,
    live_pool_count,
    resolve_array,
    resolve_backend,
)
from repro.exceptions import EmptyClusterError
from repro.obs import capture_metrics
from repro.lsh.index import BaseClusteredIndex, grouped_neighbour_csr


@pytest.fixture(scope="module")
def workload():
    data = RuleBasedGenerator(
        n_clusters=8, n_attributes=12, domain_size=300, seed=5
    ).generate(160)
    initial = data.X[
        np.random.default_rng(1).choice(len(data.X), 8, replace=False)
    ].copy()
    return data.X, initial


def _fit(X, initial, engine=EngineSpec()):
    model = MHKModes(
        n_clusters=8,
        lsh=LSHSpec(bands=8, rows=2, seed=0),
        engine=engine,
        train=TrainSpec(max_iter=10, update_refs="batch"),
    )
    model.fit(X, initial_centroids=initial)
    return model


@pytest.fixture
def counted(monkeypatch):
    """Run every fit of the test on one backend instance.

    A fit builds its backend from the ``EngineSpec`` afresh, so a test
    that counts sessions hands its own instance to the fit through the
    resolver ``repro.core.framework`` calls.  Returns the installer; it
    returns the backend.
    """

    def install(backend):
        monkeypatch.setattr(framework, "resolve_backend", lambda *spec: backend)
        return backend

    return install


THREAD_X2 = EngineSpec(backend="thread", n_jobs=2)

ENGINES = {
    "serial": EngineSpec(),
    "thread": THREAD_X2,
    "process": EngineSpec(backend="process", n_jobs=2),
}


def _emptying_fit(engine: EngineSpec) -> MHKModes:
    """A fit whose first pass empties cluster 1, under the 'error' policy.

    Items ``u`` and ``v`` share cluster 1 after the exhaustive pass, but
    its mode lies two attributes from each, while the updated modes of
    clusters 0 and 2 lie one attribute from ``u`` and ``v``.
    """
    p, u, v, q = [1, 9, 1, 0], [1, 9, 1, 9], [9, 1, 9, 1], [9, 1, 9, 0]
    model = MHKModes(
        n_clusters=3,
        lsh=LSHSpec(bands=8, rows=1, seed=0),
        engine=engine,
        train=TrainSpec(
            max_iter=10, update_refs="batch", empty_cluster_policy="error"
        ),
    )
    return model.fit(
        np.array([p, p, u, v, q, q]),
        initial_centroids=np.array([[0, 0, 1, 0], [1, 1, 1, 1], [0, 1, 9, 0]]),
    )


class TestOnePoolPerFit:
    @pytest.mark.parametrize("engine", list(ENGINES.values()), ids=list(ENGINES))
    def test_single_session_spans_all_phases(self, workload, engine, counted):
        X, initial = workload
        backend = counted(resolve_backend(engine.backend, engine.n_jobs))
        baseline = live_pool_count()
        assert backend.sessions_opened == 0
        _fit(X, initial, engine)
        # exhaustive + signatures + index build + every iteration pass
        # all ran on ONE pool, closed when the fit returned
        assert backend.sessions_opened == 1
        assert live_pool_count() == baseline

    def test_each_fit_opens_its_own_session(self, workload, counted):
        X, initial = workload
        backend = counted(ThreadBackend(n_jobs=2))
        _fit(X, initial, THREAD_X2)
        _fit(X, initial, THREAD_X2)
        assert backend.sessions_opened == 2

    def test_session_open_phase_recorded(self, workload):
        # the serial pool opens in-process, but opening it is still timed
        X, initial = workload
        for engine in (THREAD_X2, EngineSpec()):
            assert _fit(X, initial, engine).stats_.phase_s["session_open"] > 0.0

    @pytest.mark.parametrize("engine", list(ENGINES.values()), ids=list(ENGINES))
    def test_pool_teardown_is_one_span(self, workload, engine):
        """Closing a fit's pool is timed like opening it, once per fit."""
        X, initial = workload
        with capture_metrics() as registry:
            _fit(X, initial, engine)
        for span in ("fit.session_open", "fit.session_close"):
            assert registry.value("repro_span_calls_total", {"span": span}) == 1

    def test_serial_pool_runs_one_span(self, workload):
        # a serial backend's n_jobs has no effect on how a fit is split
        X, initial = workload
        with capture_metrics() as registry:
            _fit(X, initial, EngineSpec(n_jobs=3))
        for span in ("fit.exhaustive_chunk", "fit.signature_chunk"):
            assert registry.value("repro_span_calls_total", {"span": span}) == 1
        batch_passes = registry.value(
            "repro_span_calls_total", {"span": "fit.assignment_chunk"}
        )
        assert batch_passes == registry.value(
            "repro_span_calls_total", {"span": "fit.iterations"}
        )

    @pytest.mark.parametrize("engine", list(ENGINES.values()), ids=list(ENGINES))
    def test_a_fit_that_raises_closes_its_pool(self, engine, counted):
        backend = counted(resolve_backend(engine.backend, engine.n_jobs))
        baseline = live_pool_count()
        with capture_metrics() as registry:
            with pytest.raises(EmptyClusterError):
                _emptying_fit(engine)
        assert backend.sessions_opened == 1
        for span in ("fit.session_open", "fit.session_close"):
            assert registry.value("repro_span_calls_total", {"span": span}) == 1
        # the pass ran: the error came from the mode update after it
        assert registry.value(
            "repro_span_calls_total", {"span": "fit.assignment_chunk"}
        )
        assert live_pool_count() == baseline


_KERNEL_THEN_FORK = """
import sys

import numpy as np

from repro import kernels
from repro.api import EngineSpec, LSHSpec, TrainSpec
from repro.core.mh_kmodes import MHKModes

workload = np.load(sys.argv[1])
rng = np.random.default_rng(0)
tokens = rng.integers(0, 1 << 20, size=4000 * 8, dtype=np.int64)
indptr = np.arange(0, tokens.size + 1, 8, dtype=np.int64)
a = rng.integers(1, (1 << 31) - 1, size=64, dtype=np.int64)
b = rng.integers(0, (1 << 31) - 1, size=64, dtype=np.int64)
kernels.minhash_signatures(tokens, indptr, a, b, (1 << 31) - 1)

model = MHKModes(
    8,
    lsh=LSHSpec(bands=8, rows=2, seed=0),
    engine=EngineSpec(backend="process", n_jobs=2),
    train=TrainSpec(max_iter=10, update_refs="batch"),
)
model.fit(workload["X"], initial_centroids=workload["initial"])
np.save(sys.argv[2], model.labels_)
"""


class TestForkAfterKernelCall:
    def test_process_fit_after_an_in_process_kernel_call(self, workload, tmp_path):
        """A process-backend fit must not hang after the parent ran a kernel.

        The child process runs the compiled MinHash kernel on 4000 rows
        before forking its pool workers, as a serving or streaming
        process does.  A kernel that starts a thread team in the parent
        (OpenMP) leaves the forked workers deadlocked.  The team only
        starts on a machine with two or more CPUs, so this test can
        only catch that regression there.
        """
        X, initial = workload
        np.savez(tmp_path / "workload.npz", X=X, initial=initial)
        env = dict(os.environ)
        env.pop("OMP_NUM_THREADS", None)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH")])
        )
        child = subprocess.Popen(
            [
                sys.executable,
                "-c",
                _KERNEL_THEN_FORK,
                str(tmp_path / "workload.npz"),
                str(tmp_path / "labels.npy"),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            _, stderr = child.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            # the hung pool workers share the child's session: kill them too
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("the process-backend fit hung after a kernel call")
        assert child.returncode == 0, stderr
        serial = MHKModes(
            8,
            lsh=LSHSpec(bands=8, rows=2, seed=0),
            engine=EngineSpec(),
            train=TrainSpec(max_iter=10, update_refs="batch"),
        ).fit(X, initial_centroids=initial)
        assert np.array_equal(np.load(tmp_path / "labels.npy"), serial.labels_)


class TestSerialBatchVectorised:
    def test_vectorised_serial_batch_matches_per_item_pass(self, workload):
        X, initial = workload
        fast = _fit(X, initial)
        reference = MHKModes(
            n_clusters=8,
            lsh=LSHSpec(bands=8, rows=2, seed=0),
            train=TrainSpec(max_iter=10, update_refs="batch"),
        )
        reference._force_per_item_pass = True
        reference.fit(X, initial_centroids=initial)
        assert np.array_equal(fast.labels_, reference.labels_)
        assert np.array_equal(fast.centroids_, reference.centroids_)
        assert fast.n_iter_ == reference.n_iter_
        assert (
            fast.stats_.shortlist_sizes == reference.stats_.shortlist_sizes
        )


def _fit_kind(kind: str, X: np.ndarray):
    """One of the fits ``TestSessionOwnsNeighbourLists`` checks."""
    lsh = LSHSpec(bands=8, rows=1, seed=0)
    train = TrainSpec(
        max_iter=10, update_refs="batch" if kind.startswith("batch") else None
    )
    if kind == "stream-bootstrap":
        stream = StreamingMHKModes(n_clusters=10, lsh=lsh, train=train)
        return stream.bootstrap(X)._bootstrap_model
    engine = {
        "batch-thread": THREAD_X2,
        "batch-process": EngineSpec(backend="process", n_jobs=2),
    }.get(kind, EngineSpec())
    return MHKModes(n_clusters=10, lsh=lsh, engine=engine, train=train).fit(X)


def _moving_items() -> np.ndarray:
    """Items whose online and batch passes move over several iterations,
    and end on different labels."""
    return (
        RuleBasedGenerator(
            n_clusters=10, n_attributes=12, domain_size=300, noise_rate=0.35, seed=6
        )
        .generate(240)
        .X
    )


class TestSessionOwnsNeighbourLists:
    """A fit walks the neighbour lists its session builds once.

    The index answers no per-item neighbour lookup during a fit and
    stores no lists of its own; the session builds one grouped CSR
    right after the index.  ``PARENT_LABELS`` holds digests of the labels
    these fits ended with when the online pass still looked neighbours
    up item by item (streaming bootstrap) or read lists stored in the
    index (the others); walking the session's lists changes none.
    """

    #: sha256 prefixes of the little-endian int64 labels.
    PARENT_LABELS = {
        "stream-bootstrap": "b8169969fcdc8a52",
        "online": "b8169969fcdc8a52",
        "batch": "8a15bd232ad1e944",
        "batch-thread": "8a15bd232ad1e944",
        "batch-process": "8a15bd232ad1e944",
    }

    #: Added to the list build, to see which phase its time lands in.
    BUILD_DELAY_S = 0.25

    @pytest.mark.parametrize("kind", list(PARENT_LABELS))
    def test_fit_walks_the_lists_its_session_builds(self, kind, monkeypatch):
        X = _moving_items()

        def refuse(index, item):
            raise AssertionError("a fit looked up a neighbour list item by item")

        built = []

        def build(band_keys):
            built.append(len(band_keys))
            return grouped_neighbour_csr(band_keys)

        monkeypatch.setattr(BaseClusteredIndex, "candidate_items", refuse)
        monkeypatch.setattr(parallel_module, "grouped_neighbour_csr", build)
        model = _fit_kind(kind, X)
        assert model.n_iter_ > 2
        assert built == [len(X)]  # once per fit, by the session
        digest = hashlib.sha256(model.labels_.astype("<i8").tobytes()).hexdigest()
        assert digest[:16] == self.PARENT_LABELS[kind]

    @pytest.mark.parametrize("kind", list(PARENT_LABELS))
    def test_lists_are_built_in_the_indexing_setup(self, kind, monkeypatch):
        # The lists are part of the paper's one-off indexing step: their
        # build is charged to the index_build phase and to setup, never
        # to an iteration.
        def slow_build(band_keys):
            time.sleep(self.BUILD_DELAY_S)
            return grouped_neighbour_csr(band_keys)

        monkeypatch.setattr(parallel_module, "grouped_neighbour_csr", slow_build)
        stats = _fit_kind(kind, _moving_items()).stats_
        assert stats.phase_s["index_build"] >= self.BUILD_DELAY_S
        assert stats.setup_s >= self.BUILD_DELAY_S


class TestSharedMemoryTransport:
    def test_wrap_is_zero_copy(self):
        array = np.arange(12.0)
        handle = SharedArray.wrap(array)
        assert not handle.is_shm
        assert handle.get() is not None
        assert np.shares_memory(handle.get(), array)
        handle.release()  # no-op

    def test_shm_round_trip_and_small_pickle(self):
        array = np.arange(200_000, dtype=np.float64).reshape(1000, 200)
        handle = SharedArray.via_shm(array)
        try:
            if not handle.is_shm:
                pytest.skip("shared memory unavailable on this platform")
            assert np.array_equal(handle.get(), array)
            payload = pickle.dumps(handle)
            # the 1.6 MB matrix travels as a descriptor, not as bytes
            assert len(payload) < 1024
            clone = pickle.loads(payload)
            assert np.array_equal(clone.get(), array)
        finally:
            handle.release()

    def test_resolve_array_passthrough(self):
        array = np.arange(5)
        assert resolve_array(array) is array
        assert np.array_equal(resolve_array(SharedArray.wrap(array)), array)

    def test_process_backend_shares_via_shm(self):
        backend = ProcessBackend(n_jobs=1)
        handle = backend.share_array(np.zeros(64))
        try:
            assert handle.is_shm or True  # platform without shm degrades to wrap
        finally:
            handle.release()
        assert not SerialBackend().share_array(np.zeros(4)).is_shm
        assert not ThreadBackend(n_jobs=1).share_array(np.zeros(4)).is_shm


class TestSpawnContext:
    """The acceptance contract for platforms without fork."""

    def test_spawn_backend_matches_serial_and_uses_shared_memory(
        self, workload, counted
    ):
        X, initial = workload
        engine = EngineSpec(backend="process", n_jobs=2, start_method="spawn")
        backend = resolve_backend(engine.backend, engine.n_jobs, engine.start_method)
        assert not backend.inherits_static
        # the engine must route the item matrix through shared memory —
        # share_array is the only transport spawn sessions get
        probe = backend.share_array(np.ascontiguousarray(X))
        try:
            if not probe.is_shm:
                pytest.skip("shared memory unavailable on this platform")
        finally:
            probe.release()
        reference = _fit(X, initial)
        counted(backend)
        spawned = _fit(X, initial, engine)
        assert backend.sessions_opened == 1
        assert np.array_equal(spawned.labels_, reference.labels_)
        assert np.array_equal(spawned.centroids_, reference.centroids_)
