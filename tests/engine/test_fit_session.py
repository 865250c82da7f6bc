"""The engine's fit-lifetime session contract.

One fit = one backend session (one worker pool), with the item matrix
and every post-open array reaching process workers through zero-copy
or shared-memory transport — never through per-task pickles.
"""

import os
import pickle
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import EngineSpec, LSHSpec, TrainSpec
from repro.core.mh_kmodes import MHKModes
from repro.data.datgen import RuleBasedGenerator
from repro.engine import (
    ProcessBackend,
    SerialBackend,
    SharedArray,
    ThreadBackend,
    resolve_array,
)


@pytest.fixture(scope="module")
def workload():
    data = RuleBasedGenerator(
        n_clusters=8, n_attributes=12, domain_size=300, seed=5
    ).generate(160)
    initial = data.X[
        np.random.default_rng(1).choice(len(data.X), 8, replace=False)
    ].copy()
    return data.X, initial


def _fit(X, initial, backend, **overrides):
    model = MHKModes(
        n_clusters=8,
        bands=8,
        rows=2,
        seed=0,
        max_iter=10,
        update_refs="batch",
        backend=backend,
        **overrides,
    )
    model.fit(X, initial_centroids=initial)
    return model


class TestOnePoolPerFit:
    @pytest.mark.parametrize(
        "backend_factory",
        [
            lambda: ThreadBackend(n_jobs=2),
            lambda: ProcessBackend(n_jobs=2),
        ],
        ids=["thread", "process"],
    )
    def test_single_session_spans_all_phases(self, workload, backend_factory):
        X, initial = workload
        backend = backend_factory()
        assert backend.sessions_opened == 0
        _fit(X, initial, backend)
        # exhaustive + signatures + index build + every iteration pass
        # all ran on ONE pool
        assert backend.sessions_opened == 1

    def test_each_fit_opens_its_own_session(self, workload):
        X, initial = workload
        backend = ThreadBackend(n_jobs=2)
        _fit(X, initial, backend)
        _fit(X, initial, backend)
        assert backend.sessions_opened == 2

    def test_session_open_phase_recorded(self, workload):
        X, initial = workload
        model = _fit(X, initial, ThreadBackend(n_jobs=2))
        assert "session_open" in model.stats_.phase_s
        assert model.stats_.phase_s["session_open"] >= 0.0
        serial = _fit(X, initial, "serial")
        assert serial.stats_.phase_s["session_open"] == 0.0


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
        fast = _fit(X, initial, "serial")
        reference = MHKModes(
            n_clusters=8, bands=8, rows=2, seed=0, max_iter=10, update_refs="batch"
        )
        reference._force_per_item_pass = True
        reference.fit(X, initial_centroids=initial)
        assert np.array_equal(fast.labels_, reference.labels_)
        assert np.array_equal(fast.centroids_, reference.centroids_)
        assert fast.n_iter_ == reference.n_iter_
        assert (
            fast.stats_.shortlist_sizes == reference.stats_.shortlist_sizes
        )


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

    def test_spawn_backend_matches_serial_and_uses_shared_memory(self, workload):
        X, initial = workload
        backend = ProcessBackend(n_jobs=2, start_method="spawn")
        assert not backend.inherits_static
        # the engine must route the item matrix through shared memory —
        # share_array is the only transport spawn sessions get
        probe = backend.share_array(np.ascontiguousarray(X))
        try:
            if not probe.is_shm:
                pytest.skip("shared memory unavailable on this platform")
        finally:
            probe.release()
        reference = _fit(X, initial, "serial")
        spawned = _fit(X, initial, backend)
        assert backend.sessions_opened == 1
        assert np.array_equal(spawned.labels_, reference.labels_)
        assert np.array_equal(spawned.centroids_, reference.centroids_)
