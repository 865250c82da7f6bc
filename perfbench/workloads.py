"""The benchmark's four workloads.

Shared settings: data from ``RuleBasedGenerator`` (m=60 attributes,
k=800 planted clusters, noise 0.1), ``LSHSpec(bands=20, rows=5)``,
``update_refs="batch"`` and initial centroids drawn from the data.

The workload seed drives data generation, the initial centroids and the
request order, nothing else.  Model parameters — the LSH seed included —
are constants, so a claim made on one seed can be re-checked on another.

Every workload runs a sequence of operations numbered from 0: one fit
(``fit-k800``), one 200-row ``extend`` call (``ingest-*``) or one
50-row request (``serve-mixed``).  The sequence is a pure function of
the seed, so labels, purity and counts over a fixed prefix of it repeat
exactly, however far a timed window gets.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.api import EngineSpec, LSHSpec, ServeSpec, TrainSpec
from repro.api.specs import ResilienceSpec
from repro.core.mh_kmodes import MHKModes
from repro.core.streaming import StreamingMHKModes
from repro.data.datgen import RuleBasedGenerator
from repro.data.io import save_model
from repro.metrics.purity import cluster_purity
from repro.serve import service
from repro.serve.server import ModelServer

#: Fixed model parameters (never derived from the workload seed).
LSH = LSHSpec(bands=20, rows=5, seed=2016)
NOISE = 0.1


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Workload dimensions; ``TINY`` shrinks them for the self-test."""

    items: int = 20_000
    clusters: int = 800
    attributes: int = 60
    high_domain: int = 40_000  # the paper's domain: dict-tier mode tracker
    low_domain: int = 300  # k*m*domain <= 16M: dense-tier mode tracker
    fit_iter: int = 4
    bootstrap_iter: int = 2
    extend_rows: int = 200  # the default refresh interval: one segment per call
    request_rows: int = 50
    extend_every: int = 10  # every 10th request is an extend
    # Pre-generated input must outlast a window at up to this rate; a
    # window that runs out of input ends early.
    max_rows_per_s: int = 12_000
    predict_requests: int = 1_000  # distinct predict requests, cycled
    ingest_purity_ops: int = 50
    ingest_count_ops: int = 25
    ingest_replay_ops: int = 5
    serve_purity_ops: int = 300
    serve_count_ops: int = 100
    serve_replay_ops: int = 100


FULL = Sizes()
TINY = Sizes(
    items=1_500,
    clusters=40,
    attributes=20,
    high_domain=4_000,
    low_domain=30,
    request_rows=10,
    max_rows_per_s=2_000,
    predict_requests=50,
    ingest_purity_ops=10,
    ingest_count_ops=4,
    ingest_replay_ops=3,
    serve_purity_ops=30,
    serve_count_ops=10,
    serve_replay_ops=20,
)


@dataclasses.dataclass
class OpResult:
    """One operation: its latency, rows and whether its output checked out."""

    latency_s: float
    rows: int
    ok: bool
    json_s: float = 0.0  # serve-mixed: decode + encode seconds inside latency_s


def _labels_ok(labels, rows: int, clusters: int) -> bool:
    labels = np.asarray(labels)
    return (
        labels.shape == (rows,)
        and bool(np.all(labels >= 0))
        and bool(np.all(labels < clusters))
    )


def _generate(sizes: Sizes, domain: int, seed: int, n_items: int):
    return RuleBasedGenerator(
        n_clusters=sizes.clusters,
        n_attributes=sizes.attributes,
        domain_size=domain,
        noise_rate=NOISE,
        seed=seed,
    ).generate(n_items)


def _initial_centroids(X: np.ndarray, clusters: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return X[rng.choice(len(X), size=clusters, replace=False)].copy()


class Workload:
    """Common shape of a workload; subclasses fill in the operations."""

    name = ""
    #: Set-ups in an untraced run, half before the window and half after
    #: it; ``setup_s`` is their median.
    setup_repeats = 3
    warmup_ops = 1
    #: Ops (from op 0) whose labels purity is computed over.
    purity_ops = 1
    #: Traced ops whose count metrics are reported.
    count_ops = 1
    #: A traced run alternates blocks of this many untraced and traced
    #: ops; a block holds one of each kind of op the workload mixes.
    trace_block = 1
    #: Layers whose per-op self times partition one operation.
    partition: tuple[str, ...] = ()
    #: Wrapped layers / program spans the workload must call, in the
    #: measured window and in the set-up.
    required: tuple[str, ...] = ()
    setup_required: tuple[str, ...] = ()

    def __init__(self, sizes: Sizes, seed: int, seconds: float, build_dir: Path):
        self.sizes = sizes
        self.seed = seed
        self.seconds = seconds
        self.build_dir = build_dir
        self._labels: list[np.ndarray] = []
        self._truth: list[np.ndarray] = []

    def parameters(self) -> dict:
        return dataclasses.asdict(self.sizes)

    def prepare(self) -> None:
        """Untimed preparation before the first set-up."""

    def setup(self) -> None:
        raise NotImplementedError

    def release(self) -> None:
        """Drop what ``setup`` built, so a repeated set-up starts from
        nothing and does not pay for tearing the last one down."""

    def run_op(self, i: int) -> OpResult | None:
        """Run operation ``i``; ``None`` when the input is used up."""
        raise NotImplementedError

    def replay(self) -> bool:
        """Re-run a prefix another way and compare outputs (traced runs)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what ``prepare``/``setup`` opened."""
        self.release()

    def extra_counts(self) -> dict[str, float]:
        """Workload-specific count metrics, read at the count point."""
        return {}

    def _record(self, i: int, labels, truth) -> None:
        if i < self.purity_ops:
            self._labels.append(np.asarray(labels))
            self._truth.append(np.asarray(truth))

    def purity(self) -> float:
        return float(
            cluster_purity(np.concatenate(self._labels), np.concatenate(self._truth))
        )


class FitK800(Workload):
    """Repeated 20k-item fits on the process backend (2 workers)."""

    name = "fit-k800"
    setup_repeats = 30  # one set-up is ~0.1 s of data generation
    partition = (
        "engine.session_open_s",
        "core.exhaustive_s",
        "lsh.signatures_s",
        "lsh.index_build_s",
        "core.iterations_s",
        "core.modes_s",
        "core.cost_s",
    )
    required = (
        "fit.session_open",
        "fit.exhaustive_assign",
        "fit.signatures",
        "fit.index_build",
        "fit.iterations",
        "fit.exhaustive_chunk",
        "fit.signature_chunk",
        "fit.assignment_chunk",
        "kernels.minhash",
        "engine.score",
        "core.modes",
        "core.cost",
    )
    n_jobs = 2

    def setup(self) -> None:
        s = self.sizes
        self.data = _generate(s, s.high_domain, self.seed, s.items)
        self.init = _initial_centroids(self.data.X, s.clusters, self.seed)
        self.reference: np.ndarray | None = None

    def release(self) -> None:
        self.data = self.init = None

    def _fit(self, backend: str, n_jobs: int | None) -> MHKModes:
        model = MHKModes(
            self.sizes.clusters,
            lsh=LSH,
            engine=EngineSpec(backend=backend, n_jobs=n_jobs),
            train=TrainSpec(max_iter=self.sizes.fit_iter, update_refs="batch"),
        )
        return model.fit(self.data.X, initial_centroids=self.init)

    def run_op(self, i: int) -> OpResult:
        start = time.perf_counter()
        model = self._fit("process", self.n_jobs)
        latency = time.perf_counter() - start
        self.model = model
        labels = model.labels_
        if self.reference is None:
            self.reference = labels.copy()
        ok = _labels_ok(labels, self.sizes.items, self.sizes.clusters) and bool(
            np.array_equal(labels, self.reference)
        )
        self._record(i, labels, self.data.labels)
        return OpResult(latency, self.sizes.items, ok)

    def replay(self) -> bool:
        model = self._fit("serial", None)
        return bool(np.array_equal(model.labels_, self.reference))

    def extra_counts(self) -> dict[str, float]:
        # the first traced fit: the last model fitted when counts are read;
        # the fit queries no index, so its bucket sizes come from the model
        return {
            "core.iterations": float(self.model.n_iter_),
            "core.moves": float(sum(it.moves for it in self.model.stats_.iterations)),
            "lsh.max_bucket_size": float(self.model.index_.stats().max_bucket_size),
        }


class Ingest(Workload):
    """Bootstrap a serial stream on 20k items, then ``extend`` novel rows."""

    partition = (
        "lsh.signatures_s",
        "kernels.minhash_s",
        "lsh.shortlist_s",
        "engine.score_s",
        "core.walk_s",
        "core.fallback_s",
        "core.tracker_s",
        "kernels.count_update_s",
        "lsh.insert_s",
        "core.refresh_s",
    )
    required = (
        "extend.signatures",
        "extend.walk",
        "kernels.minhash",
        "lsh.shortlist",
        "engine.score",
        "core.fallback",
        "core.tracker",
        "lsh.insert",
        "core.refresh",
    )

    def __init__(self, sizes: Sizes, seed: int, seconds: float, build_dir: Path):
        super().__init__(sizes, seed, seconds, build_dir)
        self.purity_ops = sizes.ingest_purity_ops
        self.count_ops = sizes.ingest_count_ops
        self.replay_ops = sizes.ingest_replay_ops
        self._modes_after_replay: np.ndarray | None = None

    def parameters(self) -> dict:
        return {**super().parameters(), "domain": self.domain}

    def _bootstrap(self) -> StreamingMHKModes:
        stream = StreamingMHKModes(
            self.sizes.clusters,
            lsh=LSH,
            train=TrainSpec(max_iter=self.sizes.bootstrap_iter, update_refs="batch"),
        )
        return stream.bootstrap(self.data.X[: self.sizes.items], initial_centroids=self.init)

    def setup(self) -> None:
        s = self.sizes
        stream_rows = int(self.seconds * s.max_rows_per_s) + s.extend_rows * max(
            self.purity_ops, self.count_ops * 2 + self.warmup_ops
        )
        self.data = _generate(s, self.domain, self.seed, s.items + stream_rows)
        self.init = _initial_centroids(self.data.X[: s.items], s.clusters, self.seed)
        self.stream = self._bootstrap()

    def release(self) -> None:
        self.stream = self.data = self.init = None

    def run_op(self, i: int) -> OpResult | None:
        s = self.sizes
        lo = s.items + i * s.extend_rows
        hi = lo + s.extend_rows
        if hi > len(self.data.X):
            return None
        rows = self.data.X[lo:hi]
        start = time.perf_counter()
        labels = self.stream.extend(rows)
        latency = time.perf_counter() - start
        if i == self.replay_ops - 1:
            self._modes_after_replay = self.stream.modes_.copy()
        self._record(i, labels, self.data.labels[lo:hi])
        return OpResult(latency, s.extend_rows, _labels_ok(labels, s.extend_rows, s.clusters))

    def replay(self) -> bool:
        """The per-item ``push()`` loop from a fresh bootstrap."""
        s = self.sizes
        fresh = self._bootstrap()
        rows = self.data.X[s.items : s.items + self.replay_ops * s.extend_rows]
        labels = np.array([fresh.push(row) for row in rows], dtype=np.int64)
        # the purity prefix (longer than the replay's) holds the labels
        return bool(
            np.array_equal(labels, np.concatenate(self._labels[: self.replay_ops]))
            and np.array_equal(fresh.modes_, self._modes_after_replay)
        )



class IngestHighCard(Ingest):
    name = "ingest-highcard"

    @property
    def domain(self) -> int:
        return self.sizes.high_domain


class IngestLowCard(Ingest):
    name = "ingest-lowcard"
    required = Ingest.required + ("kernels.count_update",)

    @property
    def domain(self) -> int:
        return self.sizes.low_domain


class ServeMixed(Workload):
    """One closed-loop client: JSON predict requests, every 10th an extend."""

    name = "serve-mixed"
    setup_repeats = 16
    warmup_ops = 10
    trace_block = 10
    partition = (
        "serve.encode_s",
        "serve.predict_s",
        "resilience.queue_wait_s",
        "core.predict_s",
        "kernels.minhash_s",
        "lsh.shortlist_s",
        "engine.score_s",
        "core.fallback_s",
        "serve.extend_s",
        "lsh.insert_s",
    )
    setup_required = ("api.load",)
    required = (
        "serve.handle",
        "serve.predict",
        "serve.extend",
        "resilience.submit",
        "core.predict",
        "kernels.minhash",
        "lsh.shortlist",
        "engine.score",
        "core.fallback",
        "lsh.insert",
    )
    SPEC = ServeSpec(
        backend="serial",
        allow_extend=True,
        resilience=ResilienceSpec(max_in_flight=1),
    )

    def __init__(self, sizes: Sizes, seed: int, seconds: float, build_dir: Path):
        super().__init__(sizes, seed, seconds, build_dir)
        self.purity_ops = sizes.serve_purity_ops
        self.count_ops = sizes.serve_count_ops
        self.replay_ops = sizes.serve_replay_ops
        self.server: ModelServer | None = None
        self._responses: list[str] = []

    def prepare(self) -> None:
        """Fit and save the served model; encode the request stream."""
        s = self.sizes
        rows = s.request_rows
        max_requests = int(self.seconds * s.max_rows_per_s / rows) + 2 * (
            self.purity_ops + self.warmup_ops + 2 * self.count_ops
        )
        n_extends = max_requests // s.extend_every + 1
        novel = s.predict_requests * rows + n_extends * rows
        data = _generate(s, s.high_domain, self.seed, s.items + novel)
        train = data.X[: s.items]
        model = MHKModes(
            s.clusters,
            lsh=LSH,
            train=TrainSpec(max_iter=s.bootstrap_iter, update_refs="batch"),
        ).fit(train, initial_centroids=_initial_centroids(train, s.clusters, self.seed))
        self.build_dir.mkdir(parents=True, exist_ok=True)
        self._model_dir = Path(tempfile.mkdtemp(prefix="serve-", dir=self.build_dir))
        self.model_path = self._model_dir / "model"
        save_model(model, self.model_path)

        # the seed also fixes which novel rows go into which request
        order = s.items + np.random.default_rng(self.seed).permutation(novel)
        predict_rows = order[: s.predict_requests * rows].reshape(-1, rows)
        extend_rows = order[s.predict_requests * rows :].reshape(-1, rows)
        self._requests: list[str] = []
        self._truth_rows: list[np.ndarray] = []
        for i in range(max_requests):
            if i % s.extend_every == s.extend_every - 1:
                op, picked = "extend", extend_rows[i // s.extend_every]
            else:
                op = "predict"
                picked = predict_rows[(i - i // s.extend_every) % s.predict_requests]
            self._requests.append(
                json.dumps({"op": op, "id": i, "items": data.X[picked].tolist()})
            )
            self._truth_rows.append(data.labels[picked])
        # the set-up's first answer: a read-only request outside the stream
        self._probe = json.dumps({"op": "predict", "items": train[:rows].tolist()})

    def setup(self) -> None:
        self.server = ModelServer.from_path(self.model_path, self.SPEC)
        json.dumps(service.handle_request(self.server, json.loads(self._probe)))

    def run_op(self, i: int) -> OpResult | None:
        if i >= len(self._requests):
            return None
        line = self._requests[i]
        start = time.perf_counter()
        payload = json.loads(line)
        decoded = time.perf_counter()
        response = service.handle_request(self.server, payload)
        handled = time.perf_counter()
        out = json.dumps(response)
        end = time.perf_counter()
        rows = self.sizes.request_rows
        ok = (
            response.get("id") == i
            and response.get("count") == rows
            and _labels_ok(response.get("labels"), rows, self.sizes.clusters)
            and (payload["op"] == "predict" or response.get("extended") == rows)
        )
        if i < self.replay_ops:
            self._responses.append(out)
        self._record(i, response["labels"], self._truth_rows[i])
        return OpResult(end - start, rows, ok, json_s=(decoded - start) + (end - handled))

    def replay(self) -> bool:
        """The same requests on a server without admission control."""
        plain = dataclasses.replace(self.SPEC, resilience=None)
        with ModelServer.from_path(self.model_path, plain) as server:
            replies = [
                json.dumps(service.handle_request(server, json.loads(line)))
                for line in self._requests[: self.replay_ops]
            ]
        return replies == self._responses

    def extra_counts(self) -> dict[str, float]:
        # waves since the server opened: the probe, the warm-up and every
        # predict up to the count point
        return {"resilience.waves": self.server.metrics.value("repro_waves_total") or 0.0}

    def release(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    def close(self) -> None:
        self.release()
        model_dir = getattr(self, "_model_dir", None)
        if model_dir is not None:
            shutil.rmtree(model_dir, ignore_errors=True)


WORKLOADS = {
    cls.name: cls for cls in (FitK800, IngestHighCard, IngestLowCard, ServeMixed)
}
