"""Serving metrics surface: registry, /metrics, /health, stats op.

The subprocess test at the bottom is the PR's acceptance contract (and
the CI serve-smoke artifact source): a real ``repro serve --http``
subprocess answers 100 predict requests, then ``GET /metrics`` must
show them in the Prometheus counters and histograms.  The scraped
snapshot is written to ``.bench_build/results/serve_metrics.json`` so CI
uploads it next to ``BENCH_serve.json``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.api import ServeSpec
from repro.core.mh_kmodes import MHKModes
from repro.data.datgen import RuleBasedGenerator
from repro.data.io import save_model
from repro.exceptions import ConfigurationError, DataValidationError
from repro.serve import ModelServer, handle_request, make_http_server

REPO_ROOT = Path(__file__).resolve().parents[2]
RESULTS_DIR = REPO_ROOT / ".bench_build" / "results"


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    data = RuleBasedGenerator(
        n_clusters=6, n_attributes=10, domain_size=120, seed=11
    ).generate(240)
    estimator = MHKModes(
        n_clusters=6, lsh={"bands": 8, "rows": 2, "seed": 3}
    ).fit(data.X)
    artifact = estimator.fitted_model()
    path = save_model(
        artifact,
        tmp_path_factory.mktemp("model") / "metered",
        serve=ServeSpec(chunk_items=64, max_batch=512),
    )
    return path, artifact, data.X


class TestRequestInstrumentation:
    def test_counters_and_histograms_after_requests(self, served):
        _, artifact, X = served
        with ModelServer(artifact) as server:
            for _ in range(3):
                server.predict(X[:10])
            registry = server.metrics
            assert registry.value(
                "repro_requests_total", {"op": "predict", "status": "ok"}
            ) == 3.0
            assert registry.value(
                "repro_requests_total", {"op": "predict", "status": "error"}
            ) == 0.0
            latency = registry.get(
                "repro_request_latency_seconds", {"op": "predict"}
            )
            assert latency.count == 3
            rows = registry.get("repro_request_batch_rows", {"op": "predict"})
            assert rows.count == 3 and rows.sum == 30.0

    def test_error_requests_count_as_errors(self, served):
        _, artifact, _ = served
        with ModelServer(artifact) as server:
            with pytest.raises(DataValidationError):
                server.predict(np.zeros((1, 3), dtype=np.int64))  # wrong width
            registry = server.metrics
            assert registry.value(
                "repro_requests_total", {"op": "predict", "status": "error"}
            ) == 1.0
            # Failed requests record no latency sample...
            latency = registry.get(
                "repro_request_latency_seconds", {"op": "predict"}
            )
            assert latency.count == 0
            # ...and the in-flight gauge still unwinds to zero.
            assert registry.value("repro_requests_in_flight") == 0.0

    def test_instrument_schema_registered_before_first_request(self, served):
        _, artifact, _ = served
        with ModelServer(artifact) as server:
            text = server.metrics_text()
            assert 'repro_requests_total{op="predict",status="ok"} 0' in text
            assert 'repro_request_latency_seconds_count{op="predict"} 0' in text
            assert "repro_requests_in_flight 0" in text

    def test_disabled_metrics_has_no_registry(self, served):
        _, artifact, X = served
        with ModelServer(artifact, ServeSpec(emit_metrics=False)) as server:
            assert server.metrics is None
            server.predict(X[:4])  # still serves fine
            assert server.metrics_snapshot() is None
            with pytest.raises(ConfigurationError, match="disabled"):
                server.metrics_text()

    def test_two_servers_keep_separate_registries(self, served):
        _, artifact, X = served
        with ModelServer(artifact) as a, ModelServer(artifact) as b:
            a.predict(X[:4])
            assert a.metrics.value(
                "repro_requests_total", {"op": "predict", "status": "ok"}
            ) == 1.0
            assert b.metrics.value(
                "repro_requests_total", {"op": "predict", "status": "ok"}
            ) == 0.0


class TestHealthAndStats:
    def test_health_carries_model_and_serving_metadata(self, served):
        _, artifact, X = served
        with ModelServer(artifact) as server:
            health = server.health()
            assert health["status"] == "ok"
            assert health["model"]["algorithm"] == artifact.algorithm
            assert health["model"]["n_clusters"] == artifact.n_clusters
            assert health["serving"]["metrics_enabled"] is True
            assert health["latency_s"] is None  # no requests yet
            server.predict(X[:8])
            health = server.health()
            assert health["requests_served"] == 1
            assert health["items_served"] == 8
            latency = health["latency_s"]
            assert set(latency) == {"p50", "p95", "p99"}
            assert latency["p50"] <= latency["p95"] <= latency["p99"]

    def test_health_without_metrics_omits_latency(self, served):
        _, artifact, _ = served
        with ModelServer(artifact, ServeSpec(emit_metrics=False)) as server:
            health = server.health()
            assert health["serving"]["metrics_enabled"] is False
            assert "latency_s" not in health

    def test_stats_op_over_ndjson_plumbing(self, served):
        _, artifact, X = served
        with ModelServer(artifact) as server:
            handle_request(server, {"items": X[:5].tolist()})
            response = handle_request(server, {"op": "stats", "id": 42})
            assert response["id"] == 42
            assert response["requests_served"] == 1
            assert response["items_served"] == 5
            names = {
                c["name"] for c in response["metrics"]["counters"]
            }
            assert "repro_requests_total" in names

    def test_unknown_op_rejected(self, served):
        _, artifact, _ = served
        with ModelServer(artifact) as server:
            with pytest.raises(DataValidationError, match="stats"):
                handle_request(server, {"op": "nonsense", "items": []})

    def test_snapshot_includes_process_span_counters(self, served):
        _, artifact, X = served
        with ModelServer(
            artifact, ServeSpec(backend="thread", n_jobs=2)
        ) as server:
            server.predict(X[:16])
            snapshot = server.metrics_snapshot()
            spans = {
                c["labels"].get("span")
                for c in snapshot["counters"]
                if c["name"] == "repro_span_calls_total"
            }
            assert "serve.predict_chunk" in spans


class TestMetricsHTTP:
    @pytest.fixture()
    def httpd(self, served):
        _, artifact, _ = served
        with ModelServer(artifact) as server:
            httpd = make_http_server(server)
            thread = threading.Thread(target=httpd.serve_forever, daemon=True)
            thread.start()
            host, port = httpd.server_address[:2]
            try:
                yield server, f"http://{host}:{port}"
            finally:
                httpd.shutdown()
                httpd.server_close()
                thread.join(timeout=10)

    def test_get_metrics_renders_prometheus_text(self, served, httpd):
        _, artifact, X = served
        server, base = httpd
        body = json.dumps({"items": X[:7].tolist()}).encode("utf-8")
        urllib.request.urlopen(urllib.request.Request(f"{base}/predict", data=body))
        response = urllib.request.urlopen(f"{base}/metrics")
        assert response.headers["Content-Type"].startswith("text/plain")
        text = response.read().decode("utf-8")
        assert 'repro_requests_total{op="predict",status="ok"} 1' in text
        assert 'repro_request_latency_seconds_count{op="predict"} 1' in text
        assert 'repro_request_batch_rows_sum{op="predict"} 7' in text

    def test_get_metrics_404_when_disabled(self, served):
        _, artifact, _ = served
        with ModelServer(artifact, ServeSpec(emit_metrics=False)) as server:
            httpd = make_http_server(server)
            thread = threading.Thread(target=httpd.serve_forever, daemon=True)
            thread.start()
            try:
                host, port = httpd.server_address[:2]
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(f"http://{host}:{port}/metrics")
                assert excinfo.value.code == 404
            finally:
                httpd.shutdown()
                httpd.server_close()
                thread.join(timeout=10)


class TestMetricsSubprocessAcceptance:
    """The PR acceptance: scrape /metrics off a real serve subprocess."""

    def test_hundred_requests_visible_in_scraped_metrics(self, served):
        path, artifact, X = served
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", str(path),
                "--http", "0", "--backend", "thread", "--jobs", "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            ready = process.stdout.readline()
            assert "http://127.0.0.1:" in ready, ready
            port = int(ready.rsplit(":", 1)[1])
            base = f"http://127.0.0.1:{port}"
            deadline = time.monotonic() + 30
            while True:
                try:
                    urllib.request.urlopen(f"{base}/health")
                    break
                except OSError:  # pragma: no cover - startup race
                    assert time.monotonic() < deadline, "server never came up"
                    time.sleep(0.1)

            rng = np.random.default_rng(5)
            for _ in range(100):
                rows = rng.choice(len(X), size=int(rng.integers(1, 16)), replace=False)
                body = json.dumps({"items": X[rows].tolist()}).encode("utf-8")
                urllib.request.urlopen(
                    urllib.request.Request(f"{base}/predict", data=body)
                )

            text = (
                urllib.request.urlopen(f"{base}/metrics").read().decode("utf-8")
            )
            assert 'repro_requests_total{op="predict",status="ok"} 100' in text
            assert 'repro_request_latency_seconds_count{op="predict"} 100' in text
            assert 'repro_request_batch_rows_count{op="predict"} 100' in text
            assert "repro_requests_in_flight 0" in text
            assert 'repro_span_calls_total{span="serve.predict_chunk"}' in text

            health = json.load(urllib.request.urlopen(f"{base}/health"))
            assert health["requests_served"] == 100
            assert health["latency_s"]["p50"] >= 0.0

            # Persist the scraped view for the CI artifact upload.
            RESULTS_DIR.mkdir(parents=True, exist_ok=True)
            (RESULTS_DIR / "serve_metrics.json").write_text(
                json.dumps(
                    {
                        "requests": 100,
                        "health": health,
                        "prometheus_text": text,
                    },
                    indent=2,
                )
                + "\n"
            )
        finally:
            process.terminate()
            process.wait(timeout=30)
