"""Command-line interface: ``python -m repro <command>``.

Six subcommands mirror the library's workflow:

* ``generate`` — materialise a synthetic dataset (datgen-style or
  Yahoo-style) to disk;
* ``cluster`` — run K-Modes or MH-K-Modes on a saved dataset and
  print the per-phase and per-iteration statistics; ``--spec`` loads
  an :class:`~repro.api.LSHSpec` / :class:`~repro.api.EngineSpec` /
  :class:`~repro.api.TrainSpec` triple from a JSON file (the
  ``to_dict`` round-trip format), individual flags — ``--bands``,
  ``--backend``, ``--jobs``, ... — override spec-file fields, and
  ``--save`` persists the fitted model (npz + json sidecar);
* ``extend`` — bootstrap a :class:`~repro.core.StreamingMHKModes` on
  the head of a saved dataset and stream the rest in through the
  chunked batch-ingest pipeline, printing per-chunk phase timings
  (signatures / shortlist / walk / update / refresh) and items/s;
  ``--backend``/``--jobs`` route chunk hashing through a worker pool,
  bit-identical to serial;
* ``serve`` — load a saved model into a
  :class:`~repro.serve.ModelServer` and answer newline-delimited JSON
  predict requests over stdin/stdout, or over a localhost HTTP
  endpoint with ``--http PORT`` (``0`` picks a free port); a
  :class:`~repro.api.ServeSpec` persisted next to the model supplies
  the defaults, individual flags override, and ``--allow-extend``
  additionally accepts ``{"op": "extend"}`` streaming-ingest requests.
  ``--deadline-ms`` / ``--max-queue`` / ``--retries`` /
  ``--max-in-flight`` arm the admission-control layer
  (:class:`~repro.api.ResilienceSpec`): a bounded micro-batching queue
  with structured ``overloaded`` / ``deadline_exceeded`` errors, and
  worker-crash retry/degrade on the serving pool.  SIGTERM/SIGINT
  drain in-flight requests (bounded by the deadline) before a clean
  exit;
* ``compare`` — run a named paper experiment (fig2 … fig10) and print
  the paper-style tables (``--backend``/``--jobs`` apply to the MH
  variants);
* ``tables`` — print the analytic Tables I and II.

``cluster``, ``extend`` and ``serve`` share two observability flags:
``--trace`` streams JSON span events to stderr
(:func:`repro.obs.enable_tracing`) and ``--emit-metrics PATH`` writes
a :class:`~repro.obs.MetricsRegistry` snapshot as JSON when the
command finishes (``-`` for stdout).  ``serve --no-metrics`` disables
the per-request registry (``GET /metrics`` then answers 404).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "LSH-accelerated centroid-based clustering "
            "(reproduction of McConville et al., ICDE 2016)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset")
    gen.add_argument("output", help="output .npz path")
    gen.add_argument("--kind", choices=["datgen", "yahoo"], default="datgen")
    gen.add_argument("--items", type=int, default=5_000)
    gen.add_argument("--clusters", type=int, default=500)
    gen.add_argument("--attributes", type=int, default=60)
    gen.add_argument("--domain-size", type=int, default=40_000)
    gen.add_argument("--noise-rate", type=float, default=0.0)
    gen.add_argument("--tfidf-threshold", type=float, default=0.3)
    gen.add_argument("--seed", type=int, default=0)

    run = sub.add_parser("cluster", help="cluster a saved dataset")
    run.add_argument("dataset", help="input .npz path")
    run.add_argument("--algorithm", choices=["kmodes", "mh-kmodes"], default="mh-kmodes")
    run.add_argument("--clusters", type=int, required=True)
    run.add_argument(
        "--spec",
        default=None,
        metavar="PATH",
        help=(
            "JSON file with 'lsh' / 'engine' / 'train' spec objects "
            "(the repro.api to_dict format); individual flags below "
            "override spec-file fields"
        ),
    )
    run.add_argument("--bands", type=int, default=None, help="default: 20")
    run.add_argument("--rows", type=int, default=None, help="default: 5")
    run.add_argument("--max-iter", type=int, default=None, help="default: 100")
    run.add_argument("--absent-code", type=int, default=None)
    run.add_argument("--seed", type=int, default=None, help="default: 0")
    run.add_argument(
        "--backend",
        choices=["serial", "thread", "process"],
        default=None,
        help="execution backend for the MH engine (default: serial)",
    )
    run.add_argument(
        "--update-refs",
        choices=["online", "batch"],
        default=None,
        help=(
            "cluster-reference update mode: 'online' is the paper's "
            "per-item pass, 'batch' runs the vectorised pass on any "
            "backend (default: online when serial, batch when parallel)"
        ),
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker count for parallel backends (default: one per CPU)",
    )
    run.add_argument(
        "--save",
        default=None,
        metavar="PATH",
        help="persist the fitted model as PATH.npz + PATH.json",
    )
    run.add_argument(
        "--trace",
        action="store_true",
        help="emit JSON span/trace events to stderr (one object per line)",
    )
    run.add_argument(
        "--emit-metrics",
        default=None,
        metavar="PATH",
        help=(
            "write a JSON metrics-registry snapshot to PATH when the "
            "command finishes ('-' for stdout)"
        ),
    )

    ext = sub.add_parser(
        "extend", help="stream a saved dataset into a bootstrapped model"
    )
    ext.add_argument("dataset", help="input .npz path")
    ext.add_argument("--clusters", type=int, required=True)
    ext.add_argument(
        "--bootstrap",
        type=int,
        default=None,
        help="items fitted before streaming starts (default: half)",
    )
    ext.add_argument(
        "--stream-chunk",
        type=int,
        default=4096,
        metavar="ITEMS",
        help="arrivals ingested per extend() call (default: 4096)",
    )
    ext.add_argument("--bands", type=int, default=None, help="default: 20")
    ext.add_argument("--rows", type=int, default=None, help="default: 5")
    ext.add_argument("--max-iter", type=int, default=None, help="default: 100")
    ext.add_argument("--seed", type=int, default=0)
    ext.add_argument("--absent-code", type=int, default=None)
    ext.add_argument(
        "--refresh-interval",
        type=int,
        default=200,
        help="streamed arrivals between mode refreshes (default: 200)",
    )
    ext.add_argument(
        "--backend",
        choices=["serial", "thread", "process"],
        default=None,
        help="chunk-hashing backend for extend() (default: serial)",
    )
    ext.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker count for parallel extend backends (default: one per CPU)",
    )
    ext.add_argument(
        "--trace",
        action="store_true",
        help="emit JSON span/trace events to stderr (one object per line)",
    )
    ext.add_argument(
        "--emit-metrics",
        default=None,
        metavar="PATH",
        help=(
            "write a JSON metrics-registry snapshot to PATH when the "
            "command finishes ('-' for stdout)"
        ),
    )

    srv = sub.add_parser("serve", help="serve a saved model")
    srv.add_argument("model", help="saved model path (.npz + .json sidecar)")
    srv.add_argument(
        "--backend",
        choices=["serial", "thread", "process"],
        default=None,
        help="serving backend (default: the model's saved ServeSpec, else serial)",
    )
    srv.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker count for parallel serving backends (default: one per CPU)",
    )
    srv.add_argument(
        "--chunk-items",
        type=int,
        default=None,
        help="rows per worker task when chunking a batch (default: 2048)",
    )
    srv.add_argument(
        "--max-batch",
        type=int,
        default=None,
        help="largest request accepted, in rows (default: 8192)",
    )
    srv.add_argument(
        "--allow-extend",
        action="store_true",
        help=(
            "accept {\"op\": \"extend\"} streaming-ingest requests (the "
            "index absorbs the rows; serial/thread backends only)"
        ),
    )
    srv.add_argument(
        "--deadline-ms",
        type=int,
        default=None,
        metavar="MS",
        help=(
            "per-request deadline (queue wait + execution); expired "
            "requests answer 504 deadline_exceeded.  Setting any "
            "resilience flag routes predict through the bounded "
            "admission queue"
        ),
    )
    srv.add_argument(
        "--max-queue",
        type=int,
        default=None,
        metavar="N",
        help=(
            "requests allowed to wait for a predict wave before new "
            "ones answer 429 overloaded (default: 64)"
        ),
    )
    srv.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "pool-respawn retries after a worker death before the "
            "degrade policy applies (default: 2)"
        ),
    )
    srv.add_argument(
        "--max-in-flight",
        type=int,
        default=None,
        metavar="N",
        help="concurrent micro-batch predict waves (default: 2)",
    )
    srv.add_argument(
        "--no-metrics",
        action="store_true",
        help=(
            "disable the serving metrics registry (GET /metrics answers "
            "404; /health drops the latency percentiles)"
        ),
    )
    srv.add_argument(
        "--trace",
        action="store_true",
        help="emit JSON span/trace events to stderr (one object per line)",
    )
    srv.add_argument(
        "--emit-metrics",
        default=None,
        metavar="PATH",
        help=(
            "write a JSON metrics-registry snapshot to PATH when the "
            "command finishes ('-' for stdout)"
        ),
    )
    srv.add_argument(
        "--http",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "serve over localhost HTTP on PORT (0 picks a free port) "
            "instead of newline-delimited JSON on stdin/stdout"
        ),
    )

    cmp_ = sub.add_parser("compare", help="run a paper experiment")
    cmp_.add_argument(
        "experiment",
        help="experiment id: fig2, fig3, fig4, fig5, fig5xl, fig9, fig10",
    )
    cmp_.add_argument(
        "--backend",
        choices=["serial", "thread", "process"],
        default="serial",
        help="execution backend for the MH variants (default: serial)",
    )
    cmp_.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker count for parallel backends (default: one per CPU)",
    )

    sub.add_parser("tables", help="print the paper's Tables I and II")
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.data import (
        RuleBasedGenerator,
        YahooAnswersSynthesizer,
        corpus_to_dataset,
        save_dataset,
    )

    if args.kind == "datgen":
        dataset = RuleBasedGenerator(
            n_clusters=args.clusters,
            n_attributes=args.attributes,
            domain_size=args.domain_size,
            noise_rate=args.noise_rate,
            seed=args.seed,
        ).generate(args.items)
    else:
        corpus = YahooAnswersSynthesizer(
            n_topics=args.clusters, seed=args.seed
        ).generate(args.items)
        dataset = corpus_to_dataset(corpus, tfidf_threshold=args.tfidf_threshold)
    path = save_dataset(dataset, args.output)
    print(f"wrote {dataset.describe()} to {path}")
    return 0


def _load_spec_file(path: str) -> dict:
    """Parse a ``--spec`` JSON file into its raw section dicts."""
    from repro.exceptions import ConfigurationError

    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigurationError(f"no such spec file: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path} must hold a JSON object")
    unknown = set(data) - {"lsh", "engine", "train"}
    if unknown:
        raise ConfigurationError(
            f"unknown spec section(s) {sorted(unknown)} in {path}; "
            "expected 'lsh', 'engine', 'train'"
        )
    return data


def _resolve_cluster_specs(args: argparse.Namespace):
    """Merge ``--spec`` file values with per-flag overrides (flags win)."""
    from repro.api import EngineSpec, LSHSpec, TrainSpec

    data = _load_spec_file(args.spec) if args.spec is not None else {}
    lsh = LSHSpec.from_dict(data.get("lsh", {}))
    engine = EngineSpec.from_dict(data.get("engine", {}))
    train = TrainSpec.from_dict(data.get("train", {}))
    lsh_overrides = {
        key: value
        for key, value in (
            ("bands", args.bands),
            ("rows", args.rows),
            ("seed", args.seed),
        )
        if value is not None
    }
    # The CLI's historic default seed is 0 (reproducible runs), not the
    # spec default of None; it applies unless the flag or the spec file
    # explicitly sets a seed (an explicit "seed": null in the file asks
    # for a randomly seeded run and is honoured).
    if "seed" not in lsh_overrides and "seed" not in data.get("lsh", {}):
        lsh_overrides["seed"] = 0
    engine_overrides = {
        key: value
        for key, value in (
            ("backend", args.backend),
            ("n_jobs", args.jobs),
        )
        if value is not None
    }
    # A --backend override away from 'process' drops a spec-file
    # start_method along with the backend it configured.
    if (
        args.backend is not None
        and args.backend != "process"
        and engine.start_method is not None
    ):
        engine_overrides["start_method"] = None
    train_overrides = {
        key: value
        for key, value in (
            ("max_iter", args.max_iter),
            ("update_refs", args.update_refs),
        )
        if value is not None
    }
    return (
        lsh.replace(**lsh_overrides),
        engine.replace(**engine_overrides),
        train.replace(**train_overrides),
    )


def _enable_observability(args: argparse.Namespace) -> None:
    """Honour ``--trace`` before the command body starts timing."""
    if getattr(args, "trace", False):
        from repro.obs import enable_tracing

        enable_tracing()


def _write_metrics_snapshot(
    args: argparse.Namespace, snapshot: dict | None = None
) -> None:
    """Honour ``--emit-metrics PATH`` after the command body finishes.

    ``snapshot`` lets ``serve`` pass its per-server registry view;
    everything else dumps the process-default registry.
    """
    path = getattr(args, "emit_metrics", None)
    if path is None:
        return
    if snapshot is None:
        from repro.obs import metrics

        snapshot = metrics().snapshot()
    text = json.dumps(snapshot, indent=2, sort_keys=True)
    if path == "-":
        print(text)
    else:
        Path(path).write_text(text + "\n", encoding="utf-8")
        print(f"metrics   : wrote snapshot to {path}", file=sys.stderr)


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.core import MHKModes
    from repro.data import load_dataset, save_model
    from repro.kmodes import KModes
    from repro.metrics import cluster_purity
    from repro.obs import format_phase_timings

    _enable_observability(args)
    dataset = load_dataset(args.dataset)
    lsh, engine, train = _resolve_cluster_specs(args)
    if args.algorithm == "mh-kmodes" and engine.backend == "serial" and engine.n_jobs:
        print(
            "warning: --jobs has no effect with the serial backend; "
            "pass --backend thread or --backend process",
            file=sys.stderr,
        )
    if args.algorithm == "kmodes":
        if engine.backend != "serial" or engine.n_jobs is not None:
            print(
                "warning: --backend/--jobs apply to mh-kmodes only; "
                "the exhaustive kmodes baseline runs in-process",
                file=sys.stderr,
            )
        model: KModes | MHKModes = KModes(
            n_clusters=args.clusters, max_iter=train.max_iter, seed=lsh.seed
        )
    else:
        model = MHKModes(
            n_clusters=args.clusters,
            lsh=lsh,
            engine=engine,
            train=train,
            absent_code=args.absent_code,
        )
    model.fit(dataset.X)
    assert model.stats_ is not None and model.labels_ is not None
    print(f"dataset   : {dataset.describe()}")
    print(f"algorithm : {model.stats_.algorithm}")
    if args.algorithm == "mh-kmodes":
        from repro.kernels import active_backend

        jobs = engine.n_jobs if engine.n_jobs is not None else "auto"
        print(
            f"engine    : backend={engine.backend} jobs={jobs} "
            f"update_refs={model.update_refs}"
        )
        print(f"kernels   : {active_backend()}")
    print(f"iterations: {model.n_iter_} (converged={model.converged_})")
    print(f"setup     : {model.stats_.setup_s:.3f}s")
    if model.stats_.phase_s:
        print(f"phases    : {format_phase_timings(model.stats_.phase_s)}")
    print(f"total     : {model.stats_.total_time_s:.3f}s")
    print(f"cost      : {model.cost_:.0f}")
    print(f"purity    : {cluster_purity(model.labels_, dataset.labels):.4f}")
    for it in model.stats_.iterations:
        shortlist = (
            f" shortlist={it.mean_shortlist:8.2f}"
            if not np.isnan(it.mean_shortlist)
            else ""
        )
        print(
            f"  iter {it.iteration:3d}: {it.duration_s:7.3f}s "
            f"moves={it.moves:6d}{shortlist}"
        )
    if args.save is not None:
        saved = save_model(model, args.save)
        print(f"saved     : {saved} (+ {saved.with_suffix('.json').name})")
    _write_metrics_snapshot(args)
    return 0


def _cmd_extend(args: argparse.Namespace) -> int:
    from repro.api import LSHSpec, StreamSpec, TrainSpec
    from repro.core.streaming import StreamingMHKModes
    from repro.data import load_dataset
    from repro.instrumentation import Timer
    from repro.metrics import cluster_purity
    from repro.obs import format_phase_timings

    _enable_observability(args)
    dataset = load_dataset(args.dataset)
    n_items = dataset.X.shape[0]
    split = args.bootstrap if args.bootstrap is not None else n_items // 2
    if not 0 < split < n_items:
        print(
            f"--bootstrap must leave items to stream (dataset has "
            f"{n_items} items, got {split})",
            file=sys.stderr,
        )
        return 2
    lsh = LSHSpec(
        bands=args.bands if args.bands is not None else 20,
        rows=args.rows if args.rows is not None else 5,
        seed=args.seed,
    )
    train = (
        TrainSpec(max_iter=args.max_iter)
        if args.max_iter is not None
        else TrainSpec()
    )
    stream_spec = StreamSpec(
        backend=args.backend if args.backend is not None else "serial",
        n_jobs=args.jobs,
        chunk_items=args.stream_chunk,
    )
    estimator = StreamingMHKModes(
        n_clusters=args.clusters,
        lsh=lsh,
        train=train,
        stream=stream_spec,
        absent_code=args.absent_code,
        refresh_interval=args.refresh_interval,
    )
    from repro.kernels import active_backend

    print(f"dataset   : {dataset.describe()}")
    print(
        f"stream    : backend={stream_spec.backend} "
        f"jobs={stream_spec.n_jobs if stream_spec.n_jobs is not None else 'auto'} "
        f"chunk={stream_spec.chunk_items} refresh={args.refresh_interval}"
    )
    print(f"kernels   : {active_backend()}")
    with estimator:
        with Timer() as boot_timer:
            estimator.bootstrap(dataset.X[:split])
        print(f"bootstrap : {split} items in {boot_timer.elapsed_s:.3f}s")
        streamed = 0
        streamed_s = 0.0
        labels_parts = []
        for start in range(split, n_items, args.stream_chunk):
            stop = min(start + args.stream_chunk, n_items)
            with Timer() as chunk_timer:
                labels_parts.append(estimator.extend(dataset.X[start:stop]))
            seconds = chunk_timer.elapsed_s
            streamed += stop - start
            streamed_s += seconds
            phases = format_phase_timings(estimator.extend_stats_)
            print(
                f"  chunk {start:>7}..{stop:<7} {stop - start:6d} items "
                f"{seconds:7.3f}s {(stop - start) / seconds:9.0f} items/s  "
                f"{phases}"
            )
        rate = streamed / streamed_s if streamed_s else float("inf")
        print(
            f"streamed  : {streamed} items in {streamed_s:.3f}s "
            f"({rate:.0f} items/s); fallbacks={estimator.n_fallbacks_}"
        )
        if dataset.labels is not None:
            streamed_labels = np.concatenate(labels_parts)
            purity = cluster_purity(streamed_labels, dataset.labels[split:])
            print(f"purity    : {purity:.4f} (streamed items)")
    _write_metrics_snapshot(args)
    return 0


class _ShutdownSignal(Exception):
    """SIGTERM/SIGINT turned into a catchable graceful-exit request."""


def _install_shutdown_handlers() -> None:
    """Make SIGTERM/SIGINT raise :class:`_ShutdownSignal` in the main thread.

    ``repro serve`` then drains in-flight requests (bounded by any
    configured deadline), refuses new ones with 503 and exits 0 —
    instead of dying mid-response.  No-op when not in the main thread
    (in-process tests drive ``serve_ndjson`` directly).
    """
    import signal

    def handler(signum, frame):
        raise _ShutdownSignal(signum)

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig, handler)
        except ValueError:  # pragma: no cover - not the main thread
            pass


def _resolve_serve_spec(args: argparse.Namespace, spec):
    """Apply ``repro serve`` flag overrides to the (loaded) ServeSpec."""
    from repro.api import ResilienceSpec

    overrides = {
        key: value
        for key, value in (
            ("backend", args.backend),
            ("n_jobs", args.jobs),
            ("chunk_items", args.chunk_items),
            ("max_batch", args.max_batch),
        )
        if value is not None
    }
    if args.allow_extend:
        overrides["allow_extend"] = True
    if args.no_metrics:
        overrides["emit_metrics"] = False
    resilience_overrides = {
        key: value
        for key, value in (
            ("deadline_ms", args.deadline_ms),
            ("max_queue_depth", args.max_queue),
            ("max_retries", args.retries),
            ("max_in_flight", args.max_in_flight),
        )
        if value is not None
    }
    if resilience_overrides:
        # Any resilience flag turns admission control on, extending a
        # persisted ResilienceSpec when the model was saved with one.
        base = spec.resilience if spec.resilience is not None else ResilienceSpec()
        overrides["resilience"] = base.replace(**resilience_overrides)
    return spec.replace(**overrides)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.api import ServeSpec
    from repro.data.io import load_cluster_model, load_serve_spec
    from repro.serve import ModelServer, make_http_server, serve_ndjson

    _enable_observability(args)
    _install_shutdown_handlers()
    model = load_cluster_model(args.model)
    spec = _resolve_serve_spec(args, load_serve_spec(args.model) or ServeSpec())
    with ModelServer(model, spec) as server:
        # The context manager is the graceful-shutdown path: __exit__
        # runs ModelServer.close(), which refuses new requests with
        # 503/shutting_down, drains the admission queue (bounded by the
        # deadline) and then tears the pool down.
        if args.http is not None:
            httpd = make_http_server(server, port=args.http)
            host, port = httpd.server_address[:2]
            # The ready line goes to stdout (unused by this transport)
            # so a supervising process can parse the bound port.
            print(f"serving {model!r} on http://{host}:{port}", flush=True)
            try:
                httpd.serve_forever()
            except (KeyboardInterrupt, _ShutdownSignal):
                print(
                    "shutting down: draining in-flight requests",
                    file=sys.stderr,
                    flush=True,
                )
            finally:
                httpd.server_close()
        else:
            # stdout is the response channel; the ready line goes to
            # stderr so it never interleaves with NDJSON responses.
            print(f"serving {model!r} on stdin/stdout (ndjson)", file=sys.stderr, flush=True)
            try:
                answered = serve_ndjson(server, sys.stdin, sys.stdout)
                print(f"served {answered} request(s)", file=sys.stderr)
            except (KeyboardInterrupt, _ShutdownSignal):
                print(
                    "shutting down: draining in-flight requests",
                    file=sys.stderr,
                    flush=True,
                )
        _write_metrics_snapshot(args, server.metrics_snapshot())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments import (
        EXPERIMENTS,
        SyntheticConfig,
        render_comparison_summary,
        render_series_table,
        run_synthetic_experiment,
        run_yahoo_experiment,
    )

    config = EXPERIMENTS.get(args.experiment)
    if config is None:
        print(
            f"unknown experiment {args.experiment!r}; "
            f"choose from {sorted(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    if args.backend == "serial" and args.jobs:
        print(
            "warning: --jobs has no effect with the serial backend; "
            "pass --backend thread or --backend process",
            file=sys.stderr,
        )
    config = config.scaled(backend=args.backend, n_jobs=args.jobs)
    print(config.description)
    if args.backend != "serial":
        jobs = args.jobs if args.jobs is not None else "auto"
        print(f"engine: backend={args.backend} jobs={jobs} (MH variants)")
    if isinstance(config, SyntheticConfig):
        result = run_synthetic_experiment(config)
    else:
        result = run_yahoo_experiment(config)
    print(render_comparison_summary(result))
    print()
    for fieldname in ("duration_s", "mean_shortlist", "moves"):
        print(render_series_table(result, fieldname))
        print()
    return 0


def _cmd_tables(_: argparse.Namespace) -> int:
    from repro.core.parameters import probability_table
    from repro.experiments.report import render_probability_table

    table1 = probability_table(
        rows=1,
        band_choices=[10, 100, 800],
        similarities=[0.0001, 0.001, 0.01, 0.1, 0.2, 0.5, 0.8],
    )
    table2 = probability_table(
        rows=5,
        band_choices=[10, 100, 800],
        similarities=[0.1, 0.2, 0.3, 0.5, 0.8],
    )
    print(render_probability_table(table1, "Table I (rows=1, cluster size 10)"))
    print()
    print(render_probability_table(table2, "Table II (rows=5, cluster size 10)"))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "cluster": _cmd_cluster,
        "extend": _cmd_extend,
        "serve": _cmd_serve,
        "compare": _cmd_compare,
        "tables": _cmd_tables,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
