"""Benchmark of the ``repro`` library: fit, streaming ingest and serving.

Run from the root of a checkout (the library is imported from ``src/``)::

    python3 perfbench/run.py --workload ingest-highcard --seed 7 \
        --seconds 12 --trace 0

Workloads (see ``workloads.py``): ``fit-k800``, ``ingest-highcard``,
``ingest-lowcard`` and ``serve-mixed``.  Each run is one process:

1. untimed preparation (``serve-mixed`` fits and saves its model);
2. set-up, timed: once in a traced run; in an untraced run several
   times, half before the window and half after it (``setup_s`` is
   their median);
3. warm-up operations, untimed;
4. the measured window: closed-loop operations for ``--seconds``
   seconds, and on past that until the fixed prefixes that purity and
   the counts are computed over are complete.

``--trace 0`` prints the end-to-end metrics; their timings are CPU
time scaled to one machine speed (see ``Speedometer``).  ``--trace 1``
alternates untraced and traced operations in the window and prints the
per-layer split (see ``layers.py``): wall seconds per operation inside
each layer's calls (self time, so layers never overlap), counts over
the first traced operations, the tracing overhead, and the share of an
operation the layers account for.  A traced run also replays a prefix
of the workload another way and compares outputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment.  Every workload process pins
``OMP_NUM_THREADS=1`` and keeps its compiled kernels and temporary
files under ``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"

#: The disjoint layer seconds of a traced operation must add up to its
#: wall time to within this share below (and 5% above).
ACCOUNTING_TOLERANCE = 0.10

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_cpu_s": "items/cpu-s",
    "op_cpu_p50_ms": "ms",
    "purity": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer ``*_s`` metric -> the span whose self time it reports.
LAYER_SPANS = {
    "kernels.minhash_s": "kernels.minhash",
    "kernels.count_update_s": "kernels.count_update",
    "lsh.signatures_s": None,  # fit.signatures or extend.signatures
    "lsh.index_build_s": "fit.index_build",
    "lsh.shortlist_s": "lsh.shortlist",
    "lsh.insert_s": "lsh.insert",
    "engine.session_open_s": "fit.session_open",
    "engine.score_s": "engine.score",
    "core.exhaustive_s": "fit.exhaustive_assign",
    "core.iterations_s": "fit.iterations",
    "core.modes_s": "core.modes",
    "core.cost_s": "core.cost",
    "core.fallback_s": "core.fallback",
    "core.walk_s": "extend.walk",
    "core.tracker_s": "core.tracker",
    "core.refresh_s": "core.refresh",
    "core.predict_s": "core.predict",
    "serve.predict_s": "serve.predict",
    "serve.extend_s": "serve.extend",
}

PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_SPANS},
    "api.load_s": "s",
    "serve.encode_s": "s",
    "resilience.queue_wait_s": "s",
    "engine.worker_busy_share": "ratio",
    "lsh.rows_queried": "count",
    "lsh.empty_shortlist_share": "ratio",
    "lsh.mean_shortlist": "count",
    "lsh.max_bucket_size": "count",
    "engine.candidates_scored": "count",
    "core.iterations": "count",
    "core.moves": "count",
    "core.fallback_rows": "count",
    "resilience.waves": "count",
    "obs.trace_overhead": "ratio",
    "obs.accounted_share": "ratio",
}


def pin_environment() -> None:
    """Settings every workload process runs under, set before numpy loads.

    OpenMP threads in the compiled kernels spin on the second CPU and
    make forked pool workers hang, so they are pinned to one.
    """
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["REPRO_KERNELS_CACHE"] = str(BUILD_DIR / "kernels")
    os.environ["TMPDIR"] = str(BUILD_DIR / "tmp")
    (BUILD_DIR / "tmp").mkdir(parents=True, exist_ok=True)


def git_sha() -> str | None:
    """The checkout's commit (``None`` outside git or without git)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def stop_resource_tracker() -> None:
    """Stop and reap the helper process shared-memory segments start.

    Process pools hand arrays to workers in shared memory, which starts
    multiprocessing's resource tracker; left alone it would outlive this
    process by a moment.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def cpu_seconds() -> float:
    """CPU seconds of this process (all its threads) and its reaped workers.

    ``fit-k800`` closes its worker pool at the end of every fit, so its
    workers are reaped, and counted here, fit by fit.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Speedometer:
    """Machine speed, from a fixed computation run between operations.

    The end-to-end timings are CPU time scaled to one machine speed.  On
    a shared virtual machine the wall clock also counts time the host
    runs other guests on this machine's CPUs (steal) and time spent
    waiting for a CPU; the kernel leaves both out of CPU time.  CPU time
    still follows the host's clock speed, which changes with the load of
    other guests for minutes at a time, so a fixed reference slice of
    NumPy and interpreter work is timed every ``every_s`` seconds through
    the run, and CPU times are multiplied by ``scale``: the slice's CPU
    time on the host the benchmark was tuned on (a 2-vCPU Xeon virtual
    machine, idle) over its median CPU time in this run.  A code change
    moves the operations' CPU time and not the slice's, so it shows in
    full.
    """

    NOMINAL_S = 0.0080

    def __init__(self, every_s: float = 0.25) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._keys = rng.integers(0, 1 << 40, size=20_000)
        self._rows = rng.integers(0, 300, size=(2_000, 60))
        self._probe = self._rows[rng.integers(0, 2_000, size=64)]
        self.every_s = every_s
        self.slice_s: list[float] = []
        self._last = -every_s

    def _slice(self) -> None:
        import numpy as np

        order = np.argsort(self._keys, kind="stable")
        np.unique(self._keys[order] >> 20)
        matches = self._rows[:, None, :16] == self._probe[None, :, :16]
        matches.sum(axis=2).argmax(axis=1)
        counts: dict[int, int] = {}
        for value in self._rows[:200].ravel().tolist():
            counts[value] = counts.get(value, 0) + 1

    def tick(self) -> None:
        """Time one slice if ``every_s`` has passed since the last one."""
        if time.perf_counter() - self._last < self.every_s:
            return
        # an untimed slice first, so the timed one does not depend on
        # what the operation before it left in the caches
        self._slice()
        start = time.process_time()
        self._slice()
        self.slice_s.append(time.process_time() - start)
        self._last = time.perf_counter()

    @property
    def scale(self) -> float:
        return self.NOMINAL_S / statistics.median(self.slice_s)


def steal_seconds() -> float | None:
    """Machine-wide steal time so far (``None`` where it is not reported)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def peak_rss_mb() -> float:
    """Peak RSS so far of this process or of its largest reaped worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


class Tally:
    """Operations attempted and failed (errors and failed output checks)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)

    def run(self, workload, i: int):
        """Run op ``i``; returns its result, ``None`` at end of input,
        or ``False`` when it raised."""
        try:
            result = workload.run_op(i)
        except Exception:
            traceback.print_exc()
            self.check(False, f"operation {i} raised")
            return False
        if result is not None:
            self.check(result.ok, f"output of operation {i}")
        return result


def window_done(start: float, seconds: float, i: int, needed: int) -> bool:
    return time.perf_counter() - start >= seconds and i >= needed


def timed_setups(workload, n: int, speed: Speedometer) -> list[float]:
    times = []
    for _ in range(n):
        # each set-up starts from nothing, garbage of the last one included
        workload.release()
        gc.collect()
        start = cpu_seconds()
        workload.setup()
        times.append(cpu_seconds() - start)
        speed.tick()
    return times


def untraced_run(
    workload, seconds: float, tally: Tally, speed: Speedometer, window: dict
) -> dict:
    """Unscaled CPU times; ``main`` scales them once the run is over."""
    op_cpu, rows, window_cpu = [], 0, 0.0
    i = workload.warmup_ops
    # Peak RSS is read once the fixed prefix is done: state grows with
    # every op, and a faster program gets further in a timed window.
    rss = peak_rss_mb() if i >= workload.purity_ops else None
    steal = steal_seconds()
    start = time.perf_counter()
    while not window_done(start, seconds, i, workload.purity_ops):
        before = cpu_seconds()
        result = tally.run(workload, i)
        cpu = cpu_seconds()
        window_cpu += cpu - before
        speed.tick()
        i += 1
        if i == workload.purity_ops:
            rss = peak_rss_mb()
        if result is None:
            break
        if result:
            op_cpu.append(cpu - before)
            rows += result.rows
    wall = time.perf_counter() - start
    window.update(ops=len(op_cpu), rows=rows, wall_s=wall, cpu_s=window_cpu)
    if steal is not None:
        window["steal_s"] = steal_seconds() - steal
    return {
        "items_per_cpu_s": rows / window_cpu,
        "op_cpu_p50_ms": statistics.median(op_cpu) * 1000.0,
        "purity": workload.purity(),
        "peak_rss_mb": rss,
    }


def _counts(reading, workload, tracer) -> dict[str, float]:
    queried = reading.count("rows_queried")
    counts = {
        "lsh.rows_queried": queried,
        "lsh.empty_shortlist_share": (
            reading.count("empty_rows") / queried if queried else 0.0
        ),
        "lsh.mean_shortlist": reading.count("shortlisted") / queried if queried else 0.0,
        "lsh.max_bucket_size": (
            0.0
            if tracer.last_index is None
            else float(tracer.last_index.stats().max_bucket_size)
        ),
        "engine.candidates_scored": reading.count("candidates_scored"),
        "core.iterations": 0.0,
        "core.moves": 0.0,
        "core.fallback_rows": reading.count("fallback_rows"),
        "resilience.waves": 0.0,
    }
    counts.update(workload.extra_counts())
    return counts


def traced_run(workload, seconds: float, tally: Tally, load_s: float, tracer) -> dict:
    from repro import obs

    import layers

    traced = untraced = 0
    traced_s = untraced_s = json_s = 0.0
    counts = None
    i = workload.warmup_ops
    needed = max(
        workload.purity_ops,
        workload.warmup_ops + 2 * workload.count_ops + workload.trace_block,
    )
    with obs.capture_metrics() as registry:
        reading = layers.LayerReading(registry)
        start = time.perf_counter()
        while not window_done(start, seconds, i, needed):
            is_traced = (i - workload.warmup_ops) // workload.trace_block % 2 == 1
            if is_traced:
                tracer.enabled = True
                try:
                    result = tally.run(workload, i)
                finally:
                    tracer.enabled = False
            else:
                with obs.capture_metrics():  # untraced: the program's spans go here
                    result = tally.run(workload, i)
            i += 1
            if result is None:
                break
            if not result:
                continue
            if is_traced:
                traced += 1
                traced_s += result.latency_s
                json_s += result.json_s
                if traced == workload.count_ops:
                    counts = _counts(reading, workload, tracer)
            else:
                untraced += 1
                untraced_s += result.latency_s

    per_op = max(traced, 1)
    metrics = {}
    for name, span in LAYER_SPANS.items():
        if span is None:
            seconds_in = reading.self_time("fit.signatures") + reading.self_time(
                "extend.signatures"
            )
        else:
            seconds_in = reading.self_time(span)
        metrics[name] = seconds_in / per_op
    metrics["api.load_s"] = load_s
    metrics["serve.encode_s"] = (json_s + reading.self_time("serve.handle")) / per_op
    metrics["resilience.queue_wait_s"] = (
        reading.total("resilience.submit") - reading.total("core.predict")
    ) / per_op
    n_jobs = getattr(workload, "n_jobs", 0)
    chunk_s = sum(
        reading.total(f"fit.{kind}_chunk")
        for kind in ("exhaustive", "signature", "assignment")
    )
    metrics["engine.worker_busy_share"] = (
        chunk_s / (traced_s * n_jobs) if n_jobs and traced_s else 0.0
    )
    if counts is None:
        tally.check(False, f"fewer than {workload.count_ops} traced operations")
        counts = _counts(reading, workload, tracer)
    metrics.update(counts)

    mean_traced = traced_s / per_op
    metrics["obs.trace_overhead"] = (
        mean_traced / (untraced_s / untraced) if untraced else 0.0
    )
    accounted = sum(metrics[name] for name in workload.partition)
    metrics["obs.accounted_share"] = accounted / mean_traced if mean_traced else 0.0
    tally.check(
        1.0 - ACCOUNTING_TOLERANCE <= metrics["obs.accounted_share"] <= 1.05,
        f"layer seconds cover {metrics['obs.accounted_share']:.3f} of an operation",
    )
    for layer in workload.required:
        tally.check(reading.calls(layer) > 0, f"no calls recorded into {layer}")
    if tracer.missing:
        print(f"perfbench: entry points not found: {tracer.missing}", file=sys.stderr)
    tally.check(workload.replay(), f"{workload.name} replay differs")
    return metrics


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every workload for the harness self-test",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no library source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np

    from repro import kernels, obs

    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # Build (or load) the compiled kernels before anything is timed.
    kernel_tier = kernels.active_backend()
    sizes = workloads.TINY if args.size == "tiny" else workloads.FULL
    workload = workloads.WORKLOADS[args.workload](
        sizes, args.seed, args.seconds, BUILD_DIR
    )
    tally = Tally()
    tracer = layers.LayerTracer()
    window: dict = {}
    speed = Speedometer()
    try:
        workload.prepare()
        if args.trace:
            tracer.install()
            tracer.enabled = True
            with obs.capture_metrics() as setup_registry:
                workload.setup()
            tracer.enabled = False
            setup_reading = layers.LayerReading(setup_registry)
            for layer in workload.setup_required:
                tally.check(setup_reading.calls(layer) > 0, f"no calls recorded into {layer}")
            load_s = setup_reading.total("api.load")
        else:
            before = (workload.setup_repeats + 1) // 2
            setup_s = timed_setups(workload, before, speed)
        for i in range(workload.warmup_ops):
            tally.run(workload, i)
        if args.trace:
            values = traced_run(workload, args.seconds, tally, load_s, tracer)
            units = PER_LAYER_UNITS
        else:
            values = untraced_run(workload, args.seconds, tally, speed, window)
            # The other half of the set-ups follows the window, so their
            # median spans the run rather than one moment of host speed.
            setup_s += timed_setups(workload, workload.setup_repeats - before, speed)
            values["setup_s"] = statistics.median(setup_s)
            window.update(reference_slices=len(speed.slice_s), scale=speed.scale)
            values["setup_s"] *= speed.scale
            values["op_cpu_p50_ms"] *= speed.scale
            values["items_per_cpu_s"] /= speed.scale
            units = END_TO_END_UNITS
    finally:
        tracer.uninstall()
        workload.close()
        stop_resource_tracker()

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "cpu_count": os.cpu_count(),
        "kernels": kernel_tier,
        "omp_num_threads": os.environ["OMP_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "parameters": workload.parameters(),
        "window": window,
    }
    print(json.dumps({"env": env}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
