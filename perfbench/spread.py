"""Repeat benchmark runs and report each metric's median and spread.

Runs ``run.py`` once per (seed, set, workload), interleaving the sets
seed by seed and alternating which set goes first, so drift in machine
speed hits every set alike.  A set is one source tree (``--tree``,
repeatable; two sets of the same tree by default).  For every
end-to-end metric it prints, per set, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread — the
distance between the quartiles as a share of the median — next to the
metric's bound from ``BENCHMARK.json``, and how far each set's median
moved from the first set's in the metric's worse direction.

A run whose CPU count or kernel tier differs from the rest of its set
is flagged and left out of the statistics.

    python3 perfbench/spread.py --workloads serve-mixed --seeds 1-5
    python3 perfbench/spread.py --tree ../parent --tree . --seeds 1-10
"""

from __future__ import annotations

import argparse
import collections
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable,
        "perfbench/run.py",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} in {tree} failed:\n{proc.stderr}")
    env = json.loads(lines[-2])["env"]
    return {"env": env, **json.loads(lines[-1])}


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--tree", action="append", type=Path)
    parser.add_argument("--sets", type=int, default=2, help="sets when one tree is given")
    parser.add_argument("--out", type=Path, help="write every run and summary as JSON")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("quartiles need at least two seeds")

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    trees = [t.resolve() for t in (args.tree or [HERE.parent] * args.sets)]
    if len(trees) == 1:
        trees = trees * args.sets
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    runs = collections.defaultdict(list)  # (workload, set) -> runs
    for n, seed in enumerate(seeds):
        order = list(range(len(trees)))
        if n % 2:
            order.reverse()
        for s in order:
            for workload in workloads:
                result = run_once(trees[s], workload, seed, spec["run_seconds"])
                runs[(workload, s)].append(result)
                print(
                    f"set {s} seed {seed} {workload}: correct={result['correct']} "
                    f"failed={result['failed']}/{result['attempted']}",
                    file=sys.stderr,
                )

    report = {}
    ok = True
    for workload in workloads:
        print(f"\n{workload}")
        base: dict[str, float] = {}
        for s in range(len(trees)):
            group = runs[(workload, s)]
            usual = collections.Counter(
                (r["env"]["cpu_count"], r["env"]["kernels"]) for r in group
            ).most_common(1)[0][0]
            pooled = [
                r for r in group if (r["env"]["cpu_count"], r["env"]["kernels"]) == usual
            ]
            for r in group:
                if r not in pooled:
                    print(f"  flagged: seed {r['env']['seed']} ran on {r['env']}")
                if not r["correct"] or r["failed"]:
                    ok = False
                    print(f"  incorrect: seed {r['env']['seed']}")
            for name, meta in metrics.items():
                stats = summarise([r["metrics"][name]["value"] for r in pooled])
                bound = meta["bound"]
                sign = 1.0 if meta["better"] == "lower" else -1.0
                base.setdefault(name, stats["median"])
                worse = sign * (stats["median"] - base[name]) / base[name]
                flag = ""
                if stats["spread"] > bound:
                    flag, ok = "SPREAD>BOUND", False
                elif worse > bound:
                    flag, ok = "MOVED>BOUND", False
                elif stats["spread"] > bound / 3:
                    flag = "spread>bound/3"
                print(
                    f"  set {s} {name:16s} median {stats['median']:12.5g} "
                    f"q1 {stats['q1']:12.5g} q3 {stats['q3']:12.5g} "
                    f"spread {stats['spread']:7.4f} bound {bound} "
                    f"worse-than-set-0 {worse:+.4f} {flag}"
                )
                report[f"{workload}/{s}/{name}"] = {**stats, "worse": worse, "bound": bound}
            # what the scaled CPU timings replace: wall and unscaled CPU
            # throughput, and the host speed the reference slices saw
            windows = [r["env"]["window"] for r in pooled]
            for name, values in (
                ("wall items/s", [w["rows"] / w["wall_s"] for w in windows]),
                ("raw items/cpu-s", [w["rows"] / w["cpu_s"] for w in windows]),
                ("speed scale", [w["scale"] for w in windows]),
            ):
                stats = summarise(values)
                print(
                    f"  set {s} ({name}) median {stats['median']:.5g} "
                    f"spread {stats['spread']:.4f}"
                )
    if args.out:
        args.out.write_text(
            json.dumps({"report": report, "runs": {f"{w}/{s}": r for (w, s), r in runs.items()}})
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
