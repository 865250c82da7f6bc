"""Self-test of the benchmark harness on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` with ``--size tiny`` twice in
each trace mode and checks that each run exits 0, passes its output
checks, and prints exactly the metrics ``BENCHMARK.json`` names for its
mode, each with its unit; that purity and the count metrics repeat
exactly between two runs of one seed; and that ``run.py`` fails, without
printing a result, in a directory holding only ``BENCHMARK.json`` and
the benchmark.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BARE = ROOT / ".bench_build" / "perfbench" / "selftest-bare"
SEED = 11


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            exact = [name for name, unit in expected.items() if unit == "count"]
            exact += ["purity"] if trace == 0 else []
            seen = []
            for _ in range(2):
                proc = run(ROOT, workload, trace)
                label = f"{workload} --trace {trace}"
                if proc.returncode != 0:
                    problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                    break
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{label}: result keys {sorted(result)}")
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problems.append(f"{label}: checks failed\n{proc.stderr}")
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                if units != expected:
                    problems.append(f"{label}: metrics/units {units} != {expected}")
                seen.append({k: result["metrics"][k]["value"] for k in exact})
            if len(seen) == 2 and seen[0] != seen[1]:
                problems.append(f"{label}: repeat differs: {seen[0]} vs {seen[1]}")
            print(f"{workload} --trace {trace}: {'ok' if not problems else 'FAILED'}")
            if problems:
                break
        if problems:
            break

    shutil.rmtree(BARE, ignore_errors=True)
    (BARE / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", BARE)
    for source in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(source, BARE / "perfbench")
    bare = run(BARE, spec["workloads"][0]["name"], 0)
    if bare.returncode == 0 or bare.stdout.strip():
        problems.append("run.py did not fail without the library source")
    shutil.rmtree(BARE, ignore_errors=True)

    for problem in problems:
        print(problem, file=sys.stderr)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
