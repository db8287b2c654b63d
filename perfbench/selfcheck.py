"""Tiny-size self-check of the whole benchmark command.

    python3 perfbench/selfcheck.py

Runs every workload in BENCHMARK.json at a twentieth of its size, for the
cycles of a six-second run (enough for every kind of command to run at least
once), untraced and traced, and checks the result line against the
contract: exactly the keys correct/attempted/failed/metrics, every output
correct, and exactly the end-to-end (untraced) or per-layer (traced)
metrics with their units. Then it runs the benchmark in a directory that holds only
BENCHMARK.json and perfbench/, where it must fail without printing a result.
Takes about a minute; exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import numbers
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "6", "--trace", str(trace), "--scale", "0.05"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    wanted = spec["per_layer" if trace else "end_to_end"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 \
            or not result.get("attempted", 0) >= 1:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')} "
                        f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        problems.append(f"metric names differ: {sorted(set(metrics) ^ names)}")
    for m in wanted:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), numbers.Real):
            problems.append(f"{m['name']}: {got}")
        elif not trace and got["value"] <= 0:
            problems.append(f"{m['name']} is {got['value']}")
    if problems:
        sys.exit(f"{workload} trace={trace}: " + "; ".join(problems) + f"\n{proc.stderr}")
    print(f"ok  {workload:<8} trace={trace}  {result['attempted']} ops checked")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "audit", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        sys.exit(f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok  without src/pledger the benchmark fails and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_result(spec, workload, trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
