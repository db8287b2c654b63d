"""Benchmark of the pledger command line on seeded ledgers.

    python3 perfbench/run.py --workload audit|govern|release --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout that holds `src/pledger`. With `--trace 0`
one client drives the CLI as a closed loop: one command at a time, each a
fresh `python3 -m pledger` subprocess, so interpreter start counts; the
gated times are scaled by a speed probe run after every command (see
SPEED_PROBE). Every output is checked against the generator's own
expectations. With `--trace 1` the same command sequence runs in-process
through `pledger.cli.main`, once untraced, once with spans around the
package's public functions (see tracer.py), and once traced on a
quarter-size ledger of the same seed and shape. The last line of standard output is one JSON object: correct,
attempted, failed and the metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
IMPORT_PROBES = 5
MAX_LOOP_SECONDS = 120  # keeps a run of a much slower commit within three minutes
# A fixed child process that does not touch pledger: interpreter start, JSON
# and hashing. It runs after every command of the loop; its median over the
# run measures how fast the shared machine is running just then, and the
# loop's times are scaled to the speed at which it takes SPEED_PROBE_NOMINAL_S
# (its median on a 2-core Xeon container when the benchmark was written).
SPEED_PROBE = ("import hashlib, json\n"
               "rows = [{'id': i, 'name': str(i) * 8, 'links': [i, i + 1]} "
               "for i in range(12000)]\n"
               "text = json.dumps(rows, sort_keys=True)\n"
               "json.loads(text)\n"
               "hashlib.sha256(text.encode()).hexdigest()\n")
SPEED_PROBE_NOMINAL_S = 0.13


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PLEDGER_LEDGER"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Runs ops and counts what was attempted and what failed."""

    def __init__(self, work: Path, in_process: bool):
        self.work = work
        self.in_process = in_process
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.peak_rss_kb = 0
        self.probe_times: list[float] = []

    def _child(self, args: list[str], out, err):
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=self.env, cwd=self.work)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, elapsed, usage

    def _subprocess(self, argv: list[str]) -> tuple[int, str, str, float]:
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            code, elapsed, usage = self._child(["-m", "pledger", *argv], out, err)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        code_probe, probe, _ = self._child(["-c", SPEED_PROBE], subprocess.DEVNULL, None)
        if code_probe == 0:
            self.probe_times.append(probe)
        return (code, out_path.read_text("utf-8"), err_path.read_text("utf-8"), elapsed)

    def _in_process(self, argv: list[str]) -> tuple[int, str, str, float]:
        import pledger.cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            started = time.perf_counter()
            code = pledger.cli.main(argv)
            elapsed = time.perf_counter() - started
        return code, out.getvalue(), err.getvalue(), elapsed

    def run(self, op) -> float:
        """Execute one op; returns its wall time in seconds."""
        if op.prepare is not None:
            op.prepare()
        code, out, err, elapsed = (self._in_process if self.in_process else self._subprocess)(
            op.argv)
        self.attempted += 1
        try:
            ok = code == op.expect_exit and op.check(out)
        except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            ok, err = False, f"{err}\ncheck raised {exc!r}"
        if not ok:
            self.failed += 1
            print(f"FAILED: pledger {' '.join(op.argv)}\n  exit {code} "
                  f"(expected {op.expect_exit}); stderr: {err.strip()[:500]}", file=sys.stderr)
        return elapsed


def build_copy(workload, world, plan: list, folder: Path, runner: Runner, seed: int):
    """Build one byte-identical copy of the workload's ledger and prime it;
    returns the Ledger and its set-up time."""
    import gen
    from workloads import Ledger

    folder.mkdir()
    elapsed, head = gen.build(plan, folder / "bench.pledger")
    world.last_hash = world.last_hash or head
    ledger = Ledger(world, folder / "bench.pledger", folder,
                    random.Random(f"{workload.name}-loop:{seed}"))
    for op in workload.prime(ledger):
        elapsed += runner.run(op)
    return ledger, elapsed


def first_copy(workload, seed: int, scale: float, folder: Path, runner: Runner):
    """Plan the workload's ledger and build the copy the loop runs on.
    Returns that Ledger, the plan (for more copies) and its set-up time."""
    import gen

    world = gen.PLANS[workload.name](seed, scale)
    plan = list(world.plan)
    ledger, elapsed = build_copy(workload, world, plan, folder, runner, seed)
    workload.after_prime(ledger)
    return ledger, plan, elapsed


def drive(workload, ledger, runner: Runner, cycles: int, between=None):
    """Run `cycles` whole cycles of the workload, stopping early only past
    MAX_LOOP_SECONDS; `between(k)` runs untimed after cycle k. Returns the
    (class, seconds, entries appended) of every command and the number of
    cycles run."""
    samples = []
    started = time.perf_counter()
    k = 0
    while k < cycles and time.perf_counter() - started < MAX_LOOP_SECONDS:
        for op in workload.cycle(ledger, k):
            samples.append((op.cls, runner.run(op), op.appends))
        k += 1
        if between is not None:
            between(k)
    last = workload.finish(ledger)
    if last is not None:
        runner.run(last)
    return samples, k


def tail(times: list[float]) -> tuple[float, float]:
    """The highest sample with at least ten samples above it, and its
    percentile rank."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(workload, seed: int, seconds: int, scale: float, work: Path) -> dict:
    runner = Runner(work, in_process=False)
    ledger, plan, first = first_copy(workload, seed, scale, work / "ledger0", runner)
    setup_times = [first]
    subprocess.run([sys.executable, "-m", "pledger", "--help"], env=runner.env,
                   stdout=subprocess.DEVNULL, check=True)  # compile and cache the package
    runner.peak_rss_kb = 0
    cycles = math.ceil(seconds / workload.cycle_seconds)
    # The other set-up copies are built between cycles, spread over the loop,
    # so the loop's samples span more wall time and slow spells of a shared
    # machine weigh less on any one run.
    build_after = [round((i + 1) * cycles / SETUP_REPEATS) for i in range(SETUP_REPEATS - 1)]

    def between(k: int) -> None:
        rss = runner.peak_rss_kb
        for _ in range(build_after.count(k)):
            folder = work / f"ledger{len(setup_times)}"
            setup_times.append(build_copy(workload, ledger.world, plan, folder, runner, seed)[1])
        runner.peak_rss_kb = rss

    between(0)
    samples, cycles = drive(workload, ledger, runner, cycles, between)

    times = [t for _, t, _ in samples]
    busy = sum(times)
    by_class: dict[str, list[float]] = {}
    for cls, t, _ in samples:
        by_class.setdefault(cls, []).append(t)
    tail_s, tail_rank = tail(times)
    probe = statistics.median(runner.probe_times)
    scale_to_nominal = SPEED_PROBE_NOMINAL_S / probe
    metrics = {
        "cmd_median_ms": (statistics.median(times) * 1e3 * scale_to_nominal, "ms"),
        "cmd_tail_ms": (tail_s * 1e3 * scale_to_nominal, "ms"),
        "cmds_per_s": (len(times) / busy / scale_to_nominal, "1/s"),
        "peak_rss_mb": (runner.peak_rss_kb / 1024, "MB"),
        "setup_s": (statistics.median(setup_times) * scale_to_nominal, "s"),
    }
    print(f"{workload.name} seed={seed}: {len(times)} commands in {cycles} cycles, "
          f"{busy:.1f} s busy; set-up {', '.join(f'{t:.2f}' for t in setup_times)} s")
    print(f"  speed probe median {probe * 1e3:.1f} ms over {len(runner.probe_times)} runs "
          f"(nominal {SPEED_PROBE_NOMINAL_S * 1e3:.0f} ms): gated times are scaled by "
          f"{scale_to_nominal:.3f}; the medians below are raw wall times")
    for cls, values in sorted(by_class.items()):
        print(f"  {cls + '_ms':<16} {statistics.median(values) * 1e3:10.1f} ms  "
              f"(median of {len(values)})")
    appended = sum(a for _, _, a in samples)
    if appended:
        print(f"  {'entries_per_s':<16} {appended / busy:10.1f} 1/s  "
              f"({appended} entries durably appended)")
    print(f"  cmd_tail_ms is the p{tail_rank:.0f} of {len(times)} command times "
          f"(the highest with ten samples above it)")
    print(f"  {'cmd_median_ms':<16} {statistics.median(times) * 1e3:10.1f} ms  raw; "
          f"scaled to nominal speed:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:10.3f} {unit}")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def import_ms(env: dict[str, str]) -> float:
    probe = ("import time; t = time.perf_counter(); import pledger.cli; "
             "print(time.perf_counter() - t)")
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True).stdout) * 1e3
        for _ in range(IMPORT_PROBES))


def traced(workload, seed: int, seconds: int, scale: float, work: Path) -> dict:
    from tracer import Tracer

    cycles = math.ceil(seconds / workload.cycle_seconds)

    def phase(name: str, size: float, trace: bool):
        folder = work / name
        folder.mkdir()
        runner = Runner(folder, in_process=True)
        ledger, _, _ = first_copy(workload, seed, size, folder / "ledger", runner)
        size_before = ledger.path.stat().st_size
        # The generator's own objects stay alive; keep them out of the
        # collector's way so they do not slow the package's code.
        gc.collect()
        gc.freeze()
        tracer = Tracer()
        if trace:
            tracer.install()
        try:
            samples, _ = drive(workload, ledger, runner, cycles)
        finally:
            tracer.uninstall()
        grown = ledger.path.stat().st_size - size_before
        return runner, tracer, samples, grown

    env = child_env()
    subprocess.run([sys.executable, "-m", "pledger", "--help"], env=env,
                   stdout=subprocess.DEVNULL, check=True)
    cli_import = import_ms(env)
    import pledger.cli  # noqa: F401 - imported before any phase is timed
    plain_run, _, plain_samples, _ = phase("plain", scale, False)
    full_run, full, full_samples, grown = phase("full", scale, True)
    small_run, small, _, _ = phase("quarter", scale / 4, True)
    runners = (full_run, plain_run, small_run)

    def growth(name: str) -> float:
        small_ms = small.median(name)
        return full.median(name) / small_ms if small_ms else 0.0

    appends = full.of("store.append")
    commands = len(full.of("cli.main"))
    appended = sum(a for _, _, a in full_samples)
    accrual_considered = full.total("governance.compute_accrual", "considered")
    suite_runs = full.total("harness.run_suite", "runs")
    metrics = {
        "cli.import_ms": (cli_import, "ms"),
        "cli.self_share": (full.self_share("cli"), "ratio"),
        "store.read_entries.ms": (full.median("store.read_entries"), "ms"),
        "store.read_entries.bytes": (full.count_median("store.read_entries", "bytes"), "B"),
        "store.read_entries.growth": (growth("store.read_entries"), "ratio"),
        "store.LedgerFile.ms": (full.median("store.LedgerFile"), "ms"),
        "store.append.ms": (full.median("store.append"), "ms"),
        "store.append.self_ms": (
            statistics.median(full.self_time(i) for i in appends) * 1e3 if appends else 0.0,
            "ms"),
        "store.fsyncs_per_append": (full.fsyncs_in_append / len(appends) if appends else 0.0,
                                    "count"),
        "store.bytes_per_entry": (grown / appended if appended else 0.0, "B"),
        "model.parse_entry.us": (full.median("model.parse_entry", 1e6), "us"),
        "model.parse_entry.calls": (len(full.of("model.parse_entry")) / commands, "count"),
        "model.serialize_entry.us": (full.median("model.serialize_entry", 1e6), "us"),
        "model.validate_structure.us": (full.median("model.validate_structure", 1e6), "us"),
        "model.self_share": (full.self_share("model"), "ratio"),
        "canonical.canonical_bytes.us": (full.median("canonical.canonical_bytes", 1e6), "us"),
        "canonical.canonical_bytes.calls": (
            len(full.of("canonical.canonical_bytes")) / commands, "count"),
        "canonical.self_share": (full.self_share("canonical"), "ratio"),
        "integrity.verify_chain.ms": (full.median("integrity.verify_chain"), "ms"),
        "integrity.verify_chain.growth": (growth("integrity.verify_chain"), "ratio"),
        "integrity.seal.us": (full.median("integrity.seal", 1e6), "us"),
        "integrity.self_share": (full.self_share("integrity"), "ratio"),
        "graph.build_graph.ms": (full.median("graph.build_graph"), "ms"),
        "graph.build_graph.edges": (full.count_median("graph.build_graph", "edges"), "count"),
        "graph.linkage_completeness.ms": (full.median("graph.linkage_completeness"), "ms"),
        "query.parse_query.ms": (full.median("query.parse_query"), "ms"),
        "query.evaluate.ms": (full.median("query.evaluate"), "ms"),
        "query.evaluate.rows": (full.count_median("query.evaluate", "rows"), "count"),
        "query.evaluate.growth": (growth("query.evaluate"), "ratio"),
        "query.self_share": (full.self_share("query"), "ratio"),
        "governance.compute_accrual.ms": (full.median("governance.compute_accrual"), "ms"),
        "governance.compute_accrual.considered": (
            full.count_median("governance.compute_accrual", "considered"), "count"),
        "governance.compute_accrual.minted_ratio": (
            full.total("governance.compute_accrual", "minted") / accrual_considered
            if accrual_considered else 0.0, "ratio"),
        "governance.compute_accrual.growth": (growth("governance.compute_accrual"), "ratio"),
        "governance.credit_report.ms": (full.median("governance.credit_report"), "ms"),
        "governance.gate_check.ms": (full.median("governance.gate_check"), "ms"),
        "harness.run_suite.ms": (full.median("harness.run_suite"), "ms"),
        "harness.run_suite.runs": (full.count_median("harness.run_suite", "runs"), "count"),
        "harness.run_suite.ms_per_run": (
            sum(full.duration(i) for i in full.of("harness.run_suite")) * 1e3 / suite_runs
            if suite_runs else 0.0, "ms"),
        "harness.detect_regressions.ms": (full.median("harness.detect_regressions"), "ms"),
        "evidence.build_export.ms": (full.median("evidence.build_export"), "ms"),
        "evidence.build_export.entries": (
            full.count_median("evidence.build_export", "entries"), "count"),
        "evidence.audit_corpus.ms": (full.median("evidence.audit_corpus"), "ms"),
        "evidence.flag_consent_violations.ms": (
            full.median("evidence.flag_consent_violations"), "ms"),
        "evidence.check_export_conformance.ms": (
            full.median("evidence.check_export_conformance"), "ms"),
        "trace.overhead": (sum(t for _, t, _ in full_samples)
                           / sum(t for _, t, _ in plain_samples), "ratio"),
    }
    absent = sorted(full.absent)
    print(f"{workload.name} seed={seed} traced: {commands} commands in {cycles} cycles "
          f"per phase; spans recorded: {len(full.names)} full, {len(small.names)} quarter")
    print(f"  absent (renamed or removed, reported as 0): {', '.join(absent) or 'none'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:12.4f} {unit}")
    return {"correct": all(r.failed == 0 for r in runners),
            "attempted": sum(r.attempted for r in runners),
            "failed": sum(r.failed for r in runners),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("audit", "govern", "release"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="ledger size relative to the workload's default (self-check)")
    args = parser.parse_args(argv)
    if not (SRC / "pledger" / "cli.py").is_file():
        print(f"no pledger sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = traced if args.trace else measure
        result = run(workload, args.seed, args.seconds, args.scale, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
