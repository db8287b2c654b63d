"""Tiny-size smoke run of the benchmark, so it cannot rot.

Runs `perfbench/run.py` traced at 5% scale on all three workloads: the
read-heavy audit, the query- and governance-heavy govern, and the write path
of release. Every command's output is checked there against the generator's
independently computed answers; this test only requires that all of them
matched, and that every span the tracer targets was found.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["audit", "govern", "release"])
def test_bench_smoke(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "1", "--scale", "0.05"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    # A traced entry point that was renamed or removed would read 0 silently.
    assert "absent (renamed or removed, reported as 0): none\n" in proc.stdout, \
        proc.stdout[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0
    assert result["attempted"] > 0
