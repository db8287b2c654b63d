"""The package namespace and the real process entry: what `import pledger`
and one `python -m pledger` command load."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pledger
from pledger.cli import main
from pledger.fixtures import STEWARD_ORG, WINDOW

SRC = Path(__file__).resolve().parents[1] / "src"
UNUSED_BY_VERIFY = ("pledger.query", "pledger.harness", "pledger.governance",
                    "pledger.evidence", "pledger.fixtures")


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def imported_modules(importtime_log: str) -> set[str]:
    # "import time: <self us> | <cumulative us> | <indented module name>"
    return {line.rsplit("|", 1)[1].strip() for line in importtime_log.splitlines()
            if line.startswith("import time:")}


def test_process_entry_matches_in_process_and_loads_only_what_verify_uses(
        lifecycle, capsys):
    path = str(lifecycle[0])
    argv = ["verify", "--ledger", path, "--format", "doc"]
    assert main(argv) == 0
    in_process = capsys.readouterr().out

    proc = run_python("-X", "importtime", "-m", "pledger", *argv)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == in_process
    modules = imported_modules(proc.stderr)
    assert {"pledger.cli", "pledger.store", "pledger.integrity"} <= modules
    assert not modules & set(UNUSED_BY_VERIFY)


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_credit_report_does_not_load_the_query_module(lifecycle, capsys, fmt):
    argv = ["credit", "report", "--ledger", str(lifecycle[0]), "--format", fmt,
            "--beneficiary", STEWARD_ORG,
            "--window-start", WINDOW[0], "--window-end", WINDOW[1]]
    assert main(argv) == 0
    in_process = capsys.readouterr().out
    assert "10" in in_process

    proc = run_python("-X", "importtime", "-m", "pledger", *argv)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == in_process.replace("\r\n", "\n")  # text mode reads csv's \r\n as \n
    modules = imported_modules(proc.stderr)
    assert "pledger.governance" in modules
    assert "pledger.query" not in modules


def test_import_pledger_loads_no_submodule():
    proc = run_python("-c", "import sys, pledger; "
                            "print(sorted(m for m in sys.modules if m.startswith('pledger.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_every_public_name_resolves_to_its_module():
    assert len(set(pledger.__all__)) == len(pledger.__all__)
    for name in pledger.__all__:
        module = importlib.import_module(f"pledger.{pledger._EXPORTS[name]}")
        assert getattr(pledger, name) is getattr(module, name), name
    assert set(pledger.__all__) <= set(dir(pledger))

    namespace: dict = {}
    exec("from pledger import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(pledger.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pledger.no_such_name  # noqa: B018 - the read is the test
    assert not hasattr(pledger, "gate_checks")
