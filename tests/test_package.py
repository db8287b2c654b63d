"""The package namespace and the real process entry: what `import pledger`
and one `python -m pledger` command load."""

from __future__ import annotations

import ast
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import pledger
from pledger.cli import main
from pledger.fixtures import (
    ARTIFACT_ID,
    BOUNDARY,
    CAPABILITY,
    POLICY_DOC,
    STEWARD_ORG,
    VOUCHER_ID,
    WINDOW,
    sample_contribution_doc,
)

SRC = Path(__file__).resolve().parents[1] / "src"
UNUSED_BY_VERIFY = ("pledger.query", "pledger.harness", "pledger.governance",
                    "pledger.evidence", "pledger.fixtures")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=child_env(), capture_output=True,
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
    assert "pledger.indented" not in modules  # only --format doc and export render it


GATE_CHECK = ["gate", "check", "--capability", CAPABILITY, "--boundary", BOUNDARY,
              "--version", "v3", "--now", "2025-06-27T00:00:00Z"]

# Records are built by pledger.model itself, so no command loads these.
RECORD_MACHINERY = {"dataclasses", "inspect"}

# (argv before the ledger path, modules it loads, modules it must not load on
# top of what a bare interpreter loads); `{dir}` is the directory that holds
# entry.json and policy.json.
IMPORT_CASES = {
    "gate check": (GATE_CHECK, {"pledger.governance"},
                   {"pledger.integrity", "pledger.harness", "hashlib", "hmac", "csv", "copy"}),
    "credit report": (["credit", "report", "--beneficiary", STEWARD_ORG,
                       "--window-start", WINDOW[0], "--window-end", WINDOW[1]],
                      {"pledger.governance"},
                      {"pledger.integrity", "pledger.harness", "hashlib", "hmac", "csv"}),
    "query doc": (["query", "MATCH (t:Test) RETURN t.id;", "--format", "doc"],
                  {"pledger.query"},
                  {"pledger.governance", "pledger.harness", "pledger.integrity", "hashlib",
                   "fractions", "decimal", "csv", "copy"}),
    "audit linkage": (["audit", "linkage"], {"fractions"}, {"pledger.integrity", "hashlib"}),
    "export": (["export", "--release", f"{ARTIFACT_ID}@v3", "--now", "2025-06-27T00:00:00Z"],
               {"pledger.evidence"}, {"pledger.integrity", "hashlib"}),
    "verify": (["verify"], {"pledger.integrity", "hashlib"}, {"hmac", "base64"}),
    "verify keyed": (["verify", "--hmac-key", "k1=secret"],
                     {"pledger.integrity", "hashlib", "hmac", "base64"}, set()),
    "append": (["append", "{dir}/entry.json"], {"pledger.integrity", "hashlib"}, {"csv"}),
    "credit accrue": (["credit", "accrue", "--policy", "{dir}/policy.json",
                       "--window-start", WINDOW[0], "--window-end", WINDOW[1]],
                      {"pledger.governance", "pledger.harness"}, {"fractions", "csv"}),
    "voucher transition": (["voucher", "transition", "--voucher", VOUCHER_ID, "--to", "revoked",
                            "--created-at", "2025-06-21T00:00:00Z"],
                           {"pledger.governance", "pledger.integrity"},
                           {"copy", "pledger.harness", "csv"}),
}

# Cases that run on the ledger stopped once the pause voucher is active.
ON_PAUSED = {"voucher transition"}


@pytest.fixture(scope="module")
def bare_modules() -> set[str]:
    proc = run_python("-X", "importtime", "-c", "pass")
    assert proc.returncode == 0, proc.stderr
    return imported_modules(proc.stderr)


@pytest.mark.parametrize("case", sorted(IMPORT_CASES))
def test_each_command_loads_only_what_it_runs(lifecycle, mid_lifecycle, tmp_path, bare_modules,
                                             case):
    argv, loads, loads_none_of = IMPORT_CASES[case]
    (tmp_path / "entry.json").write_text(json.dumps(sample_contribution_doc()), "utf-8")
    (tmp_path / "policy.json").write_text(json.dumps(POLICY_DOC), "utf-8")
    ledger = tmp_path / "work.pledger"  # a copy, as some cases write
    if argv[0] != "append":
        shutil.copy((mid_lifecycle if case in ON_PAUSED else lifecycle)[0], ledger)
    argv = [arg.format(dir=tmp_path) for arg in argv]
    proc = run_python("-X", "importtime", "-m", "pledger", *argv, "--ledger", str(ledger))
    assert proc.returncode == 0, proc.stderr[-2000:]
    modules = imported_modules(proc.stderr)
    assert loads <= modules
    assert not (modules - bare_modules) & (loads_none_of | RECORD_MACHINERY)


# Run in a child: one command, then the codec classes of every loaded
# `pledger.*` module (those with a field table) whose `to_doc` has compiled.
TO_DOC_PROBE = """
import sys
from pledger import cli
code = cli.main(sys.argv[1:])
compiled = sorted(f"{cls.__module__}.{cls.__name__}"
                  for name, module in list(sys.modules.items()) if name.startswith("pledger.")
                  for cls in vars(module).values()
                  if isinstance(cls, type) and cls.__module__ == name and getattr(cls, "FIELDS", ())
                  and cls.to_doc.__code__.co_filename.startswith("<codec "))
print(f"exit {code}, to_doc compiled for {compiled}", file=sys.stderr)
"""


@pytest.mark.parametrize("fmt", ["text", "doc"])
def test_a_gate_check_compiles_no_to_doc(lifecycle, fmt):
    # Only the decision's own two records, never an entry block's.
    proc = run_python("-c", TO_DOC_PROBE, *GATE_CHECK, "--ledger", str(lifecycle[0]),
                      "--format", fmt)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stderr.splitlines()[-1] == (
        "exit 0, to_doc compiled for "
        "['pledger.governance.GateDecision', 'pledger.governance.GateReason']")


# The to_doc probe, with every call of `canonicalize` and `serialize_entry`
# during the command counted.
RENDER_PROBE = """
import sys
from pledger import integrity, model, store
calls = []

def counted(name, function):
    def call(*args, **kwargs):
        calls.append(name)
        return function(*args, **kwargs)
    return call

integrity.canonicalize = counted("canonicalize", integrity.canonicalize)
model.serialize_entry = store.serialize_entry = counted("serialize_entry", model.serialize_entry)
""" + TO_DOC_PROBE + """
print(f"rendered {calls}", file=sys.stderr)
"""


def test_verify_renders_no_entry_of_an_intact_ledger(lifecycle):
    # Each hash is checked over the stored line: only the integrity block
    # and the links, which sit at the cut and the splice, are rendered.
    proc = run_python("-c", RENDER_PROBE, "verify", "--ledger", str(lifecycle[0]))
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stderr.splitlines()[-2:] == [
        "exit 0, to_doc compiled for ['pledger.model.IntegrityBlock', 'pledger.model.LinkSet']",
        "rendered []"]


def test_verify_with_a_key_renders_no_entry_of_an_intact_signed_ledger(lifecycle, tmp_path):
    # Each MAC is checked over the pre-image its hash was checked over, read
    # from the stored line: checking the signatures renders nothing either.
    from test_verify_bytes import _signed_copy

    signed = tmp_path / "signed.pledger"
    _signed_copy(lifecycle[0], signed)
    proc = run_python("-c", RENDER_PROBE, "verify", "--ledger", str(signed),
                      "--hmac-key", "k1=sekrit")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == ("chain valid, 15 entries\n"
                           "signatures: 15 valid, 0 invalid, 0 unverifiable, 0 absent\n")
    assert proc.stderr.splitlines()[-2:] == [
        "exit 0, to_doc compiled for ['pledger.model.ActorRef', 'pledger.model.IntegrityBlock',"
        " 'pledger.model.LinkSet', 'pledger.model.SignatureRecord']",
        "rendered []"]


def test_the_render_probe_sees_a_non_canonical_line(lifecycle, tmp_path):
    # Line 5 re-spaced: the one line whose bytes fail is rendered, once.
    lines = lifecycle[0].read_text("utf-8").splitlines()
    lines[4] = json.dumps(json.loads(lines[4]))
    respaced = tmp_path / "respaced.pledger"
    respaced.write_text("".join(line + "\n" for line in lines), "utf-8")
    proc = run_python("-c", RENDER_PROBE, "verify", "--ledger", str(respaced))
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stderr.splitlines()[-2].startswith("exit 4, ")
    assert proc.stderr.splitlines()[-1] == "rendered ['canonicalize']"


def test_the_to_doc_probe_sees_what_an_export_compiles(lifecycle):
    proc = run_python("-c", TO_DOC_PROBE, "export", "--release", f"{ARTIFACT_ID}@v3",
                      "--now", "2025-06-27T00:00:00Z", "--ledger", str(lifecycle[0]))
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "'pledger.model.ActorRef'" in proc.stderr.splitlines()[-1]


def test_no_module_of_the_package_loads_the_record_machinery(bare_modules):
    package = ["pledger.cli", "pledger.governance", "pledger.query", "pledger.evidence",
               "pledger.harness", "pledger.integrity", "pledger.fixtures"]
    proc = run_python("-X", "importtime", "-c", f"import {', '.join(package)}")
    assert proc.returncode == 0, proc.stderr[-2000:]
    modules = imported_modules(proc.stderr)
    assert set(package) <= modules
    assert not (modules - bare_modules) & RECORD_MACHINERY


# Run in a child through one of the two launchers: `module` runs
# `python -m pledger`'s code, `script` calls the console script's target as
# the wrapper pip writes does. Count the cyclic collections that start while
# the code of pledger/__main__.py is on the stack (runpy executes that code
# without adding the module to sys.modules, so the hook looks for its frame),
# and check that an `atexit` handler registered before the command still runs.
GC_PROBE = """
import atexit, gc, importlib.util, runpy, sys
main_file = importlib.util.find_spec("pledger.__main__").origin
collections = 0

def count(phase, info):
    global collections
    if phase != "start":
        return
    frame = sys._getframe()
    while frame is not None and frame.f_code.co_filename != main_file:
        frame = frame.f_back
    collections += frame is not None

gc.callbacks.append(count)
atexit.register(print, "atexit handler ran", file=sys.stderr)
launcher = sys.argv[1]
sys.argv = ["pledger", *sys.argv[2:]]
try:
    if launcher == "module":
        runpy.run_module("pledger", run_name="__main__")
    else:
        from pledger.__main__ import run
        sys.exit(run())
except SystemExit as exc:
    code = exc.code
print(f"exit {code}, {collections} collections, frozen {gc.get_freeze_count() > 0}",
      file=sys.stderr)
"""


@pytest.mark.parametrize("launcher", ["module", "script"])
@pytest.mark.parametrize("argv", [["verify"], GATE_CHECK], ids=["verify", "gate check"])
def test_process_entry_pauses_the_collector_and_freezes_at_exit(
        lifecycle, capsys, argv, launcher):
    argv = [*argv, "--ledger", str(lifecycle[0])]
    assert main(argv) == 0
    in_process = capsys.readouterr().out

    proc = run_python("-c", GC_PROBE, launcher, *argv)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == in_process
    assert proc.stderr.splitlines()[-2:] == ["exit 0, 0 collections, frozen True",
                                             "atexit handler ran"]


def test_console_script_names_the_process_entry():
    # A text check: tomllib is 3.11+ and the package supports 3.10.
    pyproject = (SRC.parent / "pyproject.toml").read_text("utf-8")
    scripts = pyproject.split("[project.scripts]", 1)[1].split("[", 1)[0]
    assert scripts.split() == ["pledger", "=", '"pledger.__main__:run"']


def test_broken_pipe_exits_120_without_a_traceback(lifecycle):
    # The reader of stdout is gone before the command writes; the export is
    # larger than stdout's buffer, so the write itself fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pledger", "export", "--release", f"{ARTIFACT_ID}@v3",
             "--now", "2025-06-27T00:00:00Z", "--ledger", str(lifecycle[0])],
            env=child_env(), stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (120, "")


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


# A public method that no package code names yet: consent withdrawal waits
# for a command (ROADMAP item 12). Trace, triage and replay (items 12 and 8)
# wait too, but `pledger/__init__.py` exports, and so names, them.
AWAITING_A_COMMAND = {"withdraw_consent"}


def test_every_public_definition_is_named_elsewhere_in_the_package():
    # A public function, class or method whose name no other place in the
    # package's text holds is code that nothing runs.
    sources = [path.read_text("utf-8") for path in sorted((SRC / "pledger").glob("*.py"))]
    definitions: Counter[str] = Counter()
    for source in sources:
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions[node.name] += 1
            if isinstance(node, ast.ClassDef):
                definitions.update(item.name for item in node.body
                                   if isinstance(item, ast.FunctionDef))
    words = Counter(re.findall(r"\w+", "\n".join(sources)))
    unused = sorted(name for name, count in definitions.items()
                    if not name.startswith("_") and name not in AWAITING_A_COMMAND
                    and words[name] <= count)
    assert unused == []
    assert all(words[name] <= definitions[name] for name in AWAITING_A_COMMAND)  # still unnamed
