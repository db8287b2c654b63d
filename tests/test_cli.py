"""Command-line behavior: subcommands, formats, and exit codes."""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import json
import os
import shutil
from datetime import timedelta

import pytest
from conftest import make_artifact, make_change, make_contribution, make_run, make_test

from pledger import store
from pledger.canonical import canonical_json
from pledger.cli import _UsageError, build_parser, main
from pledger.errors import CorruptLine, StorageFailure
from pledger.evidence import build_export
from pledger.fixtures import (
    ARTIFACT_ID,
    BOUNDARY,
    CAPABILITY,
    CONTRIBUTION_ID,
    POLICY_DOC,
    STEWARD_ORG,
    TEST_ID,
    VOUCHER_ID,
    WINDOW,
    sample_contribution_doc,
)
from pledger.graph import Snapshot
from pledger.harness import run_suite
from pledger.integrity import hmac_signer, seal
from pledger.model import (
    ActorRef,
    ConsentBlock,
    EntryEnvelope,
    EntryType,
    MeasurementProcedure,
    VoucherCondition,
    VoucherPayload,
    format_timestamp,
    parse_entry,
    replace,
    serialize_entry,
)
from pledger.store import LedgerFile, read_entries

CREDIT_ID = ("pl:credit:regressiondetected:"
             "pl-run-accessibility-v2-001:pl-org-wedesign-steward")


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def writable(lifecycle, tmp_path):
    source, _ids, _entries = lifecycle
    path = tmp_path / "work.pledger"
    shutil.copy(source, path)
    return path


@pytest.fixture()
def writable_mid(mid_lifecycle, tmp_path):
    source, _ids, _entries = mid_lifecycle
    path = tmp_path / "mid.pledger"
    shutil.copy(source, path)
    return path


# ---------------------------------------------------------------------------
# verify


def test_verify_reports_valid_chain(lifecycle, capsys):
    path, _ids, _entries = lifecycle
    code, out, _err = run_cli(capsys, "verify", "--ledger", str(path))
    assert code == 0
    assert out.strip() == "chain valid, 15 entries"


def test_verify_doc_format(lifecycle, capsys):
    path, _ids, _entries = lifecycle
    code, out, _err = run_cli(capsys, "verify", "--ledger", str(path),
                              "--format", "doc")
    assert code == 0
    assert json.loads(out) == {"chain": {
        "valid": True,
        "entryCount": 15,
        "firstBrokenIndex": None,
        "failureKind": None,
    }}


def test_verify_csv_format_leaves_the_unset_fields_empty(lifecycle, capsys):
    path, _ids, _entries = lifecycle
    code, out, _err = run_cli(capsys, "verify", "--ledger", str(path), "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["key,value", "chain.valid,true", "chain.entryCount,15",
                                "chain.firstBrokenIndex,", "chain.failureKind,"]


def test_verify_detects_tampering(writable, capsys):
    lines = writable.read_text("utf-8").splitlines()
    doc = json.loads(lines[2])
    doc["createdAt"] = "2025-05-12T10:00:01Z"
    lines[2] = json.dumps(doc, separators=(",", ":"))
    writable.write_text("\n".join(lines) + "\n", "utf-8")

    code, out, _err = run_cli(capsys, "verify", "--ledger", str(writable))
    assert code == 4
    assert "chain broken at index 2" in out


@pytest.mark.parametrize("runner_kind,field,value", [
    ("threshold", "criteria", ["glare-free", "legible"]),
    ("threshold", "minRaters", 3),
    ("rubric", "metricName", "score"),
    ("rubric", "bound", 0.5),
])
def test_verify_covers_measurement_fields_of_every_runner_kind(
        tmp_path, capsys, runner_kind, field, value):
    # A field that belongs to another runner kind is still inside the hash:
    # adding one to a stored Test line breaks the chain.
    path = tmp_path / "tests.pledger"
    rubric = MeasurementProcedure(runner_kind="rubric", criteria=["ramps"], scale_max=5,
                                  aggregation="mean", pass_mean=4, min_raters=3)
    with LedgerFile(path) as ledger:
        ledger.append(make_test(1, measurement=rubric if runner_kind == "rubric" else None))
        ledger.append(make_test(2))
    lines = path.read_text("utf-8").splitlines()
    doc = json.loads(lines[0])
    assert doc["test"]["measurement"]["runnerKind"] == runner_kind
    doc["test"]["measurement"][field] = value
    lines[0] = canonical_json(doc)
    path.write_text("\n".join(lines) + "\n", "utf-8")

    code, out, _err = run_cli(capsys, "verify", "--ledger", str(path), "--format", "doc")
    assert code == 4
    assert json.loads(out)["chain"] == {"valid": False, "entryCount": 2,
                                        "firstBrokenIndex": 0, "failureKind": "hashMismatch"}


@pytest.mark.parametrize("value", ["ab", 5, {"k": 1}])
def test_verify_hashes_a_malformed_scope_constraint_as_stored(tmp_path, capsys, value):
    # A voucher condition whose scopeConstraints is not a list, sealed over the
    # stored object, keeps the chain valid; with the old hash left in place it
    # is a hash mismatch (exit 4), never a crash.
    path = tmp_path / "vouchers.pledger"
    steward = ActorRef(role="communitySteward", steward_org="pl:org:gen-steward")
    with LedgerFile(path) as ledger:
        test = ledger.append(make_test(1))
        ledger.append(EntryEnvelope(
            id="pl:voucher:gen:pause:001", entry_type=EntryType.VOUCHER,
            created_at="2025-06-01T00:00:00Z", actor=steward,
            payload=VoucherPayload(
                capability="image-generation", boundary="consultation_workflow",
                action="pause", steward=steward, status="issued",
                conditions=[VoucherCondition(required_test_id=test.id,
                                             scope_constraints=["x"])])))
    code, out, _err = run_cli(capsys, "verify", "--ledger", str(path))
    assert (code, out) == (0, "chain valid, 2 entries\n")

    # The lines below are written by hand, with no head file to match.
    store.head_path(path).unlink()
    lines = path.read_text("utf-8").splitlines()
    doc = json.loads(lines[1])
    doc["voucher"]["conditions"][0]["scopeConstraints"] = value
    stale = canonical_json(doc)
    integrity = doc.pop("integrity")
    pre_image = canonical_json({**doc, "prev": integrity["prevHash"]}).encode("utf-8")
    integrity["hash"] = "sha256:" + hashlib.sha256(pre_image).hexdigest()
    resealed = canonical_json({**doc, "integrity": integrity})
    for line, expected in [(resealed, (0, True, None, None)),
                           (stale, (4, False, 1, "hashMismatch"))]:
        path.write_text(f"{lines[0]}\n{line}\n", "utf-8")
        code, out, _err = run_cli(capsys, "verify", "--ledger", str(path), "--format", "doc")
        chain = json.loads(out)["chain"]
        assert (code, chain["valid"], chain["firstBrokenIndex"], chain["failureKind"]) \
            == expected


def test_verify_reports_torn_tail(writable, capsys):
    data = writable.read_bytes()
    writable.write_bytes(data[:-10])
    code, _out, err = run_cli(capsys, "verify", "--ledger", str(writable))
    assert code == 4
    assert "verification failure" in err


def _repeat_line_3_at_the_head(lines: list[str]) -> list[str]:
    # entry 3 re-sealed onto the head: every link holds, one id repeats
    entry = replace(parse_entry(lines[2]), integrity=None)
    head = json.loads(lines[-1])["integrity"]["hash"]
    return [*lines, serialize_entry(seal(entry, prev_hash=head))]


def _swap_lines_6_and_7(lines: list[str]) -> list[str]:
    return [*lines[:5], lines[6], lines[5], *lines[7:]]


def _drop_line_4_integrity(lines: list[str]) -> list[str]:
    doc = json.loads(lines[3])
    del doc["integrity"]
    return [*lines[:3], canonical_json(doc), *lines[4:]]


def _backdate_line_6(lines: list[str]) -> list[str]:
    # line 6 resealed 25 hours behind line 5, and every line after it
    # resealed onto it: each hash and link holds, the time order does not
    entries = [parse_entry(line) for line in lines]
    when = entries[4].created_at_datetime() - timedelta(hours=25)
    out, prev = lines[:5], entries[4].integrity.hash
    for index, entry in enumerate(entries[5:], 5):
        changes = {"created_at": format_timestamp(when)} if index == 5 else {}
        sealed = seal(replace(entry, integrity=None, **changes), prev_hash=prev)
        out.append(serialize_entry(sealed))
        prev = sealed.integrity.hash
    return out


# Each broken chain: how to make it from the lifecycle ledger, verify's report,
# and the line every other command refuses, with its reason.
BROKEN_CHAINS = {
    "repeated-id": (_repeat_line_3_at_the_head, 15, "duplicateId", 16, "16: duplicateId"),
    "swapped-lines": (_swap_lines_6_and_7, 5, "prevHashMismatch", 15, "6: prevHashMismatch"),
    "no-integrity": (_drop_line_4_integrity, 3, "hashMismatch", 15, "4: hashMismatch"),
    "backdated": (_backdate_line_6, 5, "orderViolation", 15, "6: orderViolation"),
}


def _break_chain(path, tamper) -> None:
    lines = path.read_text("utf-8").splitlines()
    path.write_text("\n".join(tamper(lines)) + "\n", "utf-8")


def _assert_verify_reports(capsys, path, index, kind, count) -> None:
    code, out, err = run_cli(capsys, "verify", "--ledger", str(path))
    assert (code, out, err) == (
        4, f"chain broken at index {index}: {kind} ({count} entries checked)\n", "")
    code, out, err = run_cli(capsys, "verify", "--ledger", str(path), "--format", "doc")
    chain = {"valid": False, "entryCount": count, "firstBrokenIndex": index,
             "failureKind": kind}
    assert (code, out, err) == (
        4, json.dumps({"chain": chain}, indent=2, sort_keys=True) + "\n", "")


@pytest.mark.parametrize("tamper,index,kind,count,_refusal", BROKEN_CHAINS.values(),
                         ids=BROKEN_CHAINS.keys())
def test_verify_reports_a_repeated_id_and_swapped_lines(lifecycle, writable, capsys, tamper,
                                                        index, kind, count, _refusal):
    # The same report without a `.head` and with the lifecycle ledger's own:
    # a chain failure comes before the head's index (the entry count).
    _break_chain(writable, tamper)
    _assert_verify_reports(capsys, writable, index, kind, count)
    shutil.copy(store.head_path(lifecycle[0]), store.head_path(writable))
    _assert_verify_reports(capsys, writable, index, kind, count)


@pytest.mark.parametrize("broken", BROKEN_CHAINS.keys())
def test_readers_refuse_a_broken_chain_where_verify_reports_it(writable, broken):
    # One name for one fault: a reader refuses the line after verify's first
    # broken index, for the reason verify gives.
    _break_chain(writable, BROKEN_CHAINS[broken][0])
    verdict = store.verify_file(writable)[0]
    with pytest.raises(CorruptLine) as info:
        read_entries(writable)
    assert (info.value.line_number, info.value.reason) == (
        verdict.first_broken_index + 1, verdict.failure_kind)


def _drop_last_three(lines: list[str]) -> list[str]:
    return lines[:-3]


def _respace_line_5(lines: list[str]) -> list[str]:
    return [*lines[:4], json.dumps(json.loads(lines[4])), *lines[5:]]


def _prefix_line_5_with_an_id(lines: list[str]) -> list[str]:
    return [*lines[:4], '{"id":"pl:contribution:forged:001",' + lines[4][1:], *lines[5:]]


def _note_in_line_4_integrity(lines: list[str]) -> list[str]:
    doc = json.loads(lines[3])
    doc["integrity"]["note"] = "rewritten"
    return [*lines[:3], canonical_json(doc), *lines[4:]]


def _empty_the_file(lines: list[str]) -> list[str]:
    return []


# Tampering that leaves the decoded chain intact, and verify's report on it.
KEPT_CHAINS = {
    "drop-last-three": (_drop_last_three, 12, "headMismatch", 12),
    "respace-line-5": (_respace_line_5, 4, "nonCanonicalLine", 15),
    "id-prefix-line-5": (_prefix_line_5_with_an_id, 4, "nonCanonicalLine", 15),
    "note-in-line-4-integrity": (_note_in_line_4_integrity, 3, "nonCanonicalLine", 15),
    "emptied": (_empty_the_file, 0, "headMismatch", 0),
}


@pytest.mark.parametrize("tamper,index,kind,count", KEPT_CHAINS.values(),
                         ids=KEPT_CHAINS.keys())
def test_verify_detects_tampering_that_keeps_the_decoded_chain(
        lifecycle, writable, capsys, tamper, index, kind, count):
    # Each copy keeps the lifecycle ledger's own `.head`.
    shutil.copy(store.head_path(lifecycle[0]), store.head_path(writable))
    lines = tamper(writable.read_text("utf-8").splitlines())
    writable.write_text("".join(line + "\n" for line in lines), "utf-8")
    _assert_verify_reports(capsys, writable, index, kind, count)
    if kind == "headMismatch":  # committed lines are lost: the open refuses the file
        with pytest.raises(CorruptLine) as info:
            read_entries(writable)
        assert str(info.value) == f"corrupt ledger line {index + 1}: headMismatch"
        return
    verdict = store.verify_file(writable)[0]
    assert (verdict.valid, verdict.first_broken_index, verdict.failure_kind,
            verdict.entry_count) == (False, index, kind, count)


def test_ledger_path_usage_errors(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("PLEDGER_LEDGER", raising=False)
    code, _out, err = run_cli(capsys, "verify")
    assert code == 64
    assert "PLEDGER_LEDGER" in err

    code, _out, err = run_cli(capsys, "verify", "--ledger",
                              str(tmp_path / "absent.pledger"))
    assert code == 64
    assert "no ledger at" in err


# Every command that reads a ledger, with the arguments it needs besides --ledger.
LEDGER_READERS = {
    "verify": ["verify"],
    "query": ["query", "MATCH (t:Test) RETURN t.id;"],
    "gate-check": ["gate", "check", "--capability", CAPABILITY, "--boundary", BOUNDARY,
                   "--version", "v3", "--now", "2025-06-27T00:00:00Z"],
    "credit-report": ["credit", "report", "--beneficiary", STEWARD_ORG,
                      "--window-start", "2025-05-01T00:00:00Z",
                      "--window-end", "2025-12-31T00:00:00Z"],
    "audit-evidence": ["audit", "evidence"],
    "audit-linkage": ["audit", "linkage"],
    "audit-consent": ["audit", "consent"],
    "export": ["export", "--release", f"{ARTIFACT_ID}@v3"],
}


@pytest.mark.parametrize("argv", LEDGER_READERS.values(), ids=LEDGER_READERS.keys())
def test_every_ledger_reader_answers_read_errors_alike(lifecycle, writable, tmp_path, capsys,
                                                      argv):
    code, _out, _err = run_cli(capsys, *argv, "--ledger", str(writable))
    assert code == 0
    writable.write_bytes(writable.read_bytes()[:-10])  # torn final line
    code, out, err = run_cli(capsys, *argv, "--ledger", str(writable))
    assert (code, out) == (4, "")
    assert err.startswith("verification failure: corrupt ledger line 15: ")

    code, out, err = run_cli(capsys, *argv, "--ledger", str(tmp_path / "absent.pledger"))
    assert (code, out) == (64, "")
    assert err == f"usage error: no ledger at {tmp_path / 'absent.pledger'}\n"

    # A repeated id, a broken prevHash link or a missing integrity block:
    # verify reports the chain, every other reader refuses the file at the line.
    for name, (tamper, index, kind, count, refusal) in BROKEN_CHAINS.items():
        broken = tmp_path / f"{name}.pledger"
        shutil.copy(lifecycle[0], broken)
        _break_chain(broken, tamper)
        code, out, err = run_cli(capsys, *argv, "--ledger", str(broken))
        if argv == ["verify"]:
            assert (code, out, err) == (
                4, f"chain broken at index {index}: {kind} ({count} entries checked)\n", "")
        else:
            assert (code, out, err) == (
                4, "", f"verification failure: corrupt ledger line {refusal}\n")


@pytest.mark.parametrize("argv", LEDGER_READERS.values(), ids=LEDGER_READERS.keys())
def test_every_ledger_reader_exits_4_on_a_ledger_it_cannot_read(writable, tmp_path, capsys,
                                                                argv):
    # A ledger path, or its `.head`, that exists but is a directory is a
    # storage failure (exit 4), not a traceback; nothing on disk changes.
    (tmp_path / "adir.pledger").mkdir()
    store.head_path(writable).mkdir()
    before = _tree(tmp_path)
    for ledger in (tmp_path / "adir.pledger", writable):
        code, out, err = run_cli(capsys, *argv, "--ledger", str(ledger))
        assert (code, out) == (4, "")
        assert err.startswith(f"verification failure: cannot read {ledger}: "), err
        assert "Is a directory" in err
    assert _tree(tmp_path) == before
    for read in (read_entries, store.verify_file):
        with pytest.raises(StorageFailure, match="cannot read"):
            read(tmp_path / "adir.pledger")


# Every command that appends, with the arguments it needs besides --ledger.
LEDGER_WRITERS = {
    "append": ["append", "{entry}"],
    "redact": ["redact", "--target", CONTRIBUTION_ID, "--reason", "safetyRedaction",
               "--role", "auditor", "--pseudonym", "AUD1"],
}


@pytest.mark.parametrize("argv", LEDGER_WRITERS.values(), ids=LEDGER_WRITERS.keys())
@pytest.mark.parametrize("broken", BROKEN_CHAINS.keys())
def test_every_ledger_writer_refuses_a_broken_chain(writable, tmp_path, capsys, argv,
                                                    broken):
    tamper, _index, _kind, _count, refusal = BROKEN_CHAINS[broken]
    _break_chain(writable, tamper)
    before = writable.read_bytes()
    entry = tmp_path / "entry.json"
    entry.write_text(json.dumps({**sample_contribution_doc(),
                                 "id": "pl:contrib:new:001"}), "utf-8")
    argv = [arg.format(entry=entry) for arg in argv]
    code, out, err = run_cli(capsys, *argv, "--ledger", str(writable))
    assert (code, out, err) == (
        4, "", f"verification failure: corrupt ledger line {refusal}\n")
    assert writable.read_bytes() == before


def _tree(root) -> dict[str, bytes | None]:
    """Every path under `root` with a file's bytes (None for anything else)."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() and not p.is_symlink()
            else None for p in sorted(root.rglob("*"))}


# Ledger paths a writer cannot open or create, with the refusal's opening
# words: a path through a regular file, a directory, and a path whose parent
# is a dangling symbolic link (the first append's mkdir fails). `redact`
# needs a ledger that exists, so only a directory gets past its usage check.
UNWRITABLE_PATHS = {
    "append-through-a-file": ("append", "afile/new.pledger", "cannot open"),
    "append-to-a-directory": ("append", "adir.pledger", "cannot open"),
    "append-under-a-dangling-link": ("append", "dangling/new.pledger", "cannot make"),
    "redact-a-directory": ("redact", "adir.pledger", "cannot open"),
}


@pytest.mark.parametrize("case", UNWRITABLE_PATHS.keys())
def test_a_writer_that_cannot_open_its_ledger_exits_4_and_changes_nothing(
        tmp_path, capsys, case):
    # An OSError at the open or at the first append's create is a storage
    # failure (exit 4), not a traceback.
    writer, ledger, refusal = UNWRITABLE_PATHS[case]
    (tmp_path / "afile").write_bytes(b"a regular file\n")
    (tmp_path / "adir.pledger").mkdir()
    (tmp_path / "dangling").symlink_to(tmp_path / "nowhere")
    entry = tmp_path / "entry.json"
    entry.write_text(json.dumps(sample_contribution_doc()), "utf-8")
    before = _tree(tmp_path)
    argv = [arg.format(entry=entry) for arg in LEDGER_WRITERS[writer]]
    code, out, err = run_cli(capsys, *argv, "--ledger", str(tmp_path / ledger))
    assert (code, out) == (4, "")
    assert err.startswith(f"verification failure: {refusal} "), err
    assert _tree(tmp_path) == before


# Every user-named file other than the ledger, in the command that reads or
# writes it, with the arguments it needs besides --ledger. `{bad}` stands for
# the file; `harness run` reads it as the one result of its bundle.
USER_FILES = {
    "append": (["append", "{bad}"], "read"),
    "voucher-issue": (["voucher", "issue", "--payload", "{bad}"], "read"),
    "credit-accrue": (["credit", "accrue", "--policy", "{bad}",
                       "--window-start", WINDOW[0], "--window-end", WINDOW[1]], "read"),
    "harness-run": (["harness", "run", "--results", "{bundle}", "--artifact", ARTIFACT_ID,
                     "--version", "v3", "--checkpoint", "scheduledAudit"], "read"),
    "audit-evidence": (["audit", "evidence", "--cases", "{bad}"], "read"),
    "audit-conformance": (["audit", "conformance", "--export", "{bad}"], "read"),
    "query": (["query", "--file", "{bad}"], "read"),
    "export": (["export", "--release", f"{ARTIFACT_ID}@v3", "--out", "{bad}"], "write"),
}
# A directory fails every command; bytes that are not UTF-8 fail each reader,
# as a file or, where a document may come from stdin, as `-`.
BAD_USER_FILES = [(name, "a-directory") for name in USER_FILES] + [
    (name, "not-utf-8") for name, (_argv, verb) in USER_FILES.items() if verb == "read"] + [
    (name, "stdin-not-utf-8") for name in ("append", "voucher-issue", "credit-accrue",
                                           "audit-evidence", "audit-conformance", "query")]


@pytest.mark.parametrize("name,bad", BAD_USER_FILES,
                         ids=[f"{name}-{bad}" for name, bad in BAD_USER_FILES])
def test_a_user_named_file_that_cannot_be_read_or_written_is_a_usage_error(
        writable, tmp_path, monkeypatch, capsys, name, bad):
    argv, verb = USER_FILES[name]
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    path = bundle / "pl-test-accessibility-001.result"
    if bad == "a-directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"scores": [0.9], "note": "\xff"}')
    if bad == "stdin-not-utf-8":
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(path.read_bytes()),
                                                          encoding="utf-8"))
        path = "-"
    before = _tree(tmp_path)
    argv = [arg.format(bad=path, bundle=bundle) for arg in argv]
    code, out, err = run_cli(capsys, *argv, "--ledger", str(writable))
    assert (code, out) == (64, "")
    assert err.startswith(f"usage error: cannot {verb} {path}: "), err
    assert len(err.splitlines()) == 1
    assert _tree(tmp_path) == before


def _drop_the_last_line(data: bytes) -> bytes:
    return data[:data.rstrip(b"\n").rfind(b"\n") + 1]


def _strip_the_last_newline(data: bytes) -> bytes:
    return data[:-1]


# A committed last line lost, with the `.head` that names it kept, and what
# verify reports on it.
LOST_LINES = {
    "last-line-dropped": (_drop_the_last_line, "15: headMismatch",
                          "chain broken at index 14: headMismatch (14 entries checked)\n", ""),
    "newline-stripped": (_strip_the_last_newline, "15: no newline",
                         "", "verification failure: corrupt ledger line 15: no newline\n"),
}


@pytest.mark.parametrize("lose,refusal,verify_out,verify_err", LOST_LINES.values(),
                         ids=LOST_LINES.keys())
def test_a_lost_committed_line_is_refused_not_appended_over(lifecycle, writable, capsys, lose,
                                                           refusal, verify_out, verify_err):
    head = store.head_path(writable)
    shutil.copy(store.head_path(lifecycle[0]), head)
    writable.write_bytes(lose(writable.read_bytes()))
    before = writable.read_bytes(), head.read_bytes()
    assert run_cli(capsys, "verify", "--ledger", str(writable)) == (4, verify_out, verify_err)
    code, out, err = run_cli(capsys, *LEDGER_WRITERS["redact"], "--ledger", str(writable))
    assert (code, out, err) == (4, "", f"verification failure: corrupt ledger line {refusal}\n")
    assert (writable.read_bytes(), head.read_bytes()) == before


def test_an_unfinished_append_is_left_out_then_cut(lifecycle, writable, capsys):
    # The last line torn, with the `.head` naming the line before it: the
    # append crashed before its head update.
    lines = writable.read_bytes().splitlines(keepends=True)
    writable.write_bytes(b"".join(lines[:-1]) + lines[-1][:-10])
    head = json.loads(lines[-2])["integrity"]["hash"] + "\n"
    store.head_path(writable).write_text(head, "utf-8")
    code, out, err = run_cli(capsys, "verify", "--ledger", str(writable))
    assert (code, out, err) == (4, "", "verification failure: corrupt ledger line 15: no newline\n")
    gate = ["gate", "check", "--capability", CAPABILITY, "--boundary", BOUNDARY,
            "--version", "v3", "--now", "2025-06-27T00:00:00Z"]
    full = run_cli(capsys, *gate, "--ledger", str(lifecycle[0]))
    assert full[0] == 0 and run_cli(capsys, *gate, "--ledger", str(writable)) == full
    code, _out, _err = run_cli(capsys, *LEDGER_WRITERS["redact"], "--ledger", str(writable))
    assert code == 0
    assert writable.read_bytes().startswith(b"".join(lines[:-1]))
    assert run_cli(capsys, "verify", "--ledger", str(writable)) \
        == (0, "chain valid, 15 entries\n", "")


def test_a_refused_writer_open_leaves_the_file_untouched(lifecycle, writable, capsys):
    # The last line dropped with the `.head` that names it kept: the open is
    # refused, and neither the bytes nor the modification time change.
    shutil.copy(store.head_path(lifecycle[0]), store.head_path(writable))
    writable.write_bytes(_drop_the_last_line(writable.read_bytes()))
    before = writable.read_bytes()
    stamp = 1_577_836_800_000_000_000  # 2020-01-01T00:00:00Z
    os.utime(writable, ns=(stamp, stamp))
    code, _out, _err = run_cli(capsys, *LEDGER_WRITERS["redact"], "--ledger", str(writable))
    assert code == 4
    assert writable.stat().st_mtime_ns == stamp
    assert writable.read_bytes() == before


# The writers that need entries already in the ledger, with the arguments they
# need besides --ledger; `{dir}` is a directory that exists.
EXISTING_LEDGER_WRITERS = {
    "redact": LEDGER_WRITERS["redact"],
    "voucher-transition": ["voucher", "transition", "--voucher", VOUCHER_ID, "--to", "active"],
    "harness-run": ["harness", "run", "--results", "{dir}", "--artifact", ARTIFACT_ID,
                    "--version", "v3", "--checkpoint", "scheduledAudit"],
}


@pytest.mark.parametrize("argv", EXISTING_LEDGER_WRITERS.values(),
                         ids=EXISTING_LEDGER_WRITERS.keys())
def test_writers_that_need_entries_refuse_a_missing_ledger(tmp_path, capsys, argv):
    # Answered as a reader answers it, and nothing is created.
    (tmp_path / "results").mkdir()
    missing = tmp_path / "nodir" / "new.pledger"
    argv = [arg.format(dir=tmp_path / "results") for arg in argv]
    assert run_cli(capsys, *argv, "--ledger", str(missing)) \
        == (64, "", f"usage error: no ledger at {missing}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["results"]


def test_credit_accrue_may_start_a_ledger(tmp_path, capsys):
    # As append and voucher issue may, yet only by appending: an accrual that
    # mints nothing creates neither the ledger nor its directory.
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps(POLICY_DOC), "utf-8")
    new = tmp_path / "nodir" / "new.pledger"
    code, out, err = run_cli(capsys, "credit", "accrue", "--ledger", str(new),
                             "--policy", str(policy), "--window-start", "2025-05-01T00:00:00Z",
                             "--window-end", "2025-07-31T00:00:00Z")
    assert (code, out, err) == (0, "total units: 0\n", "")
    assert not new.parent.exists()


# Every writer command, with the arguments it needs besides --ledger; `{dir}`,
# `{entry}`, `{voucher}` and `{policy}` name inputs that each command accepts.
WRITERS = {
    **EXISTING_LEDGER_WRITERS,
    "append": ["append", "{entry}"],
    "voucher-issue": ["voucher", "issue", "--payload", "{voucher}"],
    "credit-accrue": ["credit", "accrue", "--policy", "{policy}",
                      "--window-start", "2025-05-01T00:00:00Z",
                      "--window-end", "2025-07-31T00:00:00Z"],
}


@pytest.mark.parametrize("name", WRITERS)
def test_a_malformed_hmac_key_is_refused_before_the_open(writable, tmp_path, capsys, name):
    # The signer is built before the writer opens: a missing ledger is not
    # started, and an existing one keeps its bytes, its modification time and
    # even an unfinished append, which a first append would cut.
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    docs = {
        "entry": {**sample_contribution_doc(), "id": "pl:contrib:new:001"},
        "voucher": {"capability": CAPABILITY, "boundary": BOUNDARY, "action": "pause",
                    "status": "issued",
                    "steward": {"role": "communitySteward", "stewardOrg": STEWARD_ORG}},
        "policy": POLICY_DOC,
    }
    paths = {doc: inputs / f"{doc}.json" for doc in docs}
    for doc, content in docs.items():
        paths[doc].write_text(json.dumps(content), "utf-8")
    argv = [arg.format(dir=inputs, **paths) for arg in WRITERS[name]] + ["--hmac-key", "bad"]
    refusal = "usage error: --hmac-key takes REF=SECRET\n"

    missing = tmp_path / "nodir" / "new.pledger"
    # The path check still comes first.
    expected = f"usage error: no ledger at {missing}\n" \
        if name in EXISTING_LEDGER_WRITERS else refusal
    assert run_cli(capsys, *argv, "--ledger", str(missing)) == (64, "", expected)
    assert not missing.parent.exists()

    lines = writable.read_bytes().splitlines(keepends=True)
    writable.write_bytes(b"".join(lines[:-1]) + lines[-1][:-10])
    head = store.head_path(writable)
    head.write_text(json.loads(lines[-2])["integrity"]["hash"] + "\n", "utf-8")
    stamp = 1_577_836_800_000_000_000  # 2020-01-01T00:00:00Z
    for path in (writable, head):
        os.utime(path, ns=(stamp, stamp))
    before = [(path.read_bytes(), path.stat().st_mtime_ns) for path in (writable, head)]
    assert run_cli(capsys, *argv, "--ledger", str(writable)) == (64, "", refusal)
    assert [(path.read_bytes(), path.stat().st_mtime_ns) for path in (writable, head)] \
        == before
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == ["inputs", "work.pledger", "work.pledger.head"]


_STRUCTURE = "error: structural validation failed: "
_STAMP = "not an ISO-8601 UTC second timestamp: 'garbage'"
_ACCRUE = ["credit", "accrue", "--policy", "{policy}"]
_WINDOW = ["--window-start", WINDOW[0], "--window-end", WINDOW[1]]

# A writer that may start a ledger, given one input fault that it can find
# without reading a ledger, with the refusal its append (or, for the window,
# its accrual) answers; `{...}` name inputs.
PRE_OPEN_REFUSALS = {
    "append-role": (["append", "{entry}"],
                    _STRUCTURE + "actor.role [actor.role] unknown role 'nobody'"),
    "voucher-created-at": (
        ["voucher", "issue", "--payload", "{voucher}", "--created-at", "garbage"],
        _STRUCTURE + "createdAt [createdAt.format] not an ISO-8601 UTC timestamp: 'garbage'"),
    "voucher-steward": (["voucher", "issue", "--payload", "{resident_voucher}"],
                        "error: vouchers are issued by communitySteward, not 'resident'"),
    "voucher-action": (["voucher", "issue", "--payload", "{bogus_voucher}"],
                       _STRUCTURE + "voucher.action [voucher.action] unknown action 'bogus'"),
    "accrue-window-start": (
        [*_ACCRUE, "--window-start", "garbage", "--window-end", WINDOW[1]], "error: " + _STAMP),
    "accrue-window-end": (
        [*_ACCRUE, "--window-start", WINDOW[0], "--window-end", "garbage"], "error: " + _STAMP),
    "accrue-created-at": ([*_ACCRUE, *_WINDOW, "--created-at", "garbage"], "error: " + _STAMP),
}


@pytest.mark.parametrize("name", PRE_OPEN_REFUSALS)
def test_a_writer_checks_its_own_inputs_before_the_open(writable_mid, tmp_path, capsys, name):
    # Exit 5, and the refused writer touches nothing on disk: a missing
    # ledger is not started, and an existing one keeps its bytes, its
    # modification time and an unfinished append, which a first append cuts.
    # The existing ledger stops at STAGE_PAUSED, so an accrual there would
    # mint a credit.
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    voucher = {"capability": CAPABILITY, "boundary": BOUNDARY, "action": "pause",
               "status": "issued",
               "steward": {"role": "communitySteward", "stewardOrg": STEWARD_ORG}}
    docs = {
        "entry": {**sample_contribution_doc(), "id": "pl:contrib:new:001",
                  "actor": {"role": "nobody", "pseudonym": "P1"}},
        "voucher": voucher,
        "resident_voucher": {**voucher, "steward": {"role": "resident", "pseudonym": "R1"}},
        "bogus_voucher": {**voucher, "action": "bogus"},
        "policy": POLICY_DOC,
    }
    paths = {doc: inputs / f"{doc}.json" for doc in docs}
    for doc, content in docs.items():
        paths[doc].write_text(json.dumps(content), "utf-8")
    template, refusal = PRE_OPEN_REFUSALS[name]
    argv = [arg.format(**paths) for arg in template]

    missing = tmp_path / "nodir" / "new.pledger"
    assert run_cli(capsys, *argv, "--ledger", str(missing)) == (5, "", refusal + "\n")
    assert not missing.parent.exists()

    lines = writable_mid.read_bytes().splitlines(keepends=True)
    writable_mid.write_bytes(b"".join(lines[:-1]) + lines[-1][:-10])
    head = store.head_path(writable_mid)
    head.write_text(json.loads(lines[-2])["integrity"]["hash"] + "\n", "utf-8")
    stamp = 1_577_836_800_000_000_000  # 2020-01-01T00:00:00Z
    for path in (writable_mid, head):
        os.utime(path, ns=(stamp, stamp))
    before = [(path.read_bytes(), path.stat().st_mtime_ns) for path in (writable_mid, head)]
    assert run_cli(capsys, *argv, "--ledger", str(writable_mid)) == (5, "", refusal + "\n")
    assert [(path.read_bytes(), path.stat().st_mtime_ns) for path in (writable_mid, head)] \
        == before


# Voucher payload changes that a refusal reading the ledger answers: an
# unknown test, and a first revision that is not issued (the append's
# lifecycle check); with the refusal each answers on a new ledger.
LEDGER_REFUSED_VOUCHERS = {
    "unknown-test": ({"action": "condition",
                      "conditions": [{"requiredTestId": "pl:test:nowhere:001"}]},
                     "voucher condition requires unknown test 'pl:test:nowhere:001'"),
    "active": ({"status": "active"}, f"voucher lineage pl:voucher:{CAPABILITY}:001 "
                                     "must start as issued, got 'active'"),
}


@pytest.mark.parametrize("name", LEDGER_REFUSED_VOUCHERS)
def test_voucher_issue_refused_by_the_ledger_leaves_no_file(tmp_path, capsys, name):
    change, refusal = LEDGER_REFUSED_VOUCHERS[name]
    payload = {"capability": CAPABILITY, "boundary": BOUNDARY, "action": "pause",
               "status": "issued",
               "steward": {"role": "communitySteward", "stewardOrg": STEWARD_ORG}, **change}
    doc = tmp_path / "voucher.json"
    doc.write_text(json.dumps(payload), "utf-8")
    new = tmp_path / "u" / "new.pledger"
    assert run_cli(capsys, "voucher", "issue", "--payload", str(doc), "--ledger", str(new)) \
        == (5, "", f"error: {refusal}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["voucher.json"]


def test_a_missing_ledger_with_a_head_is_refused_and_not_started(tmp_path, capsys):
    # The `.head` names a line, so the whole ledger is lost: the writer does
    # not start a fresh chain over it.
    entry = tmp_path / "entry.json"
    entry.write_text(json.dumps(sample_contribution_doc()), "utf-8")
    lost = tmp_path / "lost.pledger"
    store.head_path(lost).write_text("ab" * 32 + "\n", "utf-8")
    assert run_cli(capsys, "append", str(entry), "--ledger", str(lost)) \
        == (4, "", "verification failure: corrupt ledger line 1: headMismatch\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["entry.json", "lost.pledger.head"]


def test_a_held_lock_or_a_failed_write_exits_4_and_leaves_the_file(
        writable, tmp_path, capsys, monkeypatch):
    # Both are a StorageFailure, which exits 4 as a verification failure does.
    entry = tmp_path / "entry.json"
    entry.write_text(json.dumps({**sample_contribution_doc(), "id": "pl:contrib:new:001",
                                 "createdAt": "2025-07-01T00:00:00Z"}), "utf-8")
    argv = ["append", str(entry), "--ledger", str(writable)]
    before = (writable.read_bytes(), sorted(p.name for p in tmp_path.iterdir()))
    with LedgerFile(writable):
        assert run_cli(capsys, *argv) == (
            4, "", f"verification failure: another writer holds the lock on {writable}\n")
    assert (writable.read_bytes(), sorted(p.name for p in tmp_path.iterdir())) == before

    def no_disk(fd):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "fsync", no_disk)
    assert run_cli(capsys, *argv) == (
        4, "", f"verification failure: append to {writable} failed: "
               "[Errno 28] No space left on device\n")
    assert (writable.read_bytes(), sorted(p.name for p in tmp_path.iterdir())) == before


def test_ledger_env_default_and_override(lifecycle, monkeypatch, capsys):
    path, _ids, _entries = lifecycle
    monkeypatch.setenv("PLEDGER_LEDGER", str(path))
    code, out, _err = run_cli(capsys, "verify")
    assert code == 0 and "chain valid" in out

    monkeypatch.setenv("PLEDGER_LEDGER", "/nowhere/else.pledger")
    code, out, _err = run_cli(capsys, "verify", "--ledger", str(path))
    assert code == 0


def test_help_and_unknown_command(capsys):
    assert main(["--help"]) == 0
    assert "pledger" in capsys.readouterr().out
    code, _out, err = run_cli(capsys, "frobnicate")
    assert code == 64
    assert "usage error" in err


def _command_paths(parser: argparse.ArgumentParser, path: tuple = ()):
    """(command path, parser) for the parser and every subcommand under it."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _command_paths(sub, (*path, name))


FULL_TREE = dict(_command_paths(build_parser()))


def test_the_full_tree_holds_every_command():
    assert len(FULL_TREE) == 21  # the top level, 5 groups, 15 leaves
    assert [path[0] for path in FULL_TREE if len(path) == 1] == [
        "append", "verify", "query", "harness", "gate", "voucher", "credit", "audit",
        "export", "redact"]


@pytest.mark.parametrize("path", FULL_TREE, ids=lambda path: " ".join(path) or "top")
def test_each_command_path_gets_the_help_of_the_full_tree(capsys, path):
    # The parser built for one command holds only that command, and its help
    # is the full tree's.
    expected = FULL_TREE[path].format_help()
    built = dict(_command_paths(build_parser([*path, "-h"])))
    assert built[path].format_help() == expected
    if path:
        assert [p for p in built if len(p) == 1] == [path[:1]]
    assert run_cli(capsys, *path, "-h") == (0, expected, "")


@pytest.mark.parametrize("argv", [
    ["-h", "verify"], [], ["frobnicate"], ["verif"], ["--format", "doc", "verify"],
    ["gate"], ["gate", "frobnicate"], ["gate", "check"], ["verify", "extra"],
    ["query", "--format", "xml"], ["redact", "--target"],
], ids=" ".join)
def test_help_and_usage_errors_match_the_full_tree(capsys, argv):
    try:
        build_parser().parse_args(argv)
    except _UsageError as exc:
        expected = (64, "", f"usage error: {exc}\n")
    except SystemExit as exc:
        expected = (exc.code, capsys.readouterr().out, "")
    assert expected[0] in (0, 64)
    assert run_cli(capsys, *argv) == expected


# ---------------------------------------------------------------------------
# append


def test_append_then_duplicate(tmp_path, capsys):
    ledger = tmp_path / "new.pledger"
    doc_path = tmp_path / "entry.json"
    doc_path.write_text(json.dumps(sample_contribution_doc()), "utf-8")

    code, out, _err = run_cli(capsys, "append", str(doc_path),
                              "--ledger", str(ledger))
    assert code == 0
    assert out.startswith(f"appended {CONTRIBUTION_ID} (sha256:")

    code, _out, err = run_cli(capsys, "append", str(doc_path),
                              "--ledger", str(ledger))
    assert code == 5
    assert "error:" in err
    assert len(read_entries(ledger)) == 1


def test_append_refuses_a_top_level_prev(tmp_path, capsys):
    # The pre-image's own `prev` would overwrite it, leaving it outside the hash.
    doc = dict(sample_contribution_doc(), prev="original note")
    doc_path = tmp_path / "entry.json"
    doc_path.write_text(json.dumps(doc), "utf-8")
    ledger = tmp_path / "nodir" / "new.pledger"
    code, _out, err = run_cli(capsys, "append", str(doc_path), "--ledger", str(ledger))
    assert code == 5
    assert "prev [prev.reserved] top-level prev is reserved for the hash pre-image" in err
    assert not (tmp_path / "nodir").exists()


def test_append_reads_stdin(tmp_path, monkeypatch, capsys):
    ledger = tmp_path / "new.pledger"
    doc = sample_contribution_doc()
    doc["id"] = "pl:contrib:wedesign:prompt:002"
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, _err = run_cli(capsys, "append", "-", "--ledger", str(ledger))
    assert code == 0
    assert "pl:contrib:wedesign:prompt:002" in out


def test_append_rejects_bad_documents(tmp_path, capsys):
    ledger = tmp_path / "new.pledger"
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", "utf-8")
    code, _out, err = run_cli(capsys, "append", str(broken),
                              "--ledger", str(ledger))
    assert code == 64
    assert "not a JSON document" in err

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"id": "pl:contrib:x:1", "type": "Widget"}),
                       "utf-8")
    code, _out, err = run_cli(capsys, "append", str(unknown),
                              "--ledger", str(ledger))
    assert code == 5

    code, _out, err = run_cli(capsys, "append", str(tmp_path / "missing.json"),
                              "--ledger", str(ledger))
    assert code == 64


# ---------------------------------------------------------------------------
# query


def test_query_inline(lifecycle, capsys):
    path, _ids, _entries = lifecycle
    code, out, _err = run_cli(capsys, "query", "MATCH (t:Test) RETURN t.id;",
                              "--ledger", str(path))
    assert code == 0
    assert "t.id" in out
    assert TEST_ID in out


def test_query_from_file_and_formats(lifecycle, tmp_path, capsys):
    path, _ids, _entries = lifecycle
    query_file = tmp_path / "tests.plq"
    query_file.write_text("MATCH (t:Test) RETURN t.id, t.topic;", "utf-8")

    code, out, _err = run_cli(capsys, "query", "--file", str(query_file),
                              "--ledger", str(path), "--format", "csv")
    assert code == 0
    assert out == f"t.id,t.topic\n{TEST_ID},accessibility\n"

    code, out, _err = run_cli(capsys, "query", "--file", str(query_file),
                              "--ledger", str(path), "--format", "doc")
    assert code == 0
    assert json.loads(out) == {"columns": ["t.id", "t.topic"],
                               "rows": [[TEST_ID, "accessibility"]]}


def test_query_reads_its_file_from_stdin(lifecycle, monkeypatch, capsys):
    path, _ids, _entries = lifecycle
    monkeypatch.setattr("sys.stdin", io.StringIO("MATCH (t:Test) RETURN t.id, t.topic;"))
    code, out, err = run_cli(capsys, "query", "--file", "-", "--ledger", str(path),
                             "--format", "csv")
    assert (code, out, err) == (0, f"t.id,t.topic\n{TEST_ID},accessibility\n", "")


def test_query_saved(lifecycle, capsys):
    path, ids, _entries = lifecycle
    code, out, _err = run_cli(
        capsys, "query", "--saved", "regression-attribution",
        "--param", "topic=accessibility",
        "--param", f"boundary={BOUNDARY}",
        "--ledger", str(path))
    assert code == 0
    assert CONTRIBUTION_ID in out
    assert ids["run_v2"].rsplit(":", 1)[0] or True

    code, _out, err = run_cli(
        capsys, "query", "--saved", "regression-attribution",
        "--param", "topic=accessibility", "--ledger", str(path))
    assert code == 5

    code, _out, err = run_cli(capsys, "query", "--saved", "no-such-query",
                              "--ledger", str(path))
    assert code == 5


def test_query_explain_writes_the_plan_to_stderr_only(lifecycle, capsys):
    path, _ids, _entries = lifecycle
    argv = ["query", "--saved", "regression-attribution",
            "--param", "topic=accessibility", "--param", f"boundary={BOUNDARY}",
            "--ledger", str(path)]
    for fmt in ("text", "doc"):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        explained = run_cli(capsys, *argv, "--format", fmt, "--explain")
        assert explained[:2] == (code, out) and code == 0
        assert err == ""
    assert explained[2].splitlines() == [
        "plan 1. c: 1 candidates, scan",
        "plan 2. t: 1 candidates, expand from c",
        "plan 3. r: 1 candidates, expand from t",
        "plan 4. a: 4 candidates, expand from r",
        "plan 5. d: 1 candidates, expand from a",
    ]


def test_query_argument_exclusivity(lifecycle, tmp_path, capsys):
    path, _ids, _entries = lifecycle
    query_file = tmp_path / "q.plq"
    query_file.write_text("MATCH (t:Test) RETURN t.id;", "utf-8")

    for argv in (
        ["query", "--ledger", str(path)],
        ["query", "MATCH (t:Test) RETURN t.id;", "--file", str(query_file),
         "--ledger", str(path)],
        ["query", "MATCH (t:Test) RETURN t.id;", "--saved", "x",
         "--ledger", str(path)],
        ["query", "--saved", "regression-attribution", "--param", "broken",
         "--ledger", str(path)],
    ):
        code, _out, err = run_cli(capsys, *argv)
        assert code == 64, argv
        assert "usage error" in err


def test_query_syntax_error_exits_5(lifecycle, capsys):
    path, _ids, _entries = lifecycle
    code, _out, err = run_cli(capsys, "query", "MATCH (t:Test RETURN t.id;",
                              "--ledger", str(path))
    assert code == 5
    assert "error:" in err


# ---------------------------------------------------------------------------
# harness run


@pytest.fixture()
def bench(tmp_path):
    """A one-test ledger plus a results-bundle factory."""
    path = tmp_path / "bench.pledger"
    with LedgerFile(path) as ledger:
        ledger.append(make_test(0))
        ledger.append(make_artifact(0, version="v1"))

    def bundle(name: str, results: dict | None) -> str:
        folder = tmp_path / name
        folder.mkdir()
        if results is not None:
            (folder / "pl-test-gen-000.result").write_text(
                json.dumps(results), "utf-8")
        return str(folder)

    return path, bundle


def harness_args(path, results_dir: str) -> list[str]:
    return ["harness", "run", "--ledger", str(path), "--results", results_dir,
            "--artifact", "pl:artifact:gen:sys", "--version", "v1",
            "--checkpoint", "scheduledAudit", "--created-at", "2025-05-02T00:00:00Z"]


def test_harness_run_pass(bench, capsys):
    path, bundle = bench
    code, out, _err = run_cli(capsys, *harness_args(path, bundle("r1", {"value": 0.1})))
    assert code == 0
    assert "pl:test:gen:000: pass" in out
    assert "verdict: allPass" in out
    assert any(e.entry_type.value == "EvaluationRun" for e in read_entries(path))


def test_harness_run_fail(bench, capsys):
    path, bundle = bench
    code, out, _err = run_cli(capsys, *harness_args(path, bundle("r1", {"value": 0.9})))
    assert code == 1
    assert "verdict: anyFail" in out


def test_harness_run_missing_results(bench, capsys):
    path, bundle = bench
    code, out, _err = run_cli(capsys, *harness_args(path, bundle("r1", None)))
    assert code == 2
    assert "pl:test:gen:000: inconclusive" in out
    assert "verdict: anyInconclusive" in out


def test_harness_run_refused_by_a_later_test_appends_nothing(writable, tmp_path, capsys):
    # Every test is decided before the first run is appended: results that the
    # second test refuses exit 5 and leave the ledger and its head as they were.
    second = next(doc for doc in map(json.loads, writable.read_text("utf-8").splitlines())
                  if doc["id"] == TEST_ID)
    del second["integrity"]
    second.update(id="pl:test:accessibility:002", createdAt="2025-07-01T00:00:00Z")
    (tmp_path / "t2.json").write_text(json.dumps(second), "utf-8")
    assert run_cli(capsys, "append", "--ledger", str(writable), str(tmp_path / "t2.json"))[0] == 0
    results = tmp_path / "results"
    results.mkdir()
    (results / "pl-test-accessibility-001.result").write_text(
        '{"scores": [[5, 4], [4, 5], [5, 5]]}', "utf-8")
    (results / "pl-test-accessibility-002.result").write_text('{"scores": "none"}', "utf-8")
    before = writable.read_bytes(), store.head_path(writable).read_bytes()
    code, out, err = run_cli(
        capsys, "harness", "run", "--ledger", str(writable), "--results", str(results),
        "--artifact", ARTIFACT_ID, "--version", "v3", "--checkpoint", "scheduledAudit",
        "--created-at", "2025-07-01T00:00:00Z")
    assert (code, out, err) == (5, "", "error: rubric rawResults need a nonempty scores list\n")
    assert (writable.read_bytes(), store.head_path(writable).read_bytes()) == before


def test_harness_run_reads_no_result_of_a_redacted_test(writable, tmp_path, capsys):
    # The suite runs only live tests, so a redacted test's result file, even
    # one that is not JSON, is never read.
    privacy = replace(make_test(0), id="pl:test:privacy:001", created_at="2025-07-01T00:00:00Z")
    (tmp_path / "t.json").write_text(serialize_entry(privacy), "utf-8")
    assert run_cli(capsys, "append", "--ledger", str(writable), str(tmp_path / "t.json"))[0] == 0
    assert run_cli(capsys, "redact", "--ledger", str(writable), "--target", privacy.id,
                   "--reason", "safetyRedaction", "--role", "auditor", "--pseudonym", "A1",
                   "--created-at", "2025-07-01T00:00:01Z")[0] == 0
    results = tmp_path / "results"
    results.mkdir()
    (results / "pl-test-accessibility-001.result").write_text(
        '{"scores": [[5, 5], [5, 5], [5, 5]]}', "utf-8")
    (results / "pl-test-privacy-001.result").write_text("not json", "utf-8")
    code, out, err = run_cli(
        capsys, "harness", "run", "--ledger", str(writable), "--results", str(results),
        "--artifact", ARTIFACT_ID, "--version", "v3", "--checkpoint", "scheduledAudit",
        "--created-at", "2025-07-02T00:00:00Z")
    assert (code, out, err) == (0, f"{TEST_ID}: pass\nverdict: allPass\n", "")


def test_harness_requires_bundle_directory(bench, tmp_path, capsys):
    path, _bundle = bench
    code, _out, err = run_cli(capsys, *harness_args(path, str(tmp_path / "nope")))
    assert code == 64
    assert "results bundle" in err


# ---------------------------------------------------------------------------
# gate check


def test_gate_check_denies_then_allows(mid_lifecycle, lifecycle, capsys):
    mid_path, _ids, _entries = mid_lifecycle
    code, out, _err = run_cli(
        capsys, "gate", "check", "--ledger", str(mid_path),
        "--capability", CAPABILITY, "--boundary", BOUNDARY,
        "--version", "v2", "--now", "2025-06-21T00:00:00Z")
    assert code == 3
    assert out.strip() == f"denied: pausedByVoucher({VOUCHER_ID}:rev1)"

    full_path, _ids, _entries = lifecycle
    code, out, _err = run_cli(
        capsys, "gate", "check", "--ledger", str(full_path),
        "--capability", CAPABILITY, "--boundary", BOUNDARY,
        "--version", "v3", "--now", "2025-06-27T00:00:00Z")
    assert code == 0
    assert out.strip() == "allowed: noApplicableVoucher-defaultAllow"


def test_gate_check_artifact_defaults_to_single_lineage(tmp_path, capsys):
    path = tmp_path / "two.pledger"
    with LedgerFile(path) as ledger:
        ledger.append(make_artifact(0, version="v1"))
        ledger.append(make_artifact(1, artifact_id="pl:artifact:gen:other",
                                    version="v1"))
    code, _out, err = run_cli(
        capsys, "gate", "check", "--ledger", str(path),
        "--capability", "image-generation", "--boundary", "workshop",
        "--version", "v1")
    assert code == 64
    assert "--artifact is required" in err

    code, out, _err = run_cli(
        capsys, "gate", "check", "--ledger", str(path),
        "--capability", "image-generation", "--boundary", "workshop",
        "--version", "v1", "--artifact", "pl:artifact:gen:sys")
    assert code == 0


# ---------------------------------------------------------------------------
# voucher and credit


def test_voucher_issue_and_transition(tmp_path, capsys):
    ledger = tmp_path / "v.pledger"
    payload_path = tmp_path / "voucher.json"
    payload_path.write_text(json.dumps({
        "capability": "image-generation",
        "boundary": "workshop",
        "action": "pause",
        "steward": {"role": "communitySteward", "stewardOrg": "pl:org:x"},
        "status": "issued",
    }), "utf-8")

    code, out, _err = run_cli(
        capsys, "voucher", "issue", "--ledger", str(ledger),
        "--payload", str(payload_path), "--id", "pl:voucher:gen:001",
        "--evidence", "pl:run:gen:000", "--created-at", "2025-05-02T00:00:00Z")
    assert code == 0
    assert out.strip() == "voucher pl:voucher:gen:001 issued"

    code, _out, err = run_cli(
        capsys, "voucher", "transition", "--ledger", str(ledger),
        "--voucher", "pl:voucher:gen:001", "--to", "satisfied")
    assert code == 5

    code, out, _err = run_cli(
        capsys, "voucher", "transition", "--ledger", str(ledger),
        "--voucher", "pl:voucher:gen:001", "--to", "active",
        "--expiry", "2026-01-01T00:00:00Z")
    assert code == 0
    assert out.strip() == "voucher pl:voucher:gen:001:rev1 active"


def test_voucher_issue_refuses_a_revision_that_changes_the_capability(writable, tmp_path,
                                                                      capsys):
    doc = {"capability": "image-generation", "boundary": "consultation_workflow",
           "action": "pause", "status": "issued",
           "steward": {"role": "communitySteward", "stewardOrg": "pl:org:x"}}
    payload_path = tmp_path / "voucher.json"
    payload_path.write_text(json.dumps(doc), "utf-8")
    code, out, _err = run_cli(
        capsys, "voucher", "issue", "--ledger", str(writable), "--payload", str(payload_path),
        "--created-at", "2025-07-02T00:00:00Z")
    assert (code, out.strip()) == (0, "voucher pl:voucher:image-generation:001 issued")

    doc.update(capability="other", action="authorize", status="active")
    payload_path.write_text(json.dumps(doc), "utf-8")
    before = writable.read_bytes()
    code, _out, err = run_cli(
        capsys, "voucher", "issue", "--ledger", str(writable), "--payload", str(payload_path),
        "--id", "pl:voucher:image-generation:001:rev1", "--created-at", "2025-07-03T00:00:00Z")
    assert code == 5
    assert "a revision keeps capability 'image-generation', got 'other'" in err
    assert writable.read_bytes() == before


def test_voucher_issue_rejects_wrong_role(tmp_path, capsys):
    payload_path = tmp_path / "voucher.json"
    payload_path.write_text(json.dumps({
        "capability": "x", "boundary": "y", "action": "pause",
        "steward": {"role": "maintainer", "pseudonym": "M1"},
        "status": "issued",
    }), "utf-8")
    code, _out, err = run_cli(
        capsys, "voucher", "issue", "--ledger", str(tmp_path / "v.pledger"),
        "--payload", str(payload_path))
    assert code == 5
    assert "communitySteward" in err


def test_credit_accrue_and_report(writable_mid, tmp_path, capsys):
    policy_path = tmp_path / "policy.json"
    policy_path.write_text(json.dumps(POLICY_DOC), "utf-8")
    window = ["--window-start", "2025-05-01T00:00:00Z",
              "--window-end", "2025-06-30T00:00:00Z"]

    code, out, _err = run_cli(
        capsys, "credit", "accrue", "--ledger", str(writable_mid),
        "--policy", str(policy_path), *window)
    assert code == 0
    assert f"minted {CREDIT_ID}: 10 -> {STEWARD_ORG}" in out
    assert "total units: 10" in out

    code, out, _err = run_cli(
        capsys, "credit", "accrue", "--ledger", str(writable_mid),
        "--policy", str(policy_path), *window)
    assert code == 0
    assert "suppressed regressionDetected pl:run:accessibility:v2:001: " \
           "alreadyCredited" in out
    assert "total units: 0" in out

    code, out, _err = run_cli(
        capsys, "credit", "report", "--ledger", str(writable_mid),
        "--beneficiary", STEWARD_ORG, *window)
    assert code == 0
    assert f"{CREDIT_ID}: 10 (regressionDetected on " \
           "pl:run:accessibility:v2:001)" in out
    assert "total units: 10" in out


def _accrue_twice_appends_once(ledger, tmp_path, capsys) -> str:
    """Accrue the lifecycle window on `ledger`, then rerun it: the rerun exits
    0 and appends nothing. Returns the first run's output."""
    policy_path = tmp_path / "policy.json"
    policy_path.write_text(json.dumps(POLICY_DOC), "utf-8")
    argv = ["credit", "accrue", "--ledger", str(ledger), "--policy", str(policy_path),
            "--window-start", WINDOW[0], "--window-end", WINDOW[1]]
    code, first, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    before = ledger.read_bytes()
    code, again, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert "total units: 0" in again
    assert ledger.read_bytes() == before
    return first


def test_credit_accrue_rerun_mints_nothing_over_a_redacted_credit(writable, tmp_path, capsys):
    # The credit's id stays held after its redaction, so a rerun must not
    # mint it again.
    code, _out, _err = run_cli(
        capsys, "redact", "--ledger", str(writable), "--target", CREDIT_ID,
        "--reason", "legalHold", "--role", "auditor", "--pseudonym", "A1")
    assert code == 0
    first = _accrue_twice_appends_once(writable, tmp_path, capsys)
    assert first == ("suppressed regressionDetected pl:run:accessibility:v2:001: alreadyCredited\n"
                     "suppressed scheduledRunDependency pl:run:accessibility:v2:001: zeroUnits\n"
                     "total units: 0\n")


def test_credit_accrue_rerun_mints_nothing_on_a_slug_collision(tmp_path, capsys):
    # P1 and p1 both motivate a test that regresses; their credits share an id,
    # so only P1's is minted, on the first run and on every rerun.
    ledger = tmp_path / "slug.pledger"
    upper = make_contribution(1)
    lower = replace(make_contribution(2), actor=ActorRef(role="resident", pseudonym="p1"))
    runs = [make_run(j, test_id="pl:test:gen:000", version=version,
                     artifact_id="pl:artifact:gen:a0", decision=decision,
                     checkpoint="postIncident")
            for j, (version, decision) in enumerate((("v1", "pass"), ("v2", "fail")))]
    with LedgerFile(ledger) as writer:
        for entry in (upper, lower, make_test(0, motivated_by=[upper.id, lower.id]),
                      make_artifact(0, artifact_id="pl:artifact:gen:a0", version="v1", minute=300),
                      make_artifact(1, artifact_id="pl:artifact:gen:a0", version="v2", minute=300),
                      *runs):
            writer.append(entry)
    first = _accrue_twice_appends_once(ledger, tmp_path, capsys)
    assert first == ("minted pl:credit:regressiondetected:pl-run-gen-001:p1: 5 -> P1\n"
                     "suppressed regressionDetected pl:run:gen:001: alreadyCredited\n"
                     "total units: 5\n")


def test_credit_accrue_rejects_bad_policy(writable_mid, tmp_path, capsys):
    policy_path = tmp_path / "policy.json"
    policy_path.write_text(json.dumps({"unitsPerEvent": {"bogusKind": 1}}), "utf-8")
    code, _out, err = run_cli(
        capsys, "credit", "accrue", "--ledger", str(writable_mid),
        "--policy", str(policy_path),
        "--window-start", "2025-05-01T00:00:00Z",
        "--window-end", "2025-06-30T00:00:00Z")
    assert code == 5
    assert "bogusKind" in err


CREDIT_WINDOW = ["--window-start", "2025-05-01T00:00:00Z", "--window-end", "2025-06-30T00:00:00Z"]


@pytest.mark.parametrize("cap,code", [
    (str(10**400), 0),  # an integer too large for a float is still a nonnegative number
    ("-1", 5), ("true", 5), ("NaN", 5), ("1e400", 5),
], ids=["huge-int", "negative", "bool", "nan", "inf"])
def test_credit_accrue_judges_the_cap_as_a_nonnegative_number(writable, tmp_path, capsys,
                                                              cap, code):
    policy_path = tmp_path / "policy.json"
    units = json.dumps(POLICY_DOC["unitsPerEvent"])
    policy_path.write_text(
        f'{{"unitsPerEvent": {units}, "capPerBeneficiaryPerPeriod": {cap}}}', "utf-8")
    got, _out, err = run_cli(capsys, "credit", "accrue", "--ledger", str(writable),
                             "--policy", str(policy_path), *CREDIT_WINDOW)
    assert got == code
    assert "Traceback" not in err
    if code == 5:
        assert "capPerBeneficiaryPerPeriod must be a nonnegative number" in err
    assert run_cli(capsys, "verify", "--ledger", str(writable))[0] == 0


# ---------------------------------------------------------------------------
# audits


@pytest.mark.parametrize("beneficiary", ["nobody", STEWARD_ORG])
def test_credit_report_refuses_a_malformed_window_on_any_data(lifecycle, capsys, beneficiary):
    # The bounds are parsed before any credit is read, so the refusal does not
    # depend on whether the beneficiary has credits to compare.
    code, out, err = run_cli(capsys, "credit", "report", "--ledger", str(lifecycle[0]),
                             "--beneficiary", beneficiary, "--window-start", "garbage",
                             "--window-end", "2025-12-31T00:00:00Z")
    assert (code, out, err) == (
        5, "", "error: not an ISO-8601 UTC second timestamp: 'garbage'\n")


def test_audit_evidence_ledger_mode(lifecycle, capsys):
    path, _ids, _entries = lifecycle
    code, out, _err = run_cli(capsys, "audit", "evidence", "--ledger", str(path))
    assert code == 0
    assert "wedesign" in out
    assert "recruitmentPathway" in out

    code, out, _err = run_cli(capsys, "audit", "evidence", "--ledger", str(path),
                              "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == ("case,recruitmentPathway,rolesAndIntermediaries,"
                                   "consentPrivacyScope,compensationTerms,"
                                   "explicitInfluenceLinks")
    assert out.splitlines()[1] == ("wedesign,NotSpecified,Reported,Partial,"
                                   "Reported,Reported")


def test_audit_evidence_document_mode(tmp_path, capsys):
    cases_path = tmp_path / "cases.json"
    cases_path.write_text(json.dumps([
        {"case": "WeDesign+", "codings": {"recruitmentPathway": "Reported"}},
    ]), "utf-8")
    code, out, _err = run_cli(capsys, "audit", "evidence",
                              "--cases", str(cases_path))
    assert code == 0
    assert "WeDesign+" in out


def test_audit_evidence_csv_quotes_case_names(tmp_path, capsys):
    names = ["Toronto, ON", 'the "pilot" site', "two\nlines"]
    cases_path = tmp_path / "cases.json"
    cases_path.write_text(json.dumps([{"case": name, "codings": {}} for name in names]),
                          "utf-8")
    code, out, _err = run_cli(capsys, "audit", "evidence", "--cases", str(cases_path),
                              "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [len(row) for row in rows] == [6] * 4
    assert [row[0] for row in rows] == ["case", *names]


@pytest.mark.parametrize("cases", [
    [1, 2],
    [{"case": "a", "codings": [1]}],
    {"case": "a"},
    [{"case": 5}],
], ids=["items-not-objects", "codings-not-an-object", "not-a-list", "case-not-a-string"])
def test_audit_evidence_rejects_a_malformed_cases_document(tmp_path, capsys, cases):
    cases_path = tmp_path / "cases.json"
    cases_path.write_text(json.dumps(cases), "utf-8")
    code, out, err = run_cli(capsys, "audit", "evidence", "--cases", str(cases_path))
    assert (code, out) == (5, "")
    assert err == ("error: cases must be a list of objects, each with a string case"
                   " and a codings object\n")


def test_audit_linkage(lifecycle, capsys):
    path, _ids, _entries = lifecycle
    code, out, _err = run_cli(capsys, "audit", "linkage", "--ledger", str(path))
    assert code == 0
    lines = out.splitlines()
    assert "changes: 2" in lines
    assert "with contribution: 2" in lines
    assert "with versioned test: 2" in lines
    assert "fully linked: 2" in lines
    assert "tests with runs: 1" in lines
    assert "dangling references: 1" in lines


def test_audit_consent(lifecycle, tmp_path, capsys):
    path, _ids, _entries = lifecycle
    code, out, _err = run_cli(capsys, "audit", "consent", "--ledger", str(path))
    assert code == 0
    assert out.strip() == "no consent violations"


def test_audit_consent_text_names_each_violation(tmp_path, capsys):
    guarded = make_contribution(1, intended_use="evaluation-only")
    guarded.consent = ConsentBlock(status="withdrawn")
    change = make_change(0, influenced_by=[guarded.id])
    change.payload.change_kind = "dataset"
    path = tmp_path / "consent.pledger"
    with LedgerFile(path) as ledger:
        ledger.append(guarded)
        ledger.append(change)
    code, out, _err = run_cli(capsys, "audit", "consent", "--ledger", str(path))
    assert code == 0
    assert out.splitlines() == [f"{change.id} <- {guarded.id}: withdrawnConsent",
                                f"{change.id} <- {guarded.id}: intendedUseViolation"]


def test_export_and_conformance(lifecycle, writable_mid, tmp_path, capsys):
    path, _ids, _entries = lifecycle
    out_path = tmp_path / "release.json"
    code, out, _err = run_cli(
        capsys, "export", "--ledger", str(path),
        "--release", f"{ARTIFACT_ID}@v2", "--out", str(out_path))
    assert code == 0
    assert f"wrote export to {out_path}" in out
    export = json.loads(out_path.read_text("utf-8"))
    assert export["release"] == {"artifactId": ARTIFACT_ID, "version": "v2"}

    code, out, _err = run_cli(capsys, "audit", "conformance",
                              "--export", str(out_path))
    assert code == 0
    assert "a-evidenceFields: pass" in out
    assert "overall: conformant" in out

    code, bare, _err = run_cli(capsys, "export", "--ledger", str(path),
                               "--release", f"{ARTIFACT_ID}@v2")
    assert code == 0
    assert json.loads(bare)["release"]["version"] == "v2"

    code, _out, err = run_cli(capsys, "export", "--ledger", str(path),
                              "--release", "no-version-separator")
    assert code == 64


def test_export_streams_the_same_bytes_to_file_and_stdout(lifecycle, tmp_path, capsys):
    path, _ids, entries = lifecycle
    now = "2025-06-27T00:00:00Z"
    expected = json.dumps(build_export(Snapshot(entries), ARTIFACT_ID, "v3", now=now),
                          indent=2, sort_keys=True) + "\n"
    release = ["export", "--ledger", str(path), "--release", f"{ARTIFACT_ID}@v3",
               "--now", now]
    out_path = tmp_path / "release.json"
    code, _out, _err = run_cli(capsys, *release, "--out", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == expected.encode("utf-8")

    code, out, _err = run_cli(capsys, *release)
    assert code == 0
    assert out == expected


def test_export_refuses_a_malformed_now_and_writes_nothing(lifecycle, tmp_path, capsys):
    # As gate check refuses it, even when no open voucher would read the time.
    out_path = tmp_path / "release.json"
    code, out, err = run_cli(capsys, "export", "--ledger", str(lifecycle[0]),
                             "--release", f"{ARTIFACT_ID}@v3", "--now", "garbage",
                             "--out", str(out_path))
    assert (code, out, err) == (
        5, "", "error: not an ISO-8601 UTC second timestamp: 'garbage'\n")
    assert not out_path.exists()


def test_conformance_failure_exits_5(mid_lifecycle, tmp_path, capsys):
    path, _ids, entries = mid_lifecycle
    out_path = tmp_path / "release.json"
    run_cli(capsys, "export", "--ledger", str(path),
            "--release", f"{ARTIFACT_ID}@v2", "--out", str(out_path))
    export = json.loads(out_path.read_text("utf-8"))
    export["activeVouchers"] = []
    out_path.write_text(json.dumps(export), "utf-8")

    code, out, _err = run_cli(capsys, "audit", "conformance",
                              "--export", str(out_path))
    assert code == 5
    assert "d-activeVouchers: fail" in out
    assert "overall: materialNonConformance" in out


def test_conformance_of_an_export_with_no_test_exits_5(lifecycle, tmp_path, capsys):
    path, _ids, _entries = lifecycle
    out_path = tmp_path / "release.json"
    run_cli(capsys, "export", "--ledger", str(path),
            "--release", f"{ARTIFACT_ID}@v3", "--out", str(out_path))
    export = json.loads(out_path.read_text("utf-8"))
    export["entries"] = [doc for doc in export["entries"] if doc["type"] != "Test"]
    out_path.write_text(json.dumps(export), "utf-8")

    code, out, _err = run_cli(capsys, "audit", "conformance", "--export", str(out_path))
    assert code == 5
    assert "c-testsAndRuns: fail" in out.splitlines()
    assert "  c-testsAndRuns: export contains no tests" in out.splitlines()


@pytest.mark.parametrize("item,message", [
    (5, "export.activeVouchers[] must be a JSON object, got int"),
    ({"voucherId": ["x"], "gate": {}}, "export.activeVouchers[{}].voucherId must be a string"),
], ids=["not-an-object", "id-not-a-string"])
def test_conformance_rejects_a_malformed_voucher_disclosure(mid_lifecycle, tmp_path, capsys,
                                                            item, message):
    path, _ids, _entries = mid_lifecycle
    out_path = tmp_path / "release.json"
    run_cli(capsys, "export", "--ledger", str(path),
            "--release", f"{ARTIFACT_ID}@v2", "--out", str(out_path))
    export = json.loads(out_path.read_text("utf-8"))
    index = len(export["activeVouchers"])
    export["activeVouchers"].append(item)
    out_path.write_text(json.dumps(export), "utf-8")

    code, out, err = run_cli(capsys, "audit", "conformance", "--export", str(out_path))
    assert (code, out, err) == (5, "", f"error: {message.format(index)}\n")


# ---------------------------------------------------------------------------
# redact


def test_redact_cli(writable, capsys):
    code, out, _err = run_cli(
        capsys, "redact", "--ledger", str(writable),
        "--target", CONTRIBUTION_ID, "--reason", "safetyRedaction",
        "--role", "auditor", "--pseudonym", "AUD1")
    assert code == 0
    assert f"redacted {CONTRIBUTION_ID} with pl:tomb:" in out

    code, out, _err = run_cli(capsys, "verify", "--ledger", str(writable))
    assert code == 0
    assert "16 entries" in out


def test_redact_rejects_unauthorized_role(writable, capsys):
    code, _out, err = run_cli(
        capsys, "redact", "--ledger", str(writable),
        "--target", CONTRIBUTION_ID, "--reason", "safetyRedaction",
        "--role", "resident", "--pseudonym", "P1")
    assert code == 5
    assert "error:" in err


# ---------------------------------------------------------------------------
# signatures


def test_hmac_sign_and_verify(tmp_path, capsys):
    ledger = tmp_path / "signed.pledger"
    doc_path = tmp_path / "entry.json"
    doc_path.write_text(json.dumps(sample_contribution_doc()), "utf-8")

    code, _out, _err = run_cli(capsys, "append", str(doc_path),
                               "--ledger", str(ledger),
                               "--hmac-key", "k1=sekrit")
    assert code == 0

    code, out, _err = run_cli(capsys, "verify", "--ledger", str(ledger),
                              "--hmac-key", "k1=sekrit")
    assert code == 0
    assert "1 valid" in out

    code, out, _err = run_cli(capsys, "verify", "--ledger", str(ledger),
                              "--hmac-key", "k1=wrong")
    assert code == 4
    assert "1 invalid" in out

    code, _out, err = run_cli(capsys, "verify", "--ledger", str(ledger),
                              "--hmac-key", "no-separator")
    assert code == 64


def test_a_signed_writer_signs_every_entry_one_call_appends(writable, capsys):
    # The writer holds the signer: a suite run appends one run per live test,
    # a consent withdrawal a superseding entry and a tombstone, all signed.
    steward = ActorRef(role="communitySteward", steward_org=STEWARD_ORG)
    with LedgerFile(writable, hmac_signer("k1", b"sekrit", steward)) as ledger:
        report = run_suite(ledger, "scheduledAudit", ARTIFACT_ID, "v3", {},
                           ActorRef(role="evaluator", pseudonym="harness"),
                           created_at="2025-07-01T00:00:00Z")
        withdrawn = ledger.withdraw_consent(CONTRIBUTION_ID, steward,
                                            created_at="2025-07-02T00:00:00Z")
    signed = len(report.runs) + len(withdrawn)
    code, out, err = run_cli(capsys, "verify", "--ledger", str(writable),
                             "--hmac-key", "k1=sekrit")
    assert (code, out, err) == (
        0, f"chain valid, {15 + signed} entries\n"
           f"signatures: {signed} valid, 0 invalid, 0 unverifiable, 15 absent\n", "")


@pytest.mark.parametrize("number", ["NaN", "1e400", "-Infinity"])
def test_verify_refuses_a_number_with_no_canonical_form_as_a_corrupt_line(
        tmp_path, capsys, number):
    # A stored number with no canonical form is not JSON (RFC 8259): the
    # line does not parse, so verify, keyed or not, refuses the file there.
    ledger = tmp_path / "signed.pledger"
    doc_path = tmp_path / "entry.json"
    doc_path.write_text(json.dumps(sample_contribution_doc()), "utf-8")
    assert run_cli(capsys, "append", str(doc_path), "--ledger", str(ledger),
                   "--hmac-key", "k1=sekrit")[0] == 0
    stored = ledger.read_text("utf-8")
    assert stored.count('"amount":50') == 1
    ledger.write_text(stored.replace('"amount":50', f'"amount":{number}'), "utf-8")

    for keys in ([], ["--hmac-key", "k1=sekrit"]):
        code, out, err = run_cli(capsys, "verify", "--ledger", str(ledger), "--format", "doc",
                                 *keys)
        assert (code, out) == (4, "")
        assert err.startswith("verification failure: corrupt ledger line 1: not valid JSON: ")


def _resealed_over_its_bytes(line: str) -> str:
    """Chain-head `line`, whose last key is `type`, with its hash recomputed
    over its own bytes: the `integrity` member cut, `"prev":""` spliced in
    before `type`."""
    integrity = json.loads(line)["integrity"]
    cut = ',"integrity":' + canonical_json(integrity)
    assert cut in line
    rest, sep, last = line.replace(cut, "").rpartition(',"type":')
    pre_image = (rest + ',"prev":""' + sep + last).encode("utf-8")
    return line.replace(integrity["hash"], "sha256:" + hashlib.sha256(pre_image).hexdigest())


@pytest.mark.parametrize("number", ["NaN", "1e400", "-Infinity"])
def test_every_command_refuses_a_number_with_no_canonical_form_resealed_over_its_bytes(
        lifecycle, tmp_path, capsys, number):
    # Lifecycle line 1 with its amount replaced and its hash recomputed over
    # those bytes, as a one-line ledger: every hash holds (as it does for a
    # finite amount), and still each command exits 4 at line 1, and export
    # writes no file.
    line = lifecycle[0].read_text("utf-8").splitlines()[0]
    assert line.count('"amount":50') == 1
    ledger = tmp_path / "one.pledger"
    ledger.write_text(_resealed_over_its_bytes(line.replace('"amount":50', '"amount":51'))
                      + "\n", "utf-8")
    assert run_cli(capsys, "verify", "--ledger", str(ledger)) == (
        0, "chain valid, 1 entries\n", "")
    resealed = _resealed_over_its_bytes(line.replace('"amount":50', f'"amount":{number}'))
    ledger.write_text(resealed + "\n", "utf-8")
    out_path = tmp_path / "r.json"
    for argv in (["verify"], LEDGER_READERS["gate-check"],
                 ["export", "--release", f"{ARTIFACT_ID}@v1", "--out", str(out_path)]):
        code, out, err = run_cli(capsys, *argv, "--ledger", str(ledger))
        assert (code, out) == (4, ""), argv
        assert err.startswith("verification failure: corrupt ledger line 1: not valid JSON: ")
    assert not out_path.exists()


# ---------------------------------------------------------------------------
# process-wide state


def test_main_pauses_cyclic_gc_and_restores_it(lifecycle, mid_lifecycle, writable,
                                                monkeypatch, capsys):
    full, mid = str(lifecycle[0]), str(mid_lifecycle[0])
    writable.write_bytes(writable.read_bytes()[:-10])  # torn tail: CorruptLine
    gate = ["gate", "check", "--capability", CAPABILITY, "--boundary", BOUNDARY,
            "--version", "v2", "--now", "2025-06-21T00:00:00Z"]
    cases = [
        (0, ["verify", "--ledger", full]),
        (3, [*gate, "--ledger", mid]),
        (4, [*gate, "--ledger", str(writable)]),
        (5, ["query", "MATCH (t:Test RETURN t.id;", "--ledger", full]),
        (64, ["query", "--ledger", full]),
    ]
    seen: list[bool] = []
    read = store._read  # the read step of every open, verify's included
    frozen = gc.get_freeze_count()  # only the process entry freezes the heap

    def recording(path):
        seen.append(gc.isenabled())
        return read(path)

    monkeypatch.setattr(store, "_read", recording)
    try:
        for expected, argv in cases:
            seen.clear()
            code, _out, _err = run_cli(capsys, *argv)
            assert code == expected, argv
            assert seen == [False], argv
            assert gc.isenabled(), argv

        def failing(path):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(store, "_read", failing)
        with pytest.raises(RuntimeError):
            main(["verify", "--ledger", full])
        assert gc.isenabled()

        monkeypatch.setattr(store, "_read", recording)
        gc.disable()
        seen.clear()
        assert main(["verify", "--ledger", full]) == 0
        assert seen == [False]
        assert not gc.isenabled()
        assert gc.get_freeze_count() == frozen
    finally:
        gc.enable()
