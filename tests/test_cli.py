"""Command-line behavior: subcommands, formats, and exit codes."""

from __future__ import annotations

import gc
import io
import json
import shutil

import pytest
from conftest import make_artifact, make_test

from pledger import store
from pledger.cli import main
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
    sample_contribution_doc,
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


def test_verify_detects_tampering(writable, capsys):
    lines = writable.read_text("utf-8").splitlines()
    doc = json.loads(lines[2])
    doc["createdAt"] = "2025-05-12T10:00:01Z"
    lines[2] = json.dumps(doc, separators=(",", ":"))
    writable.write_text("\n".join(lines) + "\n", "utf-8")

    code, out, _err = run_cli(capsys, "verify", "--ledger", str(writable))
    assert code == 4
    assert "chain broken at index 2" in out


def test_verify_reports_torn_tail(writable, capsys):
    data = writable.read_bytes()
    writable.write_bytes(data[:-10])
    code, _out, err = run_cli(capsys, "verify", "--ledger", str(writable))
    assert code == 4
    assert "verification failure" in err


def test_ledger_path_usage_errors(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("PLEDGER_LEDGER", raising=False)
    code, _out, err = run_cli(capsys, "verify")
    assert code == 64
    assert "PLEDGER_LEDGER" in err

    code, _out, err = run_cli(capsys, "verify", "--ledger",
                              str(tmp_path / "absent.pledger"))
    assert code == 64
    assert "no ledger at" in err


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


# ---------------------------------------------------------------------------
# audits


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
    expected = json.dumps(build_export(entries, ARTIFACT_ID, "v3", now=now),
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
    read = store.read_entries

    def recording(path):
        seen.append(gc.isenabled())
        return read(path)

    monkeypatch.setattr(store, "read_entries", recording)
    try:
        for expected, argv in cases:
            seen.clear()
            code, _out, _err = run_cli(capsys, *argv)
            assert code == expected, argv
            assert seen == [False], argv
            assert gc.isenabled(), argv

        def failing(path):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(store, "read_entries", failing)
        with pytest.raises(RuntimeError):
            main(["verify", "--ledger", full])
        assert gc.isenabled()

        monkeypatch.setattr(store, "read_entries", recording)
        gc.disable()
        seen.clear()
        assert main(["verify", "--ledger", full]) == 0
        assert seen == [False]
        assert not gc.isenabled()
    finally:
        gc.enable()
