"""The command corpus, and a differential runner over it (McKeeman, DTJ 10(1), 1998):

    python tests/corpus.py LEFT RIGHT

A side is a directory holding the `pledger` package (run as `python -m pledger`
with PYTHONPATH set to it) or a command on PATH (run with PYTHONPATH removed).
Each case runs on both sides in a fresh directory holding copies of inputs built
once, and records each command's exit code, stdout and stderr, then the files
left. Paths are relative and clock readers get `--now` or `--created-at`, so no
temporary path or time enters the record. `< FILE` at the end feeds FILE to stdin.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from datetime import timedelta
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # the inputs are built by this tree
    sys.path.insert(1, str(ROOT / "src"))

from pledger.canonical import canonical_json  # noqa: E402
from pledger.fixtures import POLICY_DOC, STAGE_PAUSED, TEST_ID, build_lifecycle  # noqa: E402
from pledger.fixtures import sample_contribution_doc  # noqa: E402
from pledger.integrity import hmac_signer, seal  # noqa: E402
from pledger.model import (  # noqa: E402
    ActorRef, format_timestamp, parse_entry, parse_timestamp, replace, serialize_entry)

# ---------------------------------------------------------------------------
# tampered copies of the lifecycle ledger: each maps its lines to new lines


def _repeat_line_3_at_the_head(lines: list[str]) -> list[str]:
    # entry 3 re-sealed onto the head: every link holds, one id repeats
    entry = replace(parse_entry(lines[2]), integrity=None)
    head = json.loads(lines[-1])["integrity"]["hash"]
    return [*lines, serialize_entry(seal(entry, prev_hash=head))]


def _line_4(edit):
    # line 4's document through `edit`, rendered canonically
    def tamper(lines: list[str]) -> list[str]:
        doc = json.loads(lines[3])
        edit(doc)
        return [*lines[:3], canonical_json(doc), *lines[4:]]
    return tamper


def _backdate_line_6(lines: list[str]) -> list[str]:
    # line 6 resealed 25 hours behind line 5, and every line after it
    # resealed onto it: each hash and link holds, the time order does not
    entries = [parse_entry(line) for line in lines]
    when = parse_timestamp(entries[4].created_at) - timedelta(hours=25)
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
    "swapped-lines": (lambda lines: [*lines[:5], lines[6], lines[5], *lines[7:]],
                      5, "prevHashMismatch", 15, "6: prevHashMismatch"),
    "no-integrity": (_line_4(lambda doc: doc.pop("integrity")), 3, "hashMismatch", 15,
                     "4: hashMismatch"),
    "backdated": (_backdate_line_6, 5, "orderViolation", 15, "6: orderViolation"),
}


# Tampering that leaves the decoded chain intact, and verify's report on it;
# each copy keeps the lifecycle ledger's own `.head`.
KEPT_CHAINS = {
    "drop-last-three": (lambda lines: lines[:-3], 12, "headMismatch", 12),
    "respace-line-5": (lambda lines: [*lines[:4], json.dumps(json.loads(lines[4])), *lines[5:]],
                       4, "nonCanonicalLine", 15),
    "id-prefix-line-5": (lambda lines: [*lines[:4], '{"id":"pl:contribution:forged:001",'
                                        + lines[4][1:], *lines[5:]], 4, "nonCanonicalLine", 15),
    "note-in-line-4-integrity": (_line_4(lambda doc: doc["integrity"].update(note="rewritten")),
                                 3, "nonCanonicalLine", 15),
    "emptied": (lambda lines: [], 0, "headMismatch", 0),
}


def resealed_over_its_bytes(line: str) -> str:
    """Chain-head `line`, whose last key is `type`, with its hash recomputed
    over its own bytes: the `integrity` member cut, `"prev":""` spliced in
    before `type`."""
    integrity = json.loads(line)["integrity"]
    cut = ',"integrity":' + canonical_json(integrity)
    assert cut in line
    rest, sep, last = line.replace(cut, "").rpartition(',"type":')
    pre_image = (rest + ',"prev":""' + sep + last).encode("utf-8")
    return line.replace(integrity["hash"], "sha256:" + hashlib.sha256(pre_image).hexdigest())


def tree(root) -> dict[str, bytes | None]:
    """Every path under `root` with a file's bytes (None for anything else)."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() and not p.is_symlink()
            else None for p in sorted(Path(root).rglob("*"))}


def command_paths(parser: argparse.ArgumentParser, path: tuple = ()):
    """(command path, parser) for the parser and every subcommand under it."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from command_paths(sub, (*path, name))


# ---------------------------------------------------------------------------
# inputs: a builder `(inputs, path)`, or the bytes, text or JSON document the
# file holds; `DIR/NAME` is a file of the directory (a results bundle) DIR

DEEP = '{"x":' + "[" * 100_000 + "]" * 100_000 + "}"  # past any decoder's nesting limit
LONG_INTEGER = "9" * 5000  # past the decoder's limit on digits (sys.get_int_max_str_digits)
PAUSE = {"capability": "image-generation", "boundary": "consultation_workflow",
         "action": "pause", "status": "issued",
         "steward": {"role": "communitySteward", "stewardOrg": "pl:org:wedesign-steward"}}
SCORES = '{"scores": [[5, 4], [4, 5], [5, 5]]}'


def _lines(inputs: Path) -> list[str]:
    return build_input(inputs, "lifecycle.pledger").read_text("utf-8").splitlines()


def _ledger(tamper, head: int = 0):
    # The lifecycle's lines (or text) through `tamper`; a negative `head`
    # adds a `.head` naming that line of the lifecycle, counted from its end.
    def build(inputs: Path, path: Path) -> None:
        lines = tamper(_lines(inputs))
        path.write_text(lines if isinstance(lines, str) else "".join(
            line + "\n" for line in lines), "utf-8")
        if head:
            named = json.loads(_lines(inputs)[head])["integrity"]["hash"]
            Path(f"{path}.head").write_text(named + "\n")
    return build


def _one_line(old: str, new: str):
    # Lifecycle line 1 with `old` replaced and its hash recomputed over those bytes.
    return _ledger(lambda lines: [resealed_over_its_bytes(lines[0].replace(old, new))])


def _test_doc(test_id: str, **measurement):
    # The lifecycle's test as an entry document, under a new id.
    def build(inputs: Path, path: Path) -> None:
        doc = next(d for d in map(json.loads, _lines(inputs)) if d["id"] == TEST_ID)
        del doc["integrity"]
        doc.update(id=test_id, createdAt="2025-07-01T00:00:00Z")
        doc["test"]["measurement"] = measurement or doc["test"]["measurement"]
        path.write_text(json.dumps(doc), "utf-8")
    return build


def _bad_signature(inputs: Path, path: Path) -> None:
    # The sample contribution signed under k1=SECRET, its signature then made
    # not base64: the hash does not cover the signature, so the chain holds.
    signer = hmac_signer("k1", b"SECRET", ActorRef(role="maintainer", pseudonym="cli"))
    line = serialize_entry(seal(parse_entry(sample_contribution_doc()), signer=signer))
    signature = json.loads(line)["integrity"]["signature"]["signatureBytes"]
    path.write_text(line.replace(signature, "not*base64") + "\n", "utf-8")


def _gen(name: str, scale: float):
    # A seeded benchmark ledger from perfbench/gen.py, small.
    def build(inputs: Path, path: Path) -> None:
        if str(ROOT / "perfbench") not in sys.path:
            sys.path.insert(0, str(ROOT / "perfbench"))
        import gen
        gen.build(gen.PLANS[name](1, scale).plan, path)
    return build


INPUTS = {
    "lifecycle.pledger": lambda inputs, path: build_lifecycle(path),
    "mid.pledger": lambda inputs, path: build_lifecycle(path, stop_after=14),
    "paused.pledger": lambda inputs, path: build_lifecycle(path, stop_after=STAGE_PAUSED),
    **{f"{name}.pledger": _ledger(row[0]) for name, row in BROKEN_CHAINS.items()},
    **{f"{name}.pledger": _ledger(row[0], -1) for name, row in KEPT_CHAINS.items()},
    # the last line torn, with `.head` naming the line before it: a crash state
    "torn.pledger": _ledger(lambda lines: "".join(f"{line}\n" for line in lines)[:-11], -2),
    "deep-line.pledger": _ledger(lambda lines: [*lines, DEEP], -1),
    "nan.pledger": _one_line('"amount":50', '"amount":NaN'),
    "long-integer.pledger": _ledger(lambda lines: [
        lines[0].replace('"amount":50', f'"amount":{LONG_INTEGER}'), *lines[1:]]),
    "surrogate-line.pledger": _one_line("waterfront", "water\\ud800front"),
    "surrogate-link.pledger": _one_line("workshoplog", "work\\ud800shoplog"),
    "bad-signature.pledger": _bad_signature,
    "prev-note.pledger": _ledger(lambda lines: [serialize_entry(replace(
        seal(parse_entry(sample_contribution_doc())), extensions={"prev": "note"}))]),
    "adir": lambda inputs, path: path.mkdir(),
    "afile": "a regular file\n",
    "entry.json": sample_contribution_doc(),
    "entry-new.json": {**sample_contribution_doc(), "id": "pl:contrib:new:001"},
    "entry-prev.json": {**sample_contribution_doc(), "prev": "original note"},
    # extension keys: a plain one, one that normalises to a wire name `to_doc`
    # omits and one to a wire name it writes, and two that normalise alike
    "entry-fields.json": {**sample_contribution_doc(), "id": "pl:contrib:wedesign:fields:001",
                          "createdAt": "2025-07-04T00:00:00Z", "contribution": {
        **sample_contribution_doc()["contribution"], "note": "plain", "Intended_Use": "ext",
        "Artifact_Ref": "shadowed", "extScore": "7", "ext_score": 8}},
    "deep.json": DEEP,
    "long-integer.json": json.dumps(sample_contribution_doc()).replace(
        '"amount": 50', f'"amount": {LONG_INTEGER}'),
    "surrogate.json": {**sample_contribution_doc(), "contribution": {
        **sample_contribution_doc()["contribution"], "summary": "\ud800x"}},
    "surrogate-policy.json": {**POLICY_DOC, "note": "\ud800x"},
    "not-utf-8.json": b'{"scores": [0.9], "note": "\xff"}',
    "policy.json": POLICY_DOC,
    "voucher-pause.json": PAUSE,
    "voucher-resident.json": {**PAUSE, "steward": {"role": "resident", "pseudonym": "R1"}},
    "voucher-unknown-test.json": {**PAUSE, "action": "condition",
                                  "conditions": [{"requiredTestId": "pl:test:nowhere:001"}]},
    "cases.json": [{"case": "Toronto, ON", "codings": {"recruitmentPathway": "Reported"}},
                   {"case": 'the "pilot" site', "codings": {}}],
    "q.plq": "MATCH (t:Test) RETURN t.id, t.topic;",
    "test-privacy.json": _test_doc("pl:test:privacy:001", runnerKind="threshold",
                                   metricName="leakRate", comparator="<=", bound=0.1),
    "test-002.json": _test_doc("pl:test:accessibility:002"),
    "results/pl-test-accessibility-001.result": SCORES,
    "results-skip/pl-test-accessibility-001.result": '{"scores": [[5, 5], [5, 5], [5, 5]]}',
    "results-skip/pl-test-privacy-001.result": "not json",
    "results-refused/pl-test-accessibility-001.result": SCORES,
    "results-refused/pl-test-accessibility-002.result": '{"scores": "none"}',
    "results-nan/pl-test-accessibility-001.result": SCORES,
    "results-nan/pl-test-privacy-001.result": '{"value": NaN}',
    "gen-audit.pledger": _gen("audit", 0.05),
    "gen-govern.pledger": _gen("govern", 0.2),
    "gen-release.pledger": _gen("release", 0.1),
    "gen-results/pl-test-accessibility-0-001.result": '{"value": 0.9}',
    "gen-results/pl-test-privacy-1-001.result": '{"value": 0.5}',
    "gen-voucher.json": {**PAUSE, "capability": "text-generation", "boundary": "boundary-0",
                         "action": "condition", "conditions": [
                             {"requiredTestId": "pl:test:accessibility-0:001"},
                             {"requiredTestId": "pl:test:privacy-1:001"}]},
}


def build_input(inputs: Path, name: str) -> Path:
    """inputs/name, built on first use; a directory with all of its files."""
    path = inputs / name
    if path.exists():
        return path
    for key in [key for key in INPUTS if key == name or key.startswith(name + "/")]:
        value, target = INPUTS[key], inputs / key
        target.parent.mkdir(exist_ok=True)
        if callable(value):
            value(inputs, target)
        elif isinstance(value, bytes):
            target.write_bytes(value)
        else:
            target.write_text(value if isinstance(value, str) else json.dumps(value), "utf-8")
    return path


# ---------------------------------------------------------------------------
# the cases: the inputs each starts from, and its commands

NOW = "--now 2025-06-27T00:00:00Z"
GATE = ("gate check --capability image-generation --boundary consultation_workflow "
        f"--version v3 {NOW}")
WINDOW = "--window-start 2025-05-01T00:00:00Z --window-end 2025-06-30T00:00:00Z"
HARNESS = ("harness run --artifact pl:artifact:consult:imagegen --version v3 "
           "--checkpoint scheduledAudit")
REDACT = "redact --reason legalHold --role auditor --pseudonym A1"
RESIDENT = "redact --reason legalHold --role resident --pseudonym R1"
PROMPT = f"{REDACT} --target pl:contrib:wedesign:prompt:001 --created-at 2025-07-05T00:00:00Z"
EXPORT = "export --release pl:artifact:consult:imagegen@v3"
SAVED = "--saved regression-attribution --param topic=accessibility"
ISSUE = "voucher issue --created-at 2025-07-02T00:00:00Z --payload"
# Every command that reads a ledger, with what it needs besides --ledger.
READERS = ["verify", GATE, "audit linkage", "audit consent", "audit evidence",
           "credit report --beneficiary pl:org:wedesign-steward --window-start "
           "2025-05-01T00:00:00Z --window-end 2025-12-31T00:00:00Z",
           "query 'MATCH (t:Test) RETURN t.id, t.topic;'", f"{EXPORT} {NOW}",
           "query 'MATCH (t:Test)<-[:USES_TEST]-(x) RETURN t.id, x.id;'",
           "query 'MATCH (c:Contribution)-[:INFLUENCES]-(x) RETURN c.id, x.id;'",
           f"query --explain {SAVED} --param boundary=consultation_workflow",
           "query --file - < q.plq", f"{EXPORT} {NOW} --out r.json"]
# Field reads: a tombstoned node's, extension keys', an alias's, a fallback's.
FIELD_QUERIES = [
    "query 'MATCH (c:Contribution) RETURN c.id, c.kind, c.note, c.intended_use, "
    "c.artifact_ref, c.ext_score, c.EXTSCORE;'",
    "query 'MATCH (c:Contribution) WHERE c.extscore = \"7\" RETURN c.id, c.Note;'",
    "query 'MATCH (r:EvaluationRun) RETURN r.id, r.artifact_version, r.timestamp;'",
    "query 'MATCH (t:Test) RETURN t.id, t.timestamp, t.createdAt;'"]
GEN_GATE = ("gate check --capability {} --boundary boundary-{} --version v{} "
            "--now 2026-01-01T00:00:00Z")
GEN_WINDOW = "--window-start 2025-01-01T00:00:00Z --window-end 2026-06-30T00:00:00Z"


def _on(ledger: str, *commands: str) -> list[str]:
    # `--ledger` goes before a trailing `< FILE`.
    return [" < ".join([f"{head} --ledger {ledger}", *rest])
            for head, *rest in (command.split(" < ") for command in commands)]


CASES: dict[str, tuple[list[str], list[str]]] = {
    "help-and-usage": ([], ["--help", "gate check --help", "frobnicate", "query --format xml"]),
    **{f"readers-{fmt}": (["lifecycle.pledger", "q.plq", "cases.json"], [
        *_on(f"lifecycle.pledger --format {fmt}", *READERS),
        f"audit evidence --cases cases.json --format {fmt}",
        f"audit conformance --export r.json --format {fmt}"]) for fmt in ("text", "csv", "doc")},
    **{f"writers-{fmt}": (["lifecycle.pledger", "results", "voucher-pause.json", "policy.json",
                           "entry.json"], [*_on(
        f"lifecycle.pledger --format {fmt}",
        f"{HARNESS} --results results --created-at 2025-07-01T00:00:00Z",
        f"{ISSUE} voucher-pause.json",
        "voucher transition --voucher pl:voucher:image-generation:001 --to active "
        "--created-at 2025-07-03T00:00:00Z", GATE.replace(NOW, "--now 2025-07-04T00:00:00Z"),
        "credit accrue --policy policy.json --window-start 2025-05-01T00:00:00Z "
        "--window-end 2025-07-31T00:00:00Z", PROMPT,
        "verify"), f"append entry.json --ledger fresh.pledger --format {fmt}"])
        for fmt in ("text", "csv", "doc")},
    "lifecycle-stages": (["mid.pledger", "paused.pledger"], [
        *_on("mid.pledger", "verify", GATE), *_on("paused.pledger", "verify", GATE.replace(
            f"v3 {NOW}", "v2 --now 2025-06-21T00:00:00Z"))]),
    "missing-and-unreadable-ledgers": (["adir", "afile", "entry.json"], [
        *_on("nodir/new.pledger", PROMPT), *_on("adir", "verify", GATE, "append entry.json"),
        "verify --ledger absent.pledger", "verify",
        "append entry.json --ledger afile/new.pledger"]),
    "unreadable-named-files": (["lifecycle.pledger", "adir", "not-utf-8.json"], [
        "audit conformance --export adir", "audit conformance --export - < not-utf-8.json",
        *_on("lifecycle.pledger", f"{EXPORT} --out adir", *[
            command.format(bad) for bad in ("adir", "not-utf-8.json") for command in (
                "append {}", f"{ISSUE} {{}}", "audit evidence --cases {}",
                f"credit accrue --policy {{}} {WINDOW}", "query --file {}")])]),
    "signed-append": (["entry.json"], [
        "append --ledger nodir/new.pledger --hmac-key bad entry.json",
        "append --ledger fresh.pledger --hmac-key k1=SECRET entry.json",
        *_on("fresh.pledger", *[f"verify --hmac-key {key}"
                                for key in ("k1=SECRET", "k1=WRONG", "no-separator")])]),
    "signed-harness-run": (["lifecycle.pledger", "results"], _on(
        "lifecycle.pledger",
        f"{HARNESS} --results results --created-at 2025-07-01T00:00:00Z "
        "--hmac-key steward-key=SECRET", *[f"verify --hmac-key {key}" for key in (
            "steward-key=SECRET", "steward-key=WRONG", "other-key=SECRET")])),
    "refused-writers-start-nothing": (["policy.json", "voucher-unknown-test.json",
                                       "lifecycle.pledger"], [
        *_on("nodir/new.pledger", "credit accrue --policy policy.json --window-start garbage "
             "--window-end 2025-07-31T00:00:00Z",
             f"{ISSUE} voucher-unknown-test.json"),
        f"credit accrue --ledger new.pledger --policy policy.json {WINDOW}",
        "voucher transition --voucher pl:voucher:consult:imagegen-pause:001 --to active "
        "--created-at 2025-07-01T00:00:00Z --ledger lifecycle.pledger"]),
    "accrue-the-lifecycle-credit": (["mid.pledger", "lifecycle.pledger", "policy.json"], _on(
        "mid.pledger", *[f"credit accrue --policy policy.json {WINDOW}"] * 2,
        f"{REDACT} --created-at 2025-07-01T00:00:00Z --target pl:credit:regressiondetected:"
        "pl-run-accessibility-v2-001:pl-org-wedesign-steward",
        f"credit accrue --policy policy.json {WINDOW}",
        "credit report --beneficiary nobody --window-start garbage "
        "--window-end 2025-12-31T00:00:00Z")),
    # Refused for the entry's own rules (a role), and a tombstone's target
    # refused whatever the role: exit 5, no file changed.
    "writer-refusals": (["lifecycle.pledger", "voucher-resident.json"], _on(
        "lifecycle.pledger", PROMPT.replace(REDACT, RESIDENT), f"{ISSUE} voucher-resident.json",
        PROMPT, f"{RESIDENT} --target pl:tomb:contrib:wedesign:prompt:001 "
        "--created-at 2025-07-06T00:00:00Z")),
    "signature-not-base64": (["bad-signature.pledger"], _on(
        "bad-signature.pledger", "verify --hmac-key k1=SECRET",
        "verify --hmac-key k1=SECRET --format doc", "verify")),
    "redact-with-id": (["lifecycle.pledger"], _on(
        "lifecycle.pledger", f"{PROMPT} --id pl:tomb:chosen:001",
        "query 'MATCH (t:Tombstone) RETURN t.id, t.targetId;'", "verify")),
    "reserved-prev": (["entry-prev.json", "prev-note.pledger"], [
        "append --ledger nodir/new.pledger entry-prev.json", "verify --ledger prev-note.pledger"]),
    "redacted-contribution": (["lifecycle.pledger"], _on(
        "lifecycle.pledger", PROMPT,
        "query --format csv 'MATCH (c:Contribution) RETURN c.id, c.kind, c.createdAt;'",
        "audit evidence --format csv", "verify")),
    "query-fields": (["lifecycle.pledger", "entry-fields.json"], [
        *_on("lifecycle.pledger", "append entry-fields.json", PROMPT),
        *(command for fmt in ("text", "csv", "doc")
          for command in _on(f"lifecycle.pledger --format {fmt}", *FIELD_QUERIES))]),
    "redacted-test-results": (["lifecycle.pledger", "test-privacy.json", "results-skip"], _on(
        "lifecycle.pledger", "append test-privacy.json",
        f"{REDACT} --target pl:test:privacy:001 --created-at 2025-07-01T00:00:01Z",
        f"{HARNESS} --results results-skip --created-at 2025-07-02T00:00:00Z")),
    "harness-verdicts": (["lifecycle.pledger", "test-002.json", "results-refused", "results"],
                         _on("lifecycle.pledger", "append test-002.json", *[
        f"{HARNESS} --results {results} --created-at 2025-07-01T00:00:00Z"
        for results in ("results-refused", "nowhere", "results")])),
    "broken-chains": ([*(f"{name}.pledger" for name in BROKEN_CHAINS), "entry-new.json"], [
        command for name in BROKEN_CHAINS for command in _on(
            f"{name}.pledger", "verify", "verify --format doc", GATE, "audit linkage",
            "append entry-new.json", PROMPT)]),
    "kept-chains": ([f"{name}.pledger" for name in KEPT_CHAINS], [
        command for name in KEPT_CHAINS for command in _on(
            f"{name}.pledger", "verify", "verify --format doc", GATE, PROMPT)]),
    "torn-tail": (["torn.pledger"], _on(
        "torn.pledger", "verify", GATE, PROMPT, "verify")),
    "nan-line": (["nan.pledger"], _on("nan.pledger", "verify", GATE, f"{EXPORT} --out r.json")),
    "long-integer": (["long-integer.pledger", "long-integer.json"], [
        *_on("long-integer.pledger", "verify", GATE),
        "append --ledger nodir/new.pledger long-integer.json"]),
    # A later test's result with no canonical form: the suite appends no run.
    "harness-unrenderable-result": (["lifecycle.pledger", "test-privacy.json", "results-nan"],
                                    _on("lifecycle.pledger", "append test-privacy.json",
                                        f"{HARNESS} --results results-nan "
                                        "--created-at 2025-07-02T00:00:00Z", "verify")),
    "deep-nesting": (["deep-line.pledger", "deep.json"], [
        *_on("deep-line.pledger", "verify", GATE),
        "append --ledger nodir/new.pledger deep.json"]),
    "lone-surrogate": (["surrogate.json", "surrogate-policy.json", "mid.pledger",
                        "surrogate-line.pledger", "surrogate-link.pledger"], [
        "append --ledger nodir/new.pledger surrogate.json",
        f"credit accrue --ledger mid.pledger --policy surrogate-policy.json {WINDOW}",
        "verify --ledger surrogate-line.pledger", "verify --ledger surrogate-link.pledger"]),
    "gen-audit": (["gen-audit.pledger"], [*_on(
        "gen-audit.pledger", "verify --format doc", GEN_GATE.format("text-generation", 0, 13),
        GEN_GATE.format("image-generation", 1, 7), "audit linkage --format doc",
        "audit consent --format doc", "audit evidence --format csv",
        f"credit report --beneficiary pl:org:g0-steward {GEN_WINDOW} --format doc",
        f"query {SAVED} --param boundary=boundary-0",
        "export --release pl:artifact:bench:model@v10 --out r.json"),
        "audit conformance --export r.json"]),
    "gen-govern": (["gen-govern.pledger", "policy.json"], _on(
        "gen-govern.pledger", *[f"query --format csv '{query}'" for query in (
            'MATCH (c:Contribution)-[:MOTIVATES]->(t:Test) WHERE t.topic = "privacy" '
            'RETURN c.id, t.id;', 'MATCH (r:EvaluationRun)-[:USES_TEST]->(t:Test) '
            'WHERE r.decision = "fail" RETURN r.id, t.id, r.version;',
            'MATCH (ch:Change)-[:INFLUENCED_BY]->(c:Contribution)-[:MOTIVATES]->(t:Test) '
            'RETURN ch.id, c.id, t.id;')],
        *[f"credit accrue --policy policy.json {GEN_WINDOW}"] * 2,
        GEN_GATE.format("text-generation", 2, 9))),
    "gen-release": (["gen-release.pledger", "gen-results", "gen-voucher.json"], _on(
        "gen-release.pledger", "harness run --results gen-results --artifact "
        "pl:artifact:bench:model --version v19 --checkpoint scheduledAudit "
        "--created-at 2026-01-01T00:00:00Z --format doc",
        "voucher issue --payload gen-voucher.json --id pl:voucher:rel:cond-001 "
        "--created-at 2026-01-01T00:01:00Z", "voucher transition --voucher "
        "pl:voucher:rel:cond-001 --to active --created-at 2026-01-01T00:02:00Z",
        GEN_GATE.format("text-generation", 0, 19),
        "redact --target pl:contrib:g0:label:0000 --reason consentWithdrawn --role "
        "communitySteward --steward-org pl:org:bench-stewards --created-at "
        "2026-01-01T00:03:00Z", "verify")),
}


# ---------------------------------------------------------------------------
# the runner


def side_command(side: str) -> tuple[list[str], dict[str, str]]:
    """The command prefix and environment that run pledger from `side`."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PLEDGER_LEDGER")}
    if (Path(side) / "pledger").is_dir():
        return [sys.executable, "-m", "pledger"], {**env, "PYTHONPATH": str(Path(side).resolve())}
    found = shutil.which(side)
    if found is None:
        raise SystemExit(f"{side}: neither a directory holding pledger nor a command on PATH")
    return [found], env


def run_case(side: str, inputs: Path, work: Path, files: list[str], commands: list[str]):
    """The record of one case run from `side` in the new directory `work`:
    (command, exit code, stdout, stderr) per command, and the files left."""
    work.mkdir(parents=True)
    for source in [inputs / name for name in files] + [inputs / f"{n}.head" for n in files]:
        if source.is_dir():
            shutil.copytree(source, work / source.name)
        elif source.exists():
            shutil.copyfile(source, work / source.name)
    prefix, env = side_command(side)
    record = []
    for command in commands:
        argv, _, stdin = command.partition(" < ")
        done = subprocess.run(prefix + shlex.split(argv), cwd=work, env=env, timeout=300,
                              input=(work / stdin).read_bytes() if stdin else b"",
                              capture_output=True)
        record.append((command, done.returncode, done.stdout, done.stderr))
    return record, tree(work)


def run(left: str, right: str, names, root: Path) -> tuple[dict, dict]:
    """Each named case's record on each side, its inputs built under `root`."""
    (root / "inputs").mkdir()
    for file in {file for name in names for file in CASES[name][0]}:
        build_input(root / "inputs", file)

    def record(side: str, label: str) -> dict:
        return {name: run_case(side, root / "inputs", root / label / name, *CASES[name])
                for name in names}

    with ThreadPoolExecutor(2) as pool:
        return tuple(pool.map(record, (left, right), ("left", "right")))


def differences(left: dict, right: dict) -> list[str]:
    """A line per case whose records differ: its first differing command and
    field, or the files that differ."""
    lines = []
    for name, (commands, files) in left.items():
        other_commands, other_files = right[name]
        for ours, theirs in zip(commands, other_commands):
            if ours != theirs:
                fields = [f"exit {ours[1]} -> {theirs[1]}"] if ours[1] != theirs[1] else []
                fields += [f for i, f in ((2, "stdout"), (3, "stderr")) if ours[i] != theirs[i]]
                lines.append(f"{name}: {ours[0]}: {', '.join(fields)}")
                break
        else:
            if files != other_files:
                lines.append(f"{name}: files " + ", ".join(sorted(
                    p for p in files.keys() | other_files.keys()
                    if files.get(p, 0) != other_files.get(p, 0))))
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tests/corpus.py LEFT RIGHT", file=sys.stderr)
        return 64
    with tempfile.TemporaryDirectory() as root:
        lines = differences(*run(*argv, CASES, Path(root)))
    print(f"{len(CASES)} cases, {len(lines)} differ", *lines, sep="\n")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
