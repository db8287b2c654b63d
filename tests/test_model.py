"""Entry documents: parsing, serialization fixpoints, ids, validation rules."""

import copy
import importlib
import json
import pkgutil
import random
from datetime import datetime, timezone
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import digest_of, make_contribution, random_envelope, sealed_chain, sha_ref
import pledger
from pledger import parse_entry, serialize_entry, validate_structure
from pledger.errors import (
    CorruptLine,
    InvalidId,
    LedgerError,
    InvalidTimestamp,
    MalformedDocument,
    PayloadMismatch,
    UnknownEntryType,
)
from pledger.fixtures import sample_contribution_doc
from pledger import model, store
from pledger.evidence import (
    ClauseResult,
    ConformanceReport,
    EvidenceMatrix,
    ReleaseExport,
    VoucherDisclosure,
)
from pledger.governance import (
    AccrualReport,
    CreditPolicy,
    CreditStatement,
    GateDecision,
    GateReason,
    SuppressedEvent,
    _Event,
)
from pledger.graph import LinkageReport, TraceResult
from pledger.harness import RegressionEvent, SuiteReport
from pledger.integrity import ChainVerdict, SignatureReport, SignatureVerdict
from pledger.model import (
    ActorRef,
    ArtifactPayload,
    ChangedArtifact,
    ChangePayload,
    CompensationBlock,
    ConsentBlock,
    ContributionPayload,
    CreditPayload,
    EntryEnvelope,
    EntryType,
    EvaluationRunPayload,
    IntegrityBlock,
    LinkSet,
    MeasurementProcedure,
    SignatureRecord,
    TombstonePayload,
    TriggeringEvent,
    ValidationReport,
    Violation,
    VoucherCondition,
    VoucherPayload,
    check_entry_id,
    format_timestamp,
    in_vocab,
    is_timestamp,
    lineage_base,
    parse_timestamp,
)
from pledger.query import (
    EdgePattern,
    NodePattern,
    PathPattern,
    Predicate,
    Projection,
    QueryAst,
    ResultTable,
    SavedQuery,
    _Token,
)
from pledger.store import read_entries


def test_sample_document_round_trips_exactly():
    doc = sample_contribution_doc()
    entry = parse_entry(doc)
    assert entry.to_doc() == doc
    assert json.loads(serialize_entry(entry)) == doc


def test_random_envelopes_serialize_to_a_fixpoint():
    rng = random.Random(99)
    for i in range(500):
        entry = random_envelope(rng, i)
        doc = entry.to_doc()
        reparsed = parse_entry(doc)
        assert reparsed.to_doc() == doc
        assert parse_entry(json.loads(serialize_entry(entry))).to_doc() == doc


def test_random_envelopes_validate_clean():
    rng = random.Random(17)
    for i in range(200):
        entry = random_envelope(rng, i)
        report = validate_structure(entry)
        assert report.ok(), f"{entry.id}: {report.summary()}"


def test_extension_fields_survive_and_change_the_hash():
    from pledger import canonical_bytes

    doc = sample_contribution_doc()
    doc["extAnnotation"] = {"source": "workshop-3"}
    doc["actor"]["extBadge"] = "gold"
    doc["consent"]["extFormVersion"] = 2
    doc["compensation"]["extInvoice"] = "inv-9"
    doc["contribution"]["extTheme"] = "waterfront"
    entry = parse_entry(doc)
    assert entry.to_doc() == doc
    assert entry.extensions == {"extAnnotation": {"source": "workshop-3"}}
    assert entry.actor.extensions == {"extBadge": "gold"}
    assert entry.payload.extensions == {"extTheme": "waterfront"}

    plain = canonical_bytes(parse_entry(sample_contribution_doc()).to_doc(include_integrity=False))
    extended = canonical_bytes(entry.to_doc(include_integrity=False))
    assert plain != extended


def test_context_is_kept_and_emitted_first():
    doc = sample_contribution_doc()
    doc["@context"] = "https://ledger.example/context/v1"
    entry = parse_entry(doc)
    assert entry.context == "https://ledger.example/context/v1"
    assert next(iter(entry.to_doc())) == "@context"


@pytest.mark.parametrize("breakage,error", [
    (lambda d: d.update(type="Song"), UnknownEntryType),
    (lambda d: d.update(type=7), MalformedDocument),
    (lambda d: d.update(id="pl:change:wedesign:prompt:001"), InvalidId),
    (lambda d: d.update(createdAt="yesterday"), InvalidTimestamp),
    (lambda d: d.pop("contribution"), PayloadMismatch),
    (lambda d: d.update(change={"changeKind": "dataset"}), PayloadMismatch),
    (lambda d: d.update(contribution="prompt"), MalformedDocument),
    (lambda d: d.update(actor="P12"), MalformedDocument),
    (lambda d: d.update(links=[1, 2]), MalformedDocument),
])
def test_parse_errors(breakage, error):
    doc = sample_contribution_doc()
    breakage(doc)
    with pytest.raises(error):
        parse_entry(doc)


def test_parse_rejects_non_documents():
    with pytest.raises(MalformedDocument):
        parse_entry("not json {")
    with pytest.raises(MalformedDocument):
        parse_entry(json.dumps([1, 2]))


def test_entry_ids():
    check_entry_id("pl:contrib:wedesign:prompt:001", EntryType.CONTRIBUTION)
    with pytest.raises(InvalidId):
        check_entry_id("pl:contrib", EntryType.CONTRIBUTION)  # needs a segment
    with pytest.raises(InvalidId):
        check_entry_id("pl:change:x:1", EntryType.CONTRIBUTION)  # kind mismatch
    with pytest.raises(InvalidId):
        check_entry_id("pl:contrib:Bad:1", EntryType.CONTRIBUTION)  # uppercase
    assert lineage_base("pl:voucher:a:b") == ("pl:voucher:a:b", 0)
    assert lineage_base("pl:voucher:a:b:rev3") == ("pl:voucher:a:b", 3)
    assert lineage_base("pl:contrib:a:rev1:rev2") == ("pl:contrib:a:rev1", 2)


def test_timestamps():
    assert is_timestamp("2025-05-10T14:30:00Z")
    assert not is_timestamp("2025-05-10 14:30:00")
    assert not is_timestamp("2025-13-10T14:30:00Z")
    assert not is_timestamp("2025-05-10T14:30:00+02:00")
    moment = parse_timestamp("2025-05-10T14:30:00Z")
    assert format_timestamp(moment) == "2025-05-10T14:30:00Z"


def test_vocabulary_extension_escape():
    assert in_vocab("model", {"model"})
    assert not in_vocab("Model", {"model"})
    assert in_vocab("extension:deployment", {"model"})
    assert not in_vocab("extension:", {"model"})
    assert not in_vocab("extension:Bad", {"model"})


def fresh(mutator):
    doc = sample_contribution_doc()
    mutator(doc)
    return parse_entry(doc)


@pytest.mark.parametrize("mutator,rule", [
    (lambda d: d["actor"].update(role="stranger"), "actor.role"),
    (lambda d: d["actor"].pop("pseudonym"), "actor.identity"),
    (lambda d: d["consent"].update(status="maybe"), "consent.status"),
    (lambda d: d["consent"].update(retention="3 years"), "consent.retention"),
    (lambda d: d["consent"].update(reuseConstraints="none"), "consent.reuseConstraints"),
    (lambda d: d["compensation"].update(model="barter"), "compensation.model"),
    (lambda d: d["compensation"].update(amount=-5), "compensation.amount"),
    (lambda d: d["compensation"].update(currency="cad"), "compensation.currency"),
    (lambda d: d["compensation"].pop("amount"), "compensation.terms"),
    (lambda d: d.pop("consent"), "contribution.consent-required"),
    (lambda d: d.pop("compensation"), "contribution.compensation-required"),
    (lambda d: d["links"].update(influences=["not an id"]), "links.target"),
    (lambda d: d["contribution"].update(kind="poem"), "contribution.kind"),
    (lambda d: d["contribution"].update(summary=""), "contribution.summary"),
    (lambda d: d["contribution"].update(artifactRef="blob-7"), "contribution.artifactRef"),
    (lambda d: d["contribution"].update(intendedUse="resale"), "contribution.intendedUse"),
])
def test_validation_rules_fire(mutator, rule):
    report = validate_structure(fresh(mutator))
    assert rule in report.rules(), report.summary()


def test_validation_is_empty_on_good_entries():
    assert validate_structure(parse_entry(sample_contribution_doc())).ok()
    assert validate_structure(make_contribution(3)).ok()


def test_validation_catches_bad_id_and_timestamp_on_built_entries():
    entry = make_contribution(1)
    bad_id = replace(entry, id="pl:change:gen:0001")
    assert "id.grammar" in validate_structure(bad_id).rules()
    bad_time = replace(entry, created_at="yesterday")
    assert "createdAt.format" in validate_structure(bad_time).rules()


def test_evidence_links_accept_uris_other_links_do_not():
    doc = sample_contribution_doc()
    doc["links"]["evidence"] = ["https://archive.example/log/7"]
    assert validate_structure(parse_entry(doc)).ok()
    doc["links"]["influences"] = ["https://archive.example/log/7"]
    assert "links.target" in validate_structure(parse_entry(doc)).rules()


def test_forward_references_are_structurally_legal():
    entry = make_contribution(1)
    entry.links.influences.append("pl:test:nowhere:yet:001")
    assert validate_structure(entry).ok()


def test_validation_mutation_fuzz_never_crashes():
    rng = random.Random(5)
    keys = ("id", "type", "createdAt", "actor", "consent", "compensation",
            "contribution", "links")
    junk = (None, 0, -1.5, "", "x", [], {}, True)
    for _ in range(1000):
        doc = sample_contribution_doc()
        key = rng.choice(keys)
        doc[key] = rng.choice(junk)
        try:
            entry = parse_entry(doc)
        except (MalformedDocument, UnknownEntryType, PayloadMismatch,
                InvalidId, InvalidTimestamp):
            continue
        validate_structure(entry)  # must return a report, never raise


def test_actor_display_name_prefers_steward_org():
    assert ActorRef(role="resident", pseudonym="P1").display_name() == "P1"
    assert ActorRef(role="resident", pseudonym="P1",
                    steward_org="pl:org:x").display_name() == "pl:org:x"
    assert ActorRef(role="resident").display_name() == ""


def test_reference_helpers():
    from pledger.model import is_artifact_ref, is_digest, is_reference_id

    assert is_reference_id("pl:evidence:workshoplog:001")
    assert not is_reference_id("pl:")
    assert not is_reference_id("artifact:prompt:x")
    assert is_digest(digest_of("x"))
    assert not is_digest("sha256:xyz")
    assert is_artifact_ref(sha_ref("x"))
    assert is_artifact_ref("https://cdn.example/blob/1")
    assert not is_artifact_ref("blob-1")


@pytest.mark.parametrize("text,slug", [
    ("a-!b", "a-b"),  # a hyphen next to a replaced run folds into one
    ("!!", "x"),
])
def test_slug_folds_hyphen_runs_and_is_never_empty(text, slug):
    assert model._slug(text) == slug


# ---------------------------------------------------------------------------
# decoder and timestamp strictness


@pytest.mark.parametrize("value", [
    "2024-02-29T00:00:00Z",
    "2025-12-31T23:59:59Z",
    "1970-01-01T00:00:00Z",
])
def test_parse_timestamp_accepts_real_instants(value):
    moment = parse_timestamp(value)
    assert moment.tzinfo is timezone.utc
    assert format_timestamp(moment) == value


@pytest.mark.parametrize("year", [1, 999, 1000])
def test_early_years_format_with_four_digits_and_round_trip(year):
    moment = datetime(year, 1, 2, 3, 4, 5, tzinfo=timezone.utc)
    text = format_timestamp(moment)
    assert text == f"{year:04d}-01-02T03:04:05Z"
    assert parse_timestamp(text) == moment


@pytest.mark.parametrize("value", [
    "2025-02-29T00:00:00Z",   # not a leap year
    "2025-04-31T00:00:00Z",
    "2025-01-01T24:00:00Z",
    "2025-01-01T23:60:00Z",
    "2025-01-01T23:59:60Z",
    "2025-00-10T00:00:00Z",
    "2025-13-10T00:00:00Z",
    "2025-01-00T00:00:00Z",
    "0000-01-01T00:00:00Z",
    "2025-01-01T00:00:00Z\n",
    "\n2025-01-01T00:00:00Z",
    "2025-01-01T00:00:00z",
    "2025-01-01T00:00:00.5Z",
    "\u0662\u0660\u0662\u0666-01-01T00:00:00Z",  # Arabic-Indic digits
    "2025-01-01T00:00:0\uff10Z",                    # fullwidth zero
    20250101,
    None,
    b"2025-01-01T00:00:00Z",
])
def test_parse_timestamp_rejects(value):
    with pytest.raises(InvalidTimestamp):
        parse_timestamp(value)
    assert not is_timestamp(value)


def test_anchored_patterns_reject_a_trailing_newline():
    from pledger.model import is_artifact_ref, is_digest, is_reference_id, is_uri

    with pytest.raises(InvalidId):
        check_entry_id("pl:contrib:dup\n", EntryType.CONTRIBUTION)
    assert not is_reference_id("pl:contrib:dup\n")
    assert not is_digest(digest_of("x") + "\n")
    assert not is_artifact_ref(sha_ref("x") + "\n")
    assert not is_uri("https://cdn.example/blob/1\n")
    assert not in_vocab("extension:local\n", {"model"})
    assert lineage_base("pl:voucher:a:rev3\n") == ("pl:voucher:a:rev3\n", 0)

    doc = sample_contribution_doc()
    doc["id"] = doc["id"] + "\n"
    with pytest.raises(InvalidId):
        parse_entry(doc)
    doc = sample_contribution_doc()
    doc["createdAt"] += "\n"
    with pytest.raises(InvalidTimestamp):
        parse_entry(doc)


@pytest.mark.parametrize("mutator,rule", [
    (lambda d: d["consent"].update(retention="3y\n"), "consent.retention"),
    (lambda d: d["compensation"].update(currency="CAD\n"), "compensation.currency"),
    (lambda d: d["links"].update(evidence=["https://archive.example/log/7\n"]), "links.target"),
    (lambda d: d["contribution"].update(artifactRef=sha_ref("x") + "\n"),
     "contribution.artifactRef"),
    (lambda d: d["actor"].update(role="extension:local\n"), "actor.role"),
])
def test_validation_rejects_a_trailing_newline(mutator, rule):
    assert rule in validate_structure(fresh(mutator)).rules()


def test_newline_id_cannot_sit_next_to_its_twin(tmp_path):
    from pledger.errors import ValidationFailed
    from pledger.store import LedgerFile

    with LedgerFile(tmp_path / "dup.pledger") as ledger:
        ledger.append(replace(make_contribution(1), id="pl:contrib:dup"))
        twin = replace(make_contribution(2), id="pl:contrib:dup\n")
        assert "id.grammar" in validate_structure(twin).rules()
        with pytest.raises(ValidationFailed):
            ledger.append(twin)
        assert len(ledger) == 1


@pytest.mark.parametrize("links,error", [
    ([], MalformedDocument),
    ({"influences": "pl:test:x:001"}, MalformedDocument),
    ({"influences": ("pl:test:x:001",)}, MalformedDocument),
    ({"evidence": ["pl:contrib:x:1", 7]}, MalformedDocument),
    ({"extLinks": 5, "usesTest": [None]}, MalformedDocument),
])
def test_link_set_decoder_errors(links, error):
    with pytest.raises(error):
        LinkSet.from_doc(links)
    doc = sample_contribution_doc()
    doc["links"] = links
    with pytest.raises(error):
        parse_entry(doc)


def test_unknown_link_kinds_survive_in_extensions_and_round_trip():
    doc = sample_contribution_doc()
    doc["links"] = {"extCites": ["pl:contrib:other:1"], "usesTest": ["pl:test:x:001"],
                    "extWeight": {"w": 2}}
    entry = parse_entry(doc)
    assert entry.links.extensions == {"extCites": ["pl:contrib:other:1"],
                                      "extWeight": {"w": 2}}
    assert entry.links.uses_test == ["pl:test:x:001"]
    assert entry.links.influences == []
    assert entry.to_doc() == doc
    line = serialize_entry(entry)
    assert serialize_entry(parse_entry(line)) == line


def test_decoded_link_lists_are_copies():
    doc = sample_contribution_doc()
    entry = parse_entry(doc)
    entry.links.influences.append("pl:test:added:001")
    assert "pl:test:added:001" not in doc["links"].get("influences", [])


@pytest.mark.parametrize("value", ["ab", 5, {"k": 1}, 0, "", None])
def test_malformed_scope_constraints_encode_as_decoded(value):
    # Validation, not the codec, rejects a value that is not a list of tags:
    # both encoders write back what was decoded, so a stored line's hash is
    # recomputed over the value it holds.
    doc = {"requiredTestId": "pl:test:x:001", "scopeConstraints": value, "humanInLoop": False}
    condition = VoucherCondition.from_doc(doc)
    assert condition.to_doc() == doc
    row = next(row for row in VoucherCondition.FIELDS if row.name == "scopeConstraints")
    assert row.encode(condition) == value
    assert VoucherCondition.from_doc({**doc, "scopeConstraints": []}).to_doc() == {
        "requiredTestId": "pl:test:x:001", "humanInLoop": False}


def test_parse_errors_keep_their_classes_for_payload_keys():
    doc = sample_contribution_doc()
    doc["change"] = {"changeKind": "dataset"}
    with pytest.raises(PayloadMismatch, match="multiple payload fields"):
        parse_entry(doc)
    doc.pop("contribution")
    with pytest.raises(PayloadMismatch, match="requires a 'contribution' payload, found"):
        parse_entry(doc)
    doc["type"] = "contribution"
    with pytest.raises(UnknownEntryType):
        parse_entry(doc)


def test_random_envelope_ledger_lines_are_fixpoints(tmp_path):
    # Every line a ledger stores is its own canonical rendering, so a file of
    # them, appended through a LedgerFile, verifies as stored.
    rng = random.Random(31)
    for chain in range(5):
        envelopes = [random_envelope(rng, i) for i in range(120)]
        entries = sealed_chain(envelopes)
        for entry in entries:
            line = serialize_entry(entry)
            assert serialize_entry(parse_entry(line)) == line
            assert serialize_entry(parse_entry(line.encode("utf-8"))) == line
        path = tmp_path / f"random-{chain}.pledger"
        with store.LedgerFile(path) as ledger:
            for envelope in envelopes:
                ledger.append(envelope)
        verdict, stored = store.verify_file(path)
        assert (verdict.valid, verdict.entry_count) == (True, 120)
        assert [e.to_doc() for e in stored] == [e.to_doc() for e in entries]


# ---------------------------------------------------------------------------
# decode-error corpus: one malformed document per decode rule, with the
# exception type and message frozen in tests/data/decode_errors.json

CORPUS = json.loads((Path(__file__).parent / "data" / "decode_errors.json").read_text("utf-8"))


def malformed(case: dict):
    """The case's base document with the value at `path` deleted or replaced."""
    if not case["path"]:
        return case["value"]
    doc = copy.deepcopy(CORPUS["bases"][case["base"]])
    target = doc
    for step in case["path"][:-1]:
        target = target[step]
    if case.get("delete"):
        del target[case["path"][-1]]
    else:
        target[case["path"][-1]] = case["value"]
    doc.update(case.get("extra", {}))
    return doc


@pytest.mark.parametrize("base", sorted(CORPUS["bases"]))
def test_decode_corpus_bases_round_trip(base):
    doc = CORPUS["bases"][base]
    assert parse_entry(doc).to_doc() == doc


@pytest.mark.parametrize("case", CORPUS["cases"], ids=[c["case"] for c in CORPUS["cases"]])
def test_decode_error_corpus(case):
    doc = malformed(case)
    for source in (doc, json.dumps(doc)):
        with pytest.raises(LedgerError) as info:
            parse_entry(source)
        assert (type(info.value).__name__, str(info.value)) == (case["error"], case["message"])


@pytest.mark.parametrize("damage,reason", [
    (lambda line: line.replace(b'"evaluator":{', b'"evaluator":"E1","x":{'),
     "run.evaluator must be a JSON object, got str"),
    (lambda line: b"{" + line,
     "not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (lambda line: b"\xff" + line, "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (lambda line: b"", "blank line"),
])
def test_read_entries_names_a_corrupt_line_in_the_middle(lifecycle, tmp_path, damage, reason):
    path, _ids, _entries = lifecycle
    lines = path.read_bytes().split(b"\n")
    assert b'"type":"EvaluationRun"' in lines[7]
    lines[7] = damage(lines[7])
    damaged = tmp_path / "damaged.pledger"
    damaged.write_bytes(b"\n".join(lines))
    with pytest.raises(CorruptLine) as info:
        read_entries(damaged)
    assert info.value.line_number == 8
    assert str(info.value) == f"corrupt ledger line 8: {reason}"


# ---------------------------------------------------------------------------
# validation corpus: one case per rule id, plus one per block with every
# checked field broken, with the ordered (path, rule, message) list frozen in
# tests/data/validation_rules.json

RULES = json.loads((Path(__file__).parent / "data" / "validation_rules.json").read_text("utf-8"))


def edited(case: dict):
    """The case's base entry with its edits applied and envelope attributes replaced."""
    doc = copy.deepcopy(CORPUS["bases"][case["base"]])
    for edit in case["edits"]:
        target = doc
        for step in edit["path"][:-1]:
            target = target[step]
        if edit.get("delete"):
            del target[edit["path"][-1]]
        else:
            target[edit["path"][-1]] = copy.deepcopy(edit["value"])
    return replace(parse_entry(doc), **case.get("replace", {}))


@pytest.mark.parametrize("case", RULES["cases"], ids=[c["case"] for c in RULES["cases"]])
def test_validation_corpus(case):
    report = validate_structure(edited(case))
    assert [[v.path, v.rule, v.message] for v in report.violations] == case["violations"]


def test_validation_corpus_exercises_every_rule_on_a_row():
    from pledger.model import PAYLOAD_CLASS, CompensationBlock, ConsentBlock, IntegrityBlock

    tables = [ActorRef, ConsentBlock, CompensationBlock, LinkSet, IntegrityBlock,
              *PAYLOAD_CLASS.values()]
    declared = set()
    while tables:
        table = tables.pop()
        for row in table.FIELDS:
            if row.test is not None:
                declared.add(row.rule)
            if row.kind in ("block", "blocks"):
                tables.append(row.block)
    exercised = {rule for case in RULES["cases"] for _path, rule, _message in case["violations"]}
    assert len(declared) > 50
    assert declared - exercised == set()


NAN, INF = float("nan"), float("inf")
THRESHOLD = {"runnerKind": "threshold", "metricName": "accuracy", "comparator": ">="}


@pytest.mark.parametrize("value", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("base,path,measurement,rule,message", [
    ("Contribution", ["compensation", "amount"], None,
     "compensation.amount", "must be a nonnegative number, got {!r}"),
    ("Credit", ["credit", "units"], None, "credit.units", "must be a nonnegative number, got {!r}"),
    ("Test", ["test", "measurement", "bound"], THRESHOLD,
     "measurement.bound", "must be a finite number"),
    ("Test", ["test", "measurement", "passMean"], None,
     "measurement.passMean", "must be a number"),
])
def test_numbers_with_no_canonical_form_are_violations(base, path, measurement, rule,
                                                        message, value):
    # NaN and ±inf cannot be sealed (the canonical form has no rendering for
    # them), so validation reports them instead of letting append fail later.
    edits = [{"path": ["test", "measurement"], "value": measurement}] if measurement else []
    entry = edited({"base": base, "edits": edits + [{"path": path, "value": value}]})
    found = [[v.path, v.message] for v in validate_structure(entry).violations if v.rule == rule]
    assert found == [[".".join(path), message.format(value)]]


@pytest.mark.parametrize("base,path,rules", [
    ("Voucher", ["voucher", "status"], ["voucher.status"]),
    ("Tombstone", ["tombstone", "reason"], ["tombstone.reason"]),
    ("Tombstone", ["tombstone", "authorization", "role"],
     ["actor.role", "tombstone.authorization-role"]),
    ("Test", ["test", "measurement", "comparator"], ["measurement.comparator"]),
])
@pytest.mark.parametrize("value", [[], {}], ids=["list", "object"])
def test_unhashable_values_in_closed_vocabularies_are_violations(base, path, rules, value):
    edits = [{"path": ["test", "measurement"], "value": dict(THRESHOLD, bound=1)}] \
        if base == "Test" else []
    entry = edited({"base": base, "edits": edits + [{"path": path, "value": value}]})
    assert [v.rule for v in validate_structure(entry).violations] == rules


# ---------------------------------------------------------------------------
# record classes: construction, defaults, equality, hash, repr, slots, copies

try:
    from pledger.model import replace
except ImportError:  # records were dataclasses before pledger.model.replace existed
    from dataclasses import replace

# Every record class: (class, the values of its required fields, the repr of
# the instance built from them with every default).
RECORDS = [
    (ActorRef, ("resident",),
     "ActorRef(role='resident', pseudonym=None, steward_org=None, extensions={})"),
    (ConsentBlock, ("granted",),
     "ConsentBlock(status='granted', scope=None, retention=None, reuse_constraints=None,"
     " extensions={})"),
    (CompensationBlock, ("none-declared",),
     "CompensationBlock(model='none-declared', amount=None, currency=None, extensions={})"),
    (LinkSet, (),
     "LinkSet(influenced_by=[], influences=[], motivates=[], uses_test=[], evaluates=[],"
     " deployed_as=[], remediates=[], evidence=[], authorizes=[], credits_for=[],"
     " extensions={})"),
    (SignatureRecord, ("hmac-sha256", ActorRef("auditor"), "k1", "c2ln"),
     "SignatureRecord(scheme='hmac-sha256', signer_role=ActorRef(role='auditor',"
     " pseudonym=None, steward_org=None, extensions={}), key_ref='k1', signature_bytes='c2ln',"
     " extensions={})"),
    (IntegrityBlock, ("sha256:00",),
     "IntegrityBlock(hash='sha256:00', prev_hash=None, signature=None)"),
    (ContributionPayload, ("prompt", "a prompt", "https://example.org/p"),
     "ContributionPayload(kind='prompt', summary='a prompt', artifact_ref='https://example.org/p',"
     " intended_use=None, representational_metadata=None, recruitment_pathway=None,"
     " extensions={})"),
    (ChangedArtifact, ("pl:artifact:m", "v2"),
     "ChangedArtifact(artifact_id='pl:artifact:m', version_after='v2', version_before=None,"
     " extensions={})"),
    (ChangePayload, ("dataset", "why"),
     "ChangePayload(change_kind='dataset', rationale='why', changed_artifacts=[], extensions={})"),
    (ArtifactPayload, ("pl:artifact:m", "model", "v1", "https://example.org/m"),
     "ArtifactPayload(artifact_id='pl:artifact:m', artifact_kind='model', version='v1',"
     " content_ref='https://example.org/m', boundary=None, extensions={})"),
    (MeasurementProcedure, ("externalRecordOnly",),
     "MeasurementProcedure(runner_kind='externalRecordOnly', metric_name=None, comparator=None,"
     " bound=None, criteria=None, scale_max=None, aggregation=None, pass_mean=None,"
     " min_raters=None, extensions={})"),
    (model.TestPayload, ("topic", "behaviour", MeasurementProcedure("externalRecordOnly")),
     "TestPayload(topic='topic', expected_behavior='behaviour',"
     " measurement=MeasurementProcedure(runner_kind='externalRecordOnly', metric_name=None,"
     " comparator=None, bound=None, criteria=None, scale_max=None, aggregation=None,"
     " pass_mean=None, min_raters=None, extensions={}), input_spec={}, motivated_by=[],"
     " extensions={})"),
    (EvaluationRunPayload,
     ("pl:test:t", "pl:artifact:m", "v1", "pass", "scheduledAudit", ActorRef("evaluator")),
     "EvaluationRunPayload(test_id='pl:test:t', artifact_id='pl:artifact:m', version='v1',"
     " decision='pass', checkpoint='scheduledAudit', evaluator=ActorRef(role='evaluator',"
     " pseudonym=None, steward_org=None, extensions={}), raw_results={}, timestamp=None,"
     " unattested_by_harness=None, extensions={})"),
    (VoucherCondition, ("pl:test:t",),
     "VoucherCondition(required_test_id='pl:test:t', must_pass_on_version=None,"
     " scope_constraints=[], human_in_loop=False, extensions={})"),
    (VoucherPayload, ("cap", "bound", "pause", ActorRef("communitySteward"), "issued"),
     "VoucherPayload(capability='cap', boundary='bound', action='pause',"
     " steward=ActorRef(role='communitySteward', pseudonym=None, steward_org=None,"
     " extensions={}), status='issued', conditions=[], expiry=None, extensions={})"),
    (TriggeringEvent, ("regressionDetected",),
     "TriggeringEvent(kind='regressionDetected', evaluation_run_id=None, change_id=None,"
     " extensions={})"),
    (CreditPayload, ("org", TriggeringEvent("regressionDetected"), 5, "sha256:00"),
     "CreditPayload(beneficiary='org', triggering_event=TriggeringEvent("
     "kind='regressionDetected', evaluation_run_id=None, change_id=None, extensions={}),"
     " units=5, policy_ref='sha256:00', extensions={})"),
    (TombstonePayload, ("pl:contrib:c", "legalHold", ActorRef("auditor"), "sha256:00"),
     "TombstonePayload(target_id='pl:contrib:c', reason='legalHold',"
     " authorization=ActorRef(role='auditor', pseudonym=None, steward_org=None, extensions={}),"
     " retained_hash='sha256:00', extensions={})"),
    (CreditPolicy, (),
     "CreditPolicy(units_per_event={}, cap_per_beneficiary_per_period=0, period_days=365,"
     " quality_gate=True, persistence_gate_releases=0, extensions={})"),
    (VoucherDisclosure, ("pl:voucher:v",),
     "VoucherDisclosure(voucher_id='pl:voucher:v', gate=None, extensions={})"),
    (ReleaseExport, ({"artifactId": "pl:artifact:m", "version": "v1"}, []),
     "ReleaseExport(release={'artifactId': 'pl:artifact:m', 'version': 'v1'}, entries=[],"
     " active_vouchers=[], extensions={})"),
    (EntryEnvelope, ("pl:test:t", EntryType.TEST, "2025-01-01T00:00:00Z", "actor", "payload"),
     "EntryEnvelope(id='pl:test:t', entry_type=<EntryType.TEST: 'Test'>,"
     " created_at='2025-01-01T00:00:00Z', actor='actor', payload='payload', consent=None,"
     " compensation=None, links=LinkSet(influenced_by=[], influences=[], motivates=[],"
     " uses_test=[], evaluates=[], deployed_as=[], remediates=[], evidence=[], authorizes=[],"
     " credits_for=[], extensions={}), context=None, integrity=None, extensions={})"),
    (Violation, ("id", "id.grammar", "bad id"),
     "Violation(path='id', rule='id.grammar', message='bad id')"),
    (ValidationReport, (), "ValidationReport(violations=[])"),
    (TraceResult, (), "TraceResult(paths=[], truncated=False)"),
    (LinkageReport, (4, 3, 2, 1, 0, Fraction(1, 4)),
     "LinkageReport(total_changes=4, changes_with_contribution=3, changes_with_test=2,"
     " changes_fully_linked=1, tests_with_run=0, completeness_ratio=Fraction(1, 4),"
     " dangling=[])"),
    (ChainVerdict, (True,),
     "ChainVerdict(valid=True, first_broken_index=None, failure_kind=None, entry_count=0)"),
    (SignatureVerdict, ("pl:contrib:c", "absent"),
     "SignatureVerdict(entry_id='pl:contrib:c', status='absent', scheme=None)"),
    (SignatureReport, (), "SignatureReport(verdicts=[])"),
    (GateReason, (None, "defaultAllow"), "GateReason(voucher_id=None, reason_kind='defaultAllow')"),
    (GateDecision, (True,),
     "GateDecision(allowed=True, reasons=[], evaluated_at='', expired_vouchers=[])"),
    (_Event, ("regressionDetected", "pl:run:r", "pl:test:t", ["org"]),
     "_Event(kind='regressionDetected', anchor='pl:run:r', test_id='pl:test:t',"
     " beneficiaries=['org'])"),
    (SuppressedEvent, ("regressionDetected", "pl:run:r", "capReached"),
     "SuppressedEvent(kind='regressionDetected', trigger_id='pl:run:r', reason='capReached',"
     " beneficiary=None)"),
    (AccrualReport, (("2025-01-01", "2026-01-01"), "sha256:00"),
     "AccrualReport(window=('2025-01-01', '2026-01-01'), policy_ref='sha256:00', considered=0,"
     " credits=[], suppressed=[])"),
    (CreditStatement, ("org", ("2025-01-01", "2026-01-01")),
     "CreditStatement(beneficiary='org', window=('2025-01-01', '2026-01-01'), lines=[],"
     " total_units=Decimal('0'), policy_refs=[])"),
    (_Token, ("IDENT", "t", 6), "_Token(kind='IDENT', text='t', position=6)"),
    (NodePattern, ("t",), "NodePattern(var='t', label=None)"),
    (EdgePattern, ("usesTest", "forward"), "EdgePattern(relation='usesTest', direction='forward')"),
    (PathPattern, ([NodePattern("t")], []),
     "PathPattern(nodes=[NodePattern(var='t', label=None)], edges=[])"),
    (Predicate, ("r", "decision", "fail"), "Predicate(var='r', field='decision', value='fail')"),
    (Projection, ("t", "id"), "Projection(var='t', field='id')"),
    (QueryAst, (), "QueryAst(matches=[], predicates=[], projections=[])"),
    (ResultTable, (["t.id"],), "ResultTable(columns=['t.id'], rows=[], plan=[])"),
    (SavedQuery, ("q", ("x",), "{x}"), "SavedQuery(name='q', params=('x',), template='{x}')"),
    (EvidenceMatrix, (), "EvidenceMatrix(rows=[])"),
    (ClauseResult, (True,), "ClauseResult(passed=True, details=[])"),
    (ConformanceReport, (), "ConformanceReport(clause_results={})"),
    (SuiteReport, ("pl:artifact:m", "v1", "scheduledAudit", "allPass"),
     "SuiteReport(artifact_id='pl:artifact:m', version='v1', checkpoint='scheduledAudit',"
     " verdict='allPass', runs=[], decisions={}, missing=[])"),
    (RegressionEvent, ("pl:test:t", "pl:artifact:m", "v1", "v2", "pl:run:a", "pl:run:b"),
     "RegressionEvent(test_id='pl:test:t', artifact_id='pl:artifact:m', from_version='v1',"
     " to_version='v2', prior_passing_run_id='pl:run:a', failing_run_id='pl:run:b')"),
]
record_cases = pytest.mark.parametrize("cls,args,text", RECORDS,
                                       ids=[cls.__name__ for cls, _args, _text in RECORDS])


def _built_record_classes() -> set[type]:
    """Every class in a `pledger.*` module whose `__init__` `record` generated:
    compiled from `<record ...>` source, or the stand-in that compiles it on
    its first call, which carries that file name as its `label`."""
    built = set()
    for info in pkgutil.iter_modules(pledger.__path__):
        module = importlib.import_module(f"pledger.{info.name}")
        for value in vars(module).values():
            init = getattr(value, "__init__", None)
            code = getattr(init, "__code__", None)
            label = getattr(init, "label", None) or code and code.co_filename
            if isinstance(value, type) and value.__module__ == module.__name__ \
                    and isinstance(label, str) and label.startswith("<record "):
                built.add(value)
    return built


def test_the_record_list_is_every_record_class():
    listed = {cls for cls, _args, _text in RECORDS}
    assert len(listed) == len(RECORDS) == 49
    assert listed == _built_record_classes()


@record_cases
def test_record_construction_and_defaults(cls, args, text):
    names = cls.__match_args__
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    assert repr(by_position) == repr(by_keyword) == text
    assert by_position == by_keyword
    assert cls(*(getattr(by_position, name) for name in names)) == by_position
    if args:
        with pytest.raises(TypeError):
            cls(*args[:-1])
        with pytest.raises(TypeError):
            cls(*args, **{names[0]: args[0]})
    # a list, dict or LinkSet default is a fresh one for each instance
    fresh = [name for name in names[len(args):]
             if isinstance(getattr(by_position, name), (list, dict, LinkSet))]
    assert all(getattr(by_position, name) is not getattr(by_keyword, name) for name in fresh)


@record_cases
def test_record_equality_hash_and_copies(cls, args, text):
    record = cls(*args)
    subclass = type(cls.__name__, (cls,), {})
    assert record != subclass(*args) and subclass(*args) != record
    assert record.__eq__(subclass(*args)) is NotImplemented
    assert record != args
    with pytest.raises(TypeError):
        hash(record)
    twin = copy.deepcopy(record)
    assert twin == record and twin is not record and repr(twin) == text


@record_cases
def test_replace_builds_a_changed_copy(cls, args, text):
    record, mark = cls(*args), object()
    names = cls.__match_args__
    copied = replace(record)
    assert copied == record and copied is not record
    for name in names:
        changed = replace(record, **{name: mark})
        assert getattr(changed, name) is mark
        assert all(getattr(changed, n) is getattr(record, n) for n in names if n != name)
        # only ResultTable.plan (how a query was evaluated) is outside equality
        assert (changed == record) is (cls is ResultTable and name == "plan")
    with pytest.raises(TypeError):
        replace(record, no_such_field=1)


@record_cases
def test_undeclared_attributes_only_on_records_without_slots(cls, args, text):
    # Every record has slots, so none takes an attribute that no row declares.
    record = cls(*args)
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.undeclared = 1
    assert repr(record) == text
