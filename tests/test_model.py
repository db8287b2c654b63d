"""Entry documents: parsing, serialization fixpoints, ids, validation rules."""

import json
import random
from datetime import datetime, timezone

import pytest

from conftest import digest_of, make_contribution, random_envelope, sealed_chain, sha_ref
from pledger import parse_entry, serialize_entry, validate_structure
from pledger.errors import (
    InvalidId,
    InvalidTimestamp,
    MalformedDocument,
    PayloadMismatch,
    UnknownEntryType,
)
from pledger.fixtures import sample_contribution_doc
from pledger.model import (
    ActorRef,
    EntryType,
    LinkSet,
    check_entry_id,
    format_timestamp,
    in_vocab,
    is_timestamp,
    lineage_base,
    parse_timestamp,
)


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
    import dataclasses

    entry = make_contribution(1)
    bad_id = dataclasses.replace(entry, id="pl:change:gen:0001")
    assert "id.grammar" in validate_structure(bad_id).rules()
    bad_time = dataclasses.replace(entry, created_at="yesterday")
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
    import dataclasses

    from pledger.errors import ValidationFailed
    from pledger.store import LedgerFile

    with LedgerFile(tmp_path / "dup.pledger") as ledger:
        ledger.append(dataclasses.replace(make_contribution(1), id="pl:contrib:dup"))
        twin = dataclasses.replace(make_contribution(2), id="pl:contrib:dup\n")
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


def test_random_envelope_ledger_lines_are_fixpoints():
    rng = random.Random(31)
    for _ in range(5):
        entries = sealed_chain([random_envelope(rng, i) for i in range(120)])
        for entry in entries:
            line = serialize_entry(entry)
            assert serialize_entry(parse_entry(line)) == line
            assert serialize_entry(parse_entry(line.encode("utf-8"))) == line
