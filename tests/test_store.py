"""File-backed ledger behavior: durability, repair, and access control."""

from __future__ import annotations

import dataclasses

import pytest

from conftest import make_contribution, stamp
from pledger.errors import (
    CorruptLine,
    DuplicateId,
    IllegalTransition,
    InvalidTimestamp,
    StorageFailure,
    UnauthorizedRole,
    UnknownTarget,
    ValidationFailed,
    WrongEntryType,
)
from pledger.integrity import hmac_signer, verify_chain
from pledger.model import ActorRef, EntryEnvelope, EntryType, VoucherPayload
from pledger.store import (
    LedgerFile,
    RedactionMarker,
    head_path,
    read_entries,
    truncate_torn_tail,
)

STEWARD = ActorRef(role="communitySteward", steward_org="pl:org:gen-steward")
AUDITOR = ActorRef(role="auditor", pseudonym="AUD1")


def make_voucher(status: str, rev: int | None = None,
                 lineage: str = "pl:voucher:gen:pause:001",
                 minute: int = 500) -> EntryEnvelope:
    vid = lineage if rev is None else f"{lineage}:rev{rev}"
    return EntryEnvelope(
        id=vid,
        entry_type=EntryType.VOUCHER,
        created_at=stamp(minute),
        actor=STEWARD,
        payload=VoucherPayload(
            capability="image-generation",
            boundary="consultation_workflow",
            action="pause",
            steward=STEWARD,
            status=status,
        ),
    )


@pytest.fixture
def ledger_path(tmp_path):
    return tmp_path / "gen.pledger"


def test_genesis_append_writes_entry_and_head(ledger_path):
    with LedgerFile(ledger_path) as led:
        sealed = led.append(make_contribution(1))
        assert len(led) == 1
        assert sealed.integrity is not None
        assert sealed.integrity.prev_hash is None
        assert led.head_hash == sealed.integrity.hash
    assert head_path(ledger_path).read_text() == sealed.integrity.hash + "\n"
    assert ledger_path.read_bytes().endswith(b"\n")


def test_reopen_preserves_entries_and_head(ledger_path):
    with LedgerFile(ledger_path) as led:
        for i in range(1, 4):
            led.append(make_contribution(i))
        head = led.head_hash
        ids = [e.id for e in led]
    with LedgerFile(ledger_path) as led:
        assert [e.id for e in led] == ids
        assert led.head_hash == head
        assert led.verify().valid
        led.append(make_contribution(4))
        assert led.verify().valid
        assert led.get("pl:contrib:gen:0002").created_at == stamp(2)
        assert led.index_of("pl:contrib:gen:0004") == 3
        with pytest.raises(UnknownTarget):
            led.get("pl:contrib:gen:9999")


def test_failed_appends_leave_file_byte_identical(ledger_path):
    with LedgerFile(ledger_path) as led:
        led.append(make_contribution(1))
        led.append(make_contribution(2))
        before = ledger_path.read_bytes()
        head_before = head_path(ledger_path).read_bytes()

        with pytest.raises(DuplicateId):
            led.append(make_contribution(2))
        assert ledger_path.read_bytes() == before

        invalid = make_contribution(3)
        invalid.consent.status = "maybe"
        with pytest.raises(ValidationFailed):
            led.append(invalid)
        assert ledger_path.read_bytes() == before

        with pytest.raises(IllegalTransition):
            led.append(make_voucher("active"))
        assert ledger_path.read_bytes() == before
        assert head_path(ledger_path).read_bytes() == head_before
        assert len(led) == 2 and led.head_hash is not None


def test_failed_head_update_rolls_the_append_back(ledger_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("replace refused")

    with LedgerFile(ledger_path) as led:
        led.append(make_contribution(1))
        before = ledger_path.read_bytes()
        head_before = head_path(ledger_path).read_bytes()
        hash_before = led.head_hash

        monkeypatch.setattr("pledger.store.os.replace", refuse)
        with pytest.raises(StorageFailure):
            led.append(make_contribution(2))
        monkeypatch.undo()

        assert ledger_path.read_bytes() == before
        assert head_path(ledger_path).read_bytes() == head_before
        assert not head_path(ledger_path).with_name("gen.pledger.head.tmp").exists()
        assert len(led) == 1 and led.head_hash == hash_before
        assert not led.has("pl:contrib:gen:0002")

        sealed = led.append(make_contribution(2))
        assert sealed.integrity.prev_hash == hash_before
        assert led.verify().valid
        assert head_path(ledger_path).read_text("utf-8") == sealed.integrity.hash + "\n"
    assert [e.id for e in read_entries(ledger_path)] == ["pl:contrib:gen:0001",
                                                         "pl:contrib:gen:0002"]


def test_append_applies_signer(ledger_path):
    signer = hmac_signer("k1", b"secret", ActorRef(role="maintainer", pseudonym="M1"))
    with LedgerFile(ledger_path) as led:
        sealed = led.append(make_contribution(1), signer=signer)
    assert sealed.integrity.signature is not None
    assert sealed.integrity.signature.key_ref == "k1"


def test_torn_tail_is_detected_and_repaired(ledger_path):
    with LedgerFile(ledger_path) as led:
        for i in range(1, 4):
            led.append(make_contribution(i))
    intact = ledger_path.read_bytes()
    ledger_path.write_bytes(intact[:-9])  # crash mid-write of line 3

    with pytest.raises(CorruptLine) as info:
        read_entries(ledger_path)
    assert info.value.line_number == 3

    assert truncate_torn_tail(ledger_path) == 3
    assert [e.id for e in read_entries(ledger_path)] == [
        "pl:contrib:gen:0001", "pl:contrib:gen:0002"]
    assert truncate_torn_tail(ledger_path) is None

    with LedgerFile(ledger_path) as led:
        assert led.verify().valid
        led.append(make_contribution(3))
        assert led.verify().valid


def test_mid_file_corruption_is_not_a_torn_tail(ledger_path):
    with LedgerFile(ledger_path) as led:
        for i in range(1, 4):
            led.append(make_contribution(i))
    lines = ledger_path.read_bytes().split(b"\n")
    lines[1] = b"X" + lines[1][1:]
    damaged = b"\n".join(lines)
    ledger_path.write_bytes(damaged)

    with pytest.raises(CorruptLine) as info:
        read_entries(ledger_path)
    assert info.value.line_number == 2
    assert truncate_torn_tail(ledger_path) is None
    assert ledger_path.read_bytes() == damaged


def test_blank_line_counts_as_corrupt(ledger_path):
    with LedgerFile(ledger_path) as led:
        led.append(make_contribution(1))
    with open(ledger_path, "ab") as fh:
        fh.write(b"\n")
    with pytest.raises(CorruptLine) as info:
        read_entries(ledger_path)
    assert info.value.line_number == 2


def test_voucher_lineage_legality_enforced_at_append(ledger_path):
    with LedgerFile(ledger_path) as led:
        led.append(make_voucher("issued", minute=500))
        led.append(make_voucher("active", rev=1, minute=501))
        with pytest.raises(IllegalTransition):
            led.append(make_voucher("issued", rev=2, minute=502))
        led.append(make_voucher("satisfied", rev=2, minute=503))
        with pytest.raises(IllegalTransition):  # satisfied is terminal
            led.append(make_voucher("active", rev=3, minute=504))
        # A different lineage starts fresh and must be issued first.
        with pytest.raises(IllegalTransition):
            led.append(make_voucher(
                "satisfied", lineage="pl:voucher:gen:pause:002", minute=505))
        led.append(make_voucher(
            "issued", lineage="pl:voucher:gen:pause:002", minute=506))
        assert led.verify().valid


def test_issued_cannot_skip_to_terminal_states(ledger_path):
    with LedgerFile(ledger_path) as led:
        led.append(make_voucher("issued", minute=500))
        for status in ("satisfied", "revoked", "expired"):
            with pytest.raises(IllegalTransition):
                led.append(make_voucher(status, rev=1, minute=501))


def test_redaction_flow_and_payload_view(ledger_path):
    with LedgerFile(ledger_path) as led:
        original = led.append(make_contribution(1))
        assert led.payload_view(original.id).summary == original.payload.summary

        tomb = led.redact(original.id, "safetyRedaction", AUDITOR,
                          created_at=stamp(10))
        assert tomb.id == "pl:tomb:contrib:gen:0001"
        assert tomb.payload.retained_hash == original.integrity.hash

        view = led.payload_view(original.id)
        assert isinstance(view, RedactionMarker)
        assert view.reason == "safetyRedaction"
        assert view.retained_hash == original.integrity.hash
        assert view.tombstone_id == tomb.id
        assert led.tombstones() == {original.id: tomb}
        # The sealed history itself is untouched.
        assert led.get(original.id).payload.summary == original.payload.summary
        assert led.verify().valid


def test_redaction_rejections(ledger_path):
    with LedgerFile(ledger_path) as led:
        entry = led.append(make_contribution(1))
        with pytest.raises(UnknownTarget):
            led.redact("pl:contrib:gen:9999", "safetyRedaction", AUDITOR)
        with pytest.raises(UnauthorizedRole):
            led.redact(entry.id, "safetyRedaction",
                       ActorRef(role="resident", pseudonym="P1"))
        tomb = led.redact(entry.id, "safetyRedaction", AUDITOR, created_at=stamp(9))
        with pytest.raises(WrongEntryType):
            led.redact(tomb.id, "safetyRedaction", AUDITOR)


def test_withdraw_consent_supersedes_without_editing_history(ledger_path):
    with LedgerFile(ledger_path) as led:
        original = led.append(make_contribution(1))
        led.append(make_contribution(2))
        superseding, tomb = led.withdraw_consent(
            original.id, STEWARD, created_at=stamp(30))

        assert superseding.id == original.id + ":rev1"
        assert superseding.consent.status == "withdrawn"
        assert superseding.payload.summary == original.payload.summary
        assert tomb.payload.target_id == original.id
        assert tomb.payload.reason == "consentWithdrawn"
        # Stored original is untouched; only the access layer masks it.
        assert led.get(original.id).consent.status == "granted"
        assert isinstance(led.payload_view(original.id), RedactionMarker)
        assert led.payload_view(superseding.id).summary == original.payload.summary
        assert led.verify().valid

        with pytest.raises(WrongEntryType):
            led.withdraw_consent(tomb.id, STEWARD)


def test_lock_excludes_second_writer(ledger_path):
    first = LedgerFile(ledger_path)
    try:
        with pytest.raises(StorageFailure):
            LedgerFile(ledger_path)
        reader = LedgerFile(ledger_path, writable=False)
        assert len(reader) == 0
        reader.close()
    finally:
        first.close()
    second = LedgerFile(ledger_path)
    second.close()


def test_read_only_mode(ledger_path, tmp_path):
    with LedgerFile(ledger_path) as led:
        led.append(make_contribution(1))
    reader = LedgerFile(ledger_path, writable=False)
    try:
        assert len(reader) == 1
        with pytest.raises(StorageFailure):
            reader.append(make_contribution(2))
        with pytest.raises(StorageFailure):
            reader.redact("pl:contrib:gen:0001", "safetyRedaction", AUDITOR)
    finally:
        reader.close()
    with pytest.raises(StorageFailure):
        LedgerFile(tmp_path / "absent.pledger", writable=False)


def test_append_does_not_mutate_caller_entry(ledger_path):
    entry = make_contribution(1)
    snapshot = dataclasses.replace(entry)
    with LedgerFile(ledger_path) as led:
        sealed = led.append(entry)
    assert entry.integrity is None
    assert entry.id == snapshot.id
    assert sealed is not entry


def test_append_rejects_backdating_beyond_skew(ledger_path):
    head = dataclasses.replace(make_contribution(1),
                               created_at="2025-05-03T12:00:00Z")
    within = dataclasses.replace(make_contribution(2),
                                 created_at="2025-05-02T12:00:00Z")
    beyond = dataclasses.replace(make_contribution(3),
                                 created_at="2025-05-01T11:59:59Z")
    with LedgerFile(ledger_path) as led:
        led.append(head)
        led.append(within)
        size_before = ledger_path.stat().st_size
        with pytest.raises(InvalidTimestamp):
            led.append(beyond)
        assert ledger_path.stat().st_size == size_before

    # the point of the rejection: append-only files always verify
    assert verify_chain(read_entries(ledger_path)).valid
