"""File-backed ledger behavior: durability, repair, and access control."""

from __future__ import annotations

import json

import pytest

from conftest import make_contribution, stamp
from pledger.fixtures import CONTRIBUTION_ID, build_lifecycle
from pledger.errors import (
    CorruptLine,
    DuplicateId,
    IllegalTransition,
    InvalidTimestamp,
    StorageFailure,
    UnknownTarget,
    ValidationFailed,
    WrongEntryType,
)
from pledger.integrity import hmac_signer, seal
from pledger.model import (
    ActorRef,
    EntryEnvelope,
    EntryType,
    VoucherPayload,
    replace,
    serialize_entry,
)
from pledger.store import (
    LedgerFile,
    head_path,
    read_entries,
    verify_file,
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
        assert led.snapshot.head_hash == sealed.integrity.hash
    assert head_path(ledger_path).read_text() == sealed.integrity.hash + "\n"
    assert ledger_path.read_bytes().endswith(b"\n")


def test_reopen_preserves_entries_and_head(ledger_path):
    with LedgerFile(ledger_path) as led:
        for i in range(1, 4):
            led.append(make_contribution(i))
        head = led.snapshot.head_hash
        ids = [e.id for e in led.snapshot.entries]
    with LedgerFile(ledger_path) as led:
        assert [e.id for e in led.snapshot.entries] == ids
        assert led.snapshot.head_hash == head
        assert verify_file(ledger_path)[0].valid
        led.append(make_contribution(4))
        assert verify_file(ledger_path)[0].valid
        assert led.get("pl:contrib:gen:0002").created_at == stamp(2)
        assert led.snapshot.position["pl:contrib:gen:0004"] == 3
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
        assert len(led) == 2 and led.snapshot.head_hash is not None


def test_failed_head_update_rolls_the_append_back(ledger_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("replace refused")

    with LedgerFile(ledger_path) as led:
        led.append(make_contribution(1))
        before = ledger_path.read_bytes()
        head_before = head_path(ledger_path).read_bytes()
        hash_before = led.snapshot.head_hash

        monkeypatch.setattr("pledger.store.os.replace", refuse)
        with pytest.raises(StorageFailure):
            led.append(make_contribution(2))
        monkeypatch.undo()

        assert ledger_path.read_bytes() == before
        assert head_path(ledger_path).read_bytes() == head_before
        assert not head_path(ledger_path).with_name("gen.pledger.head.tmp").exists()
        assert len(led) == 1 and led.snapshot.head_hash == hash_before
        assert "pl:contrib:gen:0002" not in led.snapshot.by_id

        sealed = led.append(make_contribution(2))
        assert sealed.integrity.prev_hash == hash_before
        assert verify_file(ledger_path)[0].valid
        assert head_path(ledger_path).read_text("utf-8") == sealed.integrity.hash + "\n"
    assert [e.id for e in read_entries(ledger_path)] == ["pl:contrib:gen:0001",
                                                         "pl:contrib:gen:0002"]


def test_append_applies_signer(ledger_path):
    signer = hmac_signer("k1", b"secret", ActorRef(role="maintainer", pseudonym="M1"))
    with LedgerFile(ledger_path, signer=signer) as led:
        sealed = led.append(make_contribution(1))
    assert sealed.integrity.signature is not None
    assert sealed.integrity.signature.key_ref == "k1"


def test_torn_tail_is_detected_and_repaired(ledger_path):
    with LedgerFile(ledger_path) as led:
        led.append(make_contribution(1))
        led.append(make_contribution(2))
        head_before = head_path(ledger_path).read_bytes()
        led.append(make_contribution(3))
    intact = ledger_path.read_bytes()
    torn = intact[:-9]
    ledger_path.write_bytes(torn)  # line 3 torn after its head update

    # The head names the torn line, so it was committed: every open refuses
    # the file and nothing is cut.
    for open_ledger in (read_entries, LedgerFile):
        with pytest.raises(CorruptLine) as info:
            open_ledger(ledger_path)
        assert (info.value.line_number, info.value.reason) == (3, "no newline")
    assert ledger_path.read_bytes() == torn

    head_path(ledger_path).write_bytes(head_before)  # a crash before the head update
    assert [e.id for e in read_entries(ledger_path)] == [
        "pl:contrib:gen:0001", "pl:contrib:gen:0002"]
    with pytest.raises(CorruptLine) as info:
        verify_file(ledger_path)
    assert (info.value.line_number, info.value.reason) == (3, "no newline")
    assert ledger_path.read_bytes() == torn  # readers leave the bytes out

    with LedgerFile(ledger_path) as led:  # the writer's first append cuts them
        assert len(led) == 2
        assert ledger_path.read_bytes() == torn
        led.append(make_contribution(3))
        assert verify_file(ledger_path)[0].valid
    assert ledger_path.read_bytes() == intact


def test_a_refused_append_keeps_an_unfinished_append_that_the_next_one_cuts(ledger_path):
    with LedgerFile(ledger_path) as led:
        first = led.append(make_contribution(1))
    committed = ledger_path.read_bytes()
    head = head_path(ledger_path).read_bytes()
    ledger_path.write_bytes(committed + b'{"id":"pl:contrib:gen:0002"')
    torn = ledger_path.read_bytes()
    with LedgerFile(ledger_path) as led:
        with pytest.raises(DuplicateId):
            led.append(make_contribution(1))
        with pytest.raises(ValidationFailed):
            led.append(replace(make_contribution(2), created_at="garbage"))
        assert (ledger_path.read_bytes(), head_path(ledger_path).read_bytes()) == (torn, head)
        sealed = led.append(make_contribution(2))
    assert sealed.integrity.prev_hash == first.integrity.hash
    assert ledger_path.read_bytes() == committed + serialize_entry(sealed).encode() + b"\n"
    assert verify_file(ledger_path)[0].valid


def test_a_failed_open_releases_the_writer_lock(lifecycle, ledger_path):
    source, _, entries = lifecycle
    data = source.read_bytes()
    ledger_path.write_bytes(data[:data.rstrip(b"\n").rfind(b"\n") + 1])
    head_path(ledger_path).write_bytes(head_path(source).read_bytes())  # names the lost line
    # The exception stays referenced, as a handler that inspects it keeps it.
    with pytest.raises(CorruptLine) as info:
        LedgerFile(ledger_path)
    head_path(ledger_path).unlink()
    with LedgerFile(ledger_path) as led:
        assert len(led) == len(entries) - 1
    assert (info.value.line_number, info.value.reason) == (len(entries), "headMismatch")


def test_mid_file_corruption_is_not_a_torn_tail(ledger_path):
    with LedgerFile(ledger_path) as led:
        for i in range(1, 4):
            led.append(make_contribution(i))
    lines = ledger_path.read_bytes().split(b"\n")
    lines[1] = b"X" + lines[1][1:]
    damaged = b"\n".join(lines) + b'{"id":'  # and an unfinished append

    ledger_path.write_bytes(damaged)
    for open_ledger in (read_entries, verify_file, LedgerFile):
        with pytest.raises(CorruptLine) as info:
            open_ledger(ledger_path)
        assert info.value.line_number == 2
    assert ledger_path.read_bytes() == damaged


def test_blank_line_counts_as_corrupt(ledger_path):
    with LedgerFile(ledger_path) as led:
        led.append(make_contribution(1))
    with open(ledger_path, "ab") as fh:
        fh.write(b"\n")
    with pytest.raises(CorruptLine) as info:
        read_entries(ledger_path)
    assert info.value.line_number == 2


def test_a_line_that_does_not_link_is_corrupt(ledger_path):
    # An unsealed line, a line sealed against the wrong predecessor and a
    # repeated id each refuse the open, naming the line; verify_file reads
    # the same file and reports the chain, with every parsed entry.
    with LedgerFile(ledger_path) as led:
        for i in range(1, 4):
            led.append(make_contribution(i))
    lines = ledger_path.read_text("utf-8").splitlines()
    unsealed = serialize_entry(make_contribution(4))
    resealed = serialize_entry(seal(make_contribution(2), led.snapshot.head_hash))
    cases = [
        ([*lines, unsealed], 4, "hashMismatch", (3, "hashMismatch")),
        ([lines[0], lines[2], lines[1]], 2, "prevHashMismatch", (1, "prevHashMismatch")),
        ([*lines, resealed], 4, "duplicateId", (3, "duplicateId")),
    ]
    for damaged, line_number, kind, chain in cases:
        ledger_path.write_text("\n".join(damaged) + "\n", "utf-8")
        with pytest.raises(CorruptLine) as info:
            LedgerFile(ledger_path)
        assert (info.value.line_number, info.value.reason) == (line_number, kind)
        assert str(info.value) == f"corrupt ledger line {line_number}: {kind}"
        verdict, entries, _report = verify_file(ledger_path)
        assert (verdict.first_broken_index, verdict.failure_kind) == chain
        assert [serialize_entry(e) for e in entries] == damaged
    ledger_path.write_text("X" + "\n".join(lines)[1:] + "\n", "utf-8")
    for read in (read_entries, verify_file):
        with pytest.raises(CorruptLine) as info:
            read(ledger_path)
        assert info.value.line_number == 1


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
        assert verify_file(ledger_path)[0].valid


def test_issued_cannot_skip_to_terminal_states(ledger_path):
    with LedgerFile(ledger_path) as led:
        led.append(make_voucher("issued", minute=500))
        for status in ("satisfied", "revoked", "expired"):
            with pytest.raises(IllegalTransition):
                led.append(make_voucher(status, rev=1, minute=501))


def test_redaction_flow_and_payload_view(ledger_path):
    with LedgerFile(ledger_path) as led:
        original = led.append(make_contribution(1))
        assert led.snapshot.live(original.id, EntryType.CONTRIBUTION) is original

        tomb = led.redact(original.id, "safetyRedaction", AUDITOR,
                          created_at=stamp(10))
        assert tomb.id == "pl:tomb:contrib:gen:0001"
        # Readers see the redaction through `hidden` alone.
        assert led.snapshot.hidden == {original.id: tomb}
        assert tomb.payload.reason == "safetyRedaction"
        assert tomb.payload.retained_hash == original.integrity.hash
        assert led.snapshot.live(original.id, EntryType.CONTRIBUTION) is None
        assert led.snapshot.live_of(EntryType.CONTRIBUTION) == []
        # The sealed history itself is untouched.
        assert led.get(original.id).payload.summary == original.payload.summary
        assert verify_file(ledger_path)[0].valid


def test_redaction_rejections(ledger_path):
    with LedgerFile(ledger_path) as led:
        entry = led.append(make_contribution(1))
        with pytest.raises(UnknownTarget):
            led.redact("pl:contrib:gen:9999", "safetyRedaction", AUDITOR)
        resident = ActorRef(role="resident", pseudonym="P1")
        with pytest.raises(ValidationFailed, match=r"\[tombstone.authorization-role\]"):
            led.redact(entry.id, "safetyRedaction", resident)
        tomb = led.redact(entry.id, "safetyRedaction", AUDITOR, created_at=stamp(9))
        for actor in (AUDITOR, resident):  # the target's type is judged before the role
            with pytest.raises(WrongEntryType):
                led.redact(tomb.id, "safetyRedaction", actor)
        assert len(led) == 2


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
        assert led.snapshot.hidden[original.id] is tomb
        assert led.snapshot.live(superseding.id, EntryType.CONTRIBUTION) is superseding
        assert verify_file(ledger_path)[0].valid

        with pytest.raises(WrongEntryType):
            led.withdraw_consent(tomb.id, STEWARD)


WITHDRAWN_AT = "2025-07-01T00:00:00Z"


def refused_withdrawal(path, authorization: ActorRef, error: type,
                       match: str | None = None) -> None:
    """Withdraw consent to the lifecycle's contribution, expecting `error`
    (its message matching `match`, when given) and that the file and its
    `.head` keep their bytes."""
    before = path.read_bytes(), head_path(path).read_bytes()
    with LedgerFile(path) as led:
        with pytest.raises(error, match=match):
            led.withdraw_consent(CONTRIBUTION_ID, authorization, created_at=WITHDRAWN_AT)
    assert (path.read_bytes(), head_path(path).read_bytes()) == before


def test_withdraw_consent_refuses_a_role_that_cannot_redact_before_any_append(tmp_path):
    build_lifecycle(tmp_path / "l.pledger")
    refused_withdrawal(tmp_path / "l.pledger", ActorRef(role="maintainer", pseudonym="M1"),
                       ValidationFailed, match=r"\[tombstone.authorization-role\]")


def test_withdraw_consent_refuses_a_tombstone_that_fails_validation_before_any_append(tmp_path):
    build_lifecycle(tmp_path / "l.pledger")
    refused_withdrawal(tmp_path / "l.pledger", ActorRef(role="auditor"), ValidationFailed)


def test_withdraw_consent_refuses_a_held_tombstone_id_before_any_append(tmp_path):
    path = tmp_path / "l.pledger"
    build_lifecycle(path)
    with LedgerFile(path) as led:
        led.redact(CONTRIBUTION_ID, "safetyRedaction", ActorRef(role="auditor", pseudonym="A1"),
                   created_at=WITHDRAWN_AT)
    refused_withdrawal(path, STEWARD, DuplicateId)


def test_withdraw_consent_refuses_a_contribution_with_no_consent_block(tmp_path):
    # A hand-edited line: readers link lines without validating them.
    path = tmp_path / "l.pledger"
    build_lifecycle(path, stop_after=1)
    doc = json.loads(path.read_bytes())
    del doc["consent"]
    path.write_text(json.dumps(doc) + "\n", "utf-8")
    refused_withdrawal(path, ActorRef(role="auditor", pseudonym="A1"), ValidationFailed,
                       match=r"\[contribution.consent-required\]")


def test_lock_excludes_second_writer(ledger_path):
    with LedgerFile(ledger_path) as led:
        led.append(make_contribution(1))
    first = LedgerFile(ledger_path)
    try:
        with pytest.raises(StorageFailure):
            LedgerFile(ledger_path)
        assert len(read_entries(ledger_path)) == 1  # readers never lock
    finally:
        first.close()
    with pytest.raises(StorageFailure):  # a closed writer refuses to append
        first.append(make_contribution(2))
    second = LedgerFile(ledger_path)
    second.close()


def test_the_first_append_to_a_new_path_excludes_a_second_writer(tmp_path):
    # Neither open locks or creates anything; the first append creates the
    # file exclusively and takes the lock, so the other writer's snapshot is
    # not the file's and its append is refused.
    path = tmp_path / "nodir" / "new.pledger"
    first, second = LedgerFile(path), LedgerFile(path)
    try:
        assert not path.parent.exists()
        sealed = first.append(make_contribution(1))
        with pytest.raises(StorageFailure, match="appeared after this writer opened it"):
            second.append(make_contribution(2))
        with pytest.raises(StorageFailure, match="another writer holds the lock"):
            LedgerFile(path)
    finally:
        first.close()
        second.close()
    assert path.read_bytes() == serialize_entry(sealed).encode() + b"\n"
    assert head_path(path).read_text("utf-8") == sealed.integrity.hash + "\n"


def test_a_writer_that_appends_nothing_creates_nothing(tmp_path):
    path = tmp_path / "nodir" / "new.pledger"
    with LedgerFile(path) as led:
        assert len(led) == 0
        with pytest.raises(ValidationFailed):
            led.append(replace(make_contribution(1), created_at="garbage"))
    assert build_lifecycle(path, stop_after=0) == {}
    assert not path.parent.exists()


def test_append_does_not_mutate_caller_entry(ledger_path):
    entry = make_contribution(1)
    snapshot = replace(entry)
    with LedgerFile(ledger_path) as led:
        sealed = led.append(entry)
    assert entry.integrity is None
    assert entry.id == snapshot.id
    assert sealed is not entry


def test_append_rejects_backdating_beyond_skew(ledger_path):
    head = replace(make_contribution(1), created_at="2025-05-03T12:00:00Z")
    within = replace(make_contribution(2), created_at="2025-05-02T12:00:00Z")
    beyond = replace(make_contribution(3), created_at="2025-05-01T11:59:59Z")
    with LedgerFile(ledger_path) as led:
        led.append(head)
        led.append(within)
        size_before = ledger_path.stat().st_size
        with pytest.raises(InvalidTimestamp):
            led.append(beyond)
        assert ledger_path.stat().st_size == size_before

    # the point of the rejection: append-only files always verify
    assert verify_file(ledger_path)[0].valid
