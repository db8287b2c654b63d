"""Sealing, hash-chain verification, and signatures."""

import hashlib
import json
import random

import pytest

from conftest import make_contribution, sealed_chain, stored_lines
from pledger import seal, verify_chain
from pledger.errors import AlreadySealed, MalformedDocument, SigningFailure
from pledger.fixtures import sample_contribution_doc
from pledger.integrity import HMAC_SCHEME, canonicalize, hmac_signer
from pledger.model import ActorRef, parse_entry, replace


def chain(n: int) -> list:
    return sealed_chain([make_contribution(i) for i in range(n)])


def test_seal_digest_matches_stdlib_recomputation():
    entry = make_contribution(0)
    sealed = seal(entry)
    doc = entry.to_doc()
    doc["prev"] = ""
    reference = "sha256:" + hashlib.sha256(json.dumps(
        doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")).hexdigest()
    assert sealed.integrity.hash == reference
    assert sealed.integrity.prev_hash is None


def test_seal_commits_to_previous_hash():
    entry = make_contribution(0)
    a = seal(entry, None)
    b = seal(entry, "sha256:" + "0" * 64)
    assert a.integrity.hash != b.integrity.hash
    assert b.integrity.prev_hash == "sha256:" + "0" * 64


def test_seal_leaves_input_unsealed_and_rejects_double_sealing():
    entry = make_contribution(0)
    sealed = seal(entry)
    assert entry.integrity is None
    with pytest.raises(AlreadySealed):
        seal(sealed)


def test_signing_failure_propagates():
    def broken(pre_image: bytes):
        raise RuntimeError("hsm offline")

    with pytest.raises(SigningFailure):
        seal(make_contribution(0), None, broken)


def test_valid_chain_verifies():
    entries = chain(30)
    verdict = verify_chain(entries, stored_lines(entries))[0]
    assert verdict.valid
    assert verdict.entry_count == 30
    assert verdict.describe() == "chain valid, 30 entries"
    assert verify_chain([], [])[0].valid


def mutate_summary(entries: list, index: int) -> list:
    target = entries[index]
    payload = replace(target.payload, summary=target.payload.summary + "!")
    out = list(entries)
    out[index] = replace(target, payload=payload)
    return out


def test_content_mutation_is_hash_mismatch():
    entries = chain(12)
    for index in (0, 5, 11):
        mutant = mutate_summary(entries, index)
        verdict = verify_chain(mutant, stored_lines(mutant))[0]
        assert not verdict.valid
        assert verdict.first_broken_index == index
        assert verdict.failure_kind == "hashMismatch"


def test_a_top_level_prev_is_hash_mismatch():
    # The pre-image's own `prev` would hide a stored one from the hash, so an
    # entry holding one has no pre-image: it is sealed here without the key,
    # which is added after.
    entries = chain(3)
    sealed = seal(make_contribution(3), entries[-1].integrity.hash)
    entries.append(replace(sealed, extensions={"prev": "original note"}))
    verdict = verify_chain(entries, stored_lines(entries))[0]
    assert (verdict.valid, verdict.first_broken_index, verdict.failure_kind) == (
        False, 3, "hashMismatch")


def test_seal_refuses_a_top_level_prev():
    with pytest.raises(MalformedDocument, match="top-level prev"):
        seal(parse_entry(dict(sample_contribution_doc(), prev="note")))
    signed = seal(make_contribution(0), signer=hmac_signer("k1", b"secret", ActorRef(
        role="maintainer", pseudonym="ops")))
    stored = replace(signed, extensions={"prev": "note"})
    assert verify_chain([stored], stored_lines([stored]),
                        {"k1": b"secret"})[1].counts()["invalid"] == 1


def test_deletion_is_prev_hash_mismatch():
    entries = chain(12)
    kept = entries[:4] + entries[5:]
    verdict = verify_chain(kept, stored_lines(kept))[0]
    assert not verdict.valid
    assert verdict.first_broken_index == 4
    assert verdict.failure_kind == "prevHashMismatch"


def test_swap_is_prev_hash_mismatch():
    entries = chain(12)
    entries[6], entries[7] = entries[7], entries[6]
    verdict = verify_chain(entries, stored_lines(entries))[0]
    assert not verdict.valid
    assert verdict.first_broken_index == 6
    assert verdict.failure_kind == "prevHashMismatch"


def test_duplicate_id_detected():
    base = [make_contribution(i) for i in range(6)]
    base[4] = replace(base[4], id=base[1].id)
    entries = sealed_chain(base)
    verdict = verify_chain(entries, stored_lines(entries))[0]
    assert not verdict.valid
    assert verdict.first_broken_index == 4
    assert verdict.failure_kind == "duplicateId"


def test_clock_skew_tolerated_within_a_day():
    base = [make_contribution(i) for i in range(4)]
    base[2] = replace(base[2], created_at="2025-05-01T02:00:00Z")
    entries = sealed_chain(base)
    assert verify_chain(entries, stored_lines(entries))[0].valid  # 10h backwards


def test_order_violation_beyond_skew():
    base = [make_contribution(i) for i in range(4)]
    base[2] = replace(base[2], created_at="2025-04-29T12:00:00Z")
    entries = sealed_chain(base)
    verdict = verify_chain(entries, stored_lines(entries))[0]
    assert not verdict.valid
    assert verdict.first_broken_index == 2
    assert verdict.failure_kind == "orderViolation"


def test_random_single_field_mutations_always_detected():
    rng = random.Random(3)
    entries = chain(40)
    for _ in range(60):
        index = rng.randrange(40)
        mutant = mutate_summary(entries, index)
        verdict = verify_chain(mutant, stored_lines(mutant))[0]
        assert (verdict.valid, verdict.first_broken_index, verdict.failure_kind) \
            == (False, index, "hashMismatch")


def test_signature_round_trip_and_failure_modes():
    role = ActorRef(role="maintainer", pseudonym="ops")
    signer = hmac_signer("k1", b"secret", role)
    entries = sealed_chain([make_contribution(i) for i in range(5)])
    signed = []
    prev = None
    for entry in [make_contribution(i) for i in range(5)]:
        sealed = seal(entry, prev, signer)
        signed.append(sealed)
        prev = sealed.integrity.hash
    lines = stored_lines(signed)
    assert verify_chain(signed, lines)[0].valid

    good = verify_chain(signed, lines, {"k1": b"secret"})[1]
    assert good.all_good()
    assert good.counts() == {"valid": 5, "invalid": 0, "unverifiable": 0, "absent": 0}

    wrong_key = verify_chain(signed, lines, {"k1": b"other"})[1]
    assert not wrong_key.all_good()
    assert wrong_key.counts()["invalid"] == 5

    no_key = verify_chain(signed, lines, {"k2": b"secret"})[1]
    assert no_key.counts()["invalid"] == 5

    # A stored scheme is any JSON value; one that is not the string
    # "hmac-sha256", a list included, names another scheme.
    for scheme in ("ed25519", [HMAC_SCHEME]):
        other_scheme = [replace(e, integrity=replace(e.integrity, signature=replace(
            e.integrity.signature, scheme=scheme))) for e in signed]
        unknown_scheme = verify_chain(other_scheme, stored_lines(other_scheme),
                                      {"k1": b"secret"})[1]
        assert unknown_scheme.counts()["unverifiable"] == 5
        assert unknown_scheme.all_good()  # unverifiable is not proof of tamper

    unsigned = verify_chain(entries, stored_lines(entries), {"k1": b"secret"})[1]
    assert unsigned.counts()["absent"] == 5


def test_pre_image_excludes_integrity_block():
    entry = make_contribution(0)
    sealed = seal(entry)
    assert canonicalize(entry, None) == canonicalize(sealed, None)
