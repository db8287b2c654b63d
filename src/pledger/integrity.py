"""Sealing and chain verification.

Each entry's hash commits to its full canonical content plus the previous
entry's hash: the pre-image is the entry document without its integrity
block, with a synthetic top-level field `prev` carrying the previous hash
(empty string at the chain head) inserted before key sorting. Binding the
predecessor into the pre-image is what makes deletion and reordering visible,
not just in-place edits.

Signing is pluggable. A signer is any callable taking the pre-image bytes and
returning a SignatureRecord; verifiers are looked up by scheme name in a
registry. One deterministic keyed scheme (HMAC-SHA256) ships for tests and
small deployments; there is no key management here. Its modules (`hmac`,
`base64`) are imported when a signer or verifier is made.
"""

from __future__ import annotations

from datetime import timedelta
from typing import Callable, Iterable, Sequence

from .canonical import canonical_bytes, compute_hash
from .errors import AlreadySealed, NonCanonicalizableNumber, SigningFailure
from .model import ActorRef, EntryEnvelope, IntegrityBlock, SignatureRecord, record, replace

# Tolerated backwards clock drift between adjacent entries.
CLOCK_SKEW = timedelta(hours=24)

Signer = Callable[[bytes], SignatureRecord]
SchemeVerifier = Callable[[bytes, SignatureRecord], bool]


def canonicalize(entry: EntryEnvelope, prev_hash: str | None = None) -> bytes:
    """Hash pre-image bytes for an entry.

    The integrity block never feeds its own hash; any integrity block already
    on the entry is excluded. `prev` is always present in the pre-image, as
    the empty string when there is no predecessor.
    """
    doc = entry.to_doc(include_integrity=False)
    doc["prev"] = prev_hash or ""
    return canonical_bytes(doc)


def seal(entry: EntryEnvelope, prev_hash: str | None = None,
         signer: Signer | None = None) -> EntryEnvelope:
    """Return a sealed copy of the entry; the input is not modified.

    Raises AlreadySealed when an integrity block is present, and
    SigningFailure (with no sealed entry produced) when the signer hook
    raises.
    """
    if entry.is_sealed():
        raise AlreadySealed(f"entry {entry.id} already carries an integrity block")
    pre_image = canonicalize(entry, prev_hash)
    signature = None
    if signer is not None:
        try:
            signature = signer(pre_image)
        except Exception as exc:
            raise SigningFailure(f"signer hook failed for {entry.id}: {exc}") from exc
    integrity = IntegrityBlock(hash=compute_hash(pre_image), prev_hash=prev_hash,
                               signature=signature)
    return replace(entry, integrity=integrity)


# ---------------------------------------------------------------------------
# chain verification

# The last two are the stored file's (`store.verify_file`), not the chain's.
FAILURE_KINDS = ("hashMismatch", "prevHashMismatch", "duplicateId", "orderViolation",
                 "nonCanonicalLine", "headMismatch")


@record
class ChainVerdict:
    valid: bool
    first_broken_index: int | None = None
    failure_kind: str | None = None
    entry_count: int = 0

    def describe(self) -> str:
        if self.valid:
            return f"chain valid, {self.entry_count} entries"
        return (f"chain broken at index {self.first_broken_index}: "
                f"{self.failure_kind} ({self.entry_count} entries checked)")

    def to_doc(self) -> dict:
        return {"valid": self.valid, "entryCount": self.entry_count,
                "firstBrokenIndex": self.first_broken_index,
                "failureKind": self.failure_kind}


def verify_chain(entries: Sequence[EntryEnvelope]) -> ChainVerdict:
    """Recompute every hash and check linkage, id uniqueness, and time order.

    Scans from the head and reports the first broken index with its failure
    kind. Entries must be sealed; an unsealed entry, or one holding a number
    with no canonical form (NaN, ±inf), shows up as a hash mismatch at its
    index. Timestamps may step backwards by at most the clock-skew allowance.
    """
    seen_ids: set[str] = set()
    prev_hash: str | None = None
    prev_created = None
    for index, entry in enumerate(entries):
        integrity = entry.integrity
        try:
            intact = integrity is not None and integrity.hash == compute_hash(
                canonicalize(entry, integrity.prev_hash))
        except NonCanonicalizableNumber:
            intact = False
        if not intact:
            return ChainVerdict(False, index, "hashMismatch", len(entries))
        if integrity.prev_hash != prev_hash:
            return ChainVerdict(False, index, "prevHashMismatch", len(entries))
        if entry.id in seen_ids:
            return ChainVerdict(False, index, "duplicateId", len(entries))
        try:
            created = entry.created_at_datetime()
        except Exception:
            return ChainVerdict(False, index, "orderViolation", len(entries))
        if prev_created is not None and created < prev_created - CLOCK_SKEW:
            return ChainVerdict(False, index, "orderViolation", len(entries))
        seen_ids.add(entry.id)
        prev_hash = integrity.hash
        prev_created = created
    return ChainVerdict(True, None, None, len(entries))


# ---------------------------------------------------------------------------
# signatures

@record
class SignatureVerdict:
    entry_id: str
    status: str  # valid | invalid | unverifiable | absent
    scheme: str | None = None


@record
class SignatureReport:
    verdicts: list[SignatureVerdict] = list

    def counts(self) -> dict[str, int]:
        out = {"valid": 0, "invalid": 0, "unverifiable": 0, "absent": 0}
        for v in self.verdicts:
            out[v.status] += 1
        return out

    def all_good(self) -> bool:
        return all(v.status != "invalid" for v in self.verdicts)


def verify_signatures(entries: Iterable[EntryEnvelope],
                      registry: dict[str, SchemeVerifier]) -> SignatureReport:
    """Check each entry's signature against the scheme registry.

    Assumes the chain already verified; hashes are not recomputed here beyond
    rebuilding each pre-image. Unknown schemes are unverifiable, not invalid;
    an entry with no pre-image (a number with no canonical form) is invalid.
    """
    report = SignatureReport()
    for entry in entries:
        integrity = entry.integrity
        if integrity is None or integrity.signature is None:
            report.verdicts.append(SignatureVerdict(entry.id, "absent"))
            continue
        sig = integrity.signature
        verifier = registry.get(sig.scheme)
        if verifier is None:
            report.verdicts.append(SignatureVerdict(entry.id, "unverifiable", sig.scheme))
            continue
        try:
            pre_image = canonicalize(entry, integrity.prev_hash)
        except NonCanonicalizableNumber:
            report.verdicts.append(SignatureVerdict(entry.id, "invalid", sig.scheme))
            continue
        try:
            ok = verifier(pre_image, sig)
        except Exception:
            ok = False
        report.verdicts.append(
            SignatureVerdict(entry.id, "valid" if ok else "invalid", sig.scheme))
    return report


HMAC_SCHEME = "hmac-sha256"


def hmac_signer(key_ref: str, key: bytes, signer_role: ActorRef) -> Signer:
    """Deterministic keyed signer for tests and single-operator ledgers."""
    import base64
    import hashlib
    import hmac

    def sign(pre_image: bytes) -> SignatureRecord:
        mac = hmac.new(key, pre_image, hashlib.sha256).digest()
        return SignatureRecord(
            scheme=HMAC_SCHEME,
            signer_role=signer_role,
            key_ref=key_ref,
            signature_bytes=base64.b64encode(mac).decode("ascii"),
        )

    return sign


def hmac_verifier(keys: dict[str, bytes]) -> SchemeVerifier:
    """Verifier for the HMAC scheme; `keys` maps keyRef to key bytes."""
    import base64
    import hashlib
    import hmac

    def verify(pre_image: bytes, sig: SignatureRecord) -> bool:
        key = keys.get(sig.key_ref)
        if key is None:
            return False
        mac = hmac.new(key, pre_image, hashlib.sha256).digest()
        try:
            given = base64.b64decode(sig.signature_bytes, validate=True)
        except Exception:
            return False
        return hmac.compare_digest(mac, given)

    return verify
