"""Sealing and chain verification.

Each entry's hash commits to its full canonical content plus the previous
entry's hash: the pre-image is the entry document without its integrity
block, with a synthetic top-level field `prev` carrying the previous hash
(empty string at the chain head) inserted before key sorting. Binding the
predecessor into the pre-image is what makes deletion and reordering visible,
not just in-place edits.

Signing is pluggable. A signer is any callable taking the pre-image bytes and
returning a SignatureRecord. One deterministic keyed scheme (HMAC-SHA256)
ships for tests and small deployments, and it is the one scheme that
`verify_signatures` checks, against a map of keyRef to key bytes; there is no
key management here. Its modules (`hmac`, `base64`) are imported when a
signer is made or signatures are checked.
"""

from __future__ import annotations

from datetime import timedelta
from typing import Callable, Iterable, Sequence

from .canonical import canonical_bytes, compute_hash
from .errors import (
    AlreadySealed,
    LedgerError,
    MalformedDocument,
    NonCanonicalizableNumber,
    SigningFailure,
)
from .model import ActorRef, EntryEnvelope, IntegrityBlock, SignatureRecord, record, replace

# Tolerated backwards clock drift between adjacent entries.
CLOCK_SKEW = timedelta(hours=24)

Signer = Callable[[bytes], SignatureRecord]


def canonicalize(entry: EntryEnvelope, prev_hash: str | None = None) -> bytes:
    """Hash pre-image bytes for an entry.

    The integrity block never feeds its own hash; any integrity block already
    on the entry is excluded. `prev` is always present in the pre-image, as
    the empty string when there is no predecessor. An entry with a top-level
    `prev` of its own, which the pre-image's would hide from the hash, has no
    pre-image: MalformedDocument.
    """
    doc = entry.to_doc(include_integrity=False)
    if "prev" in doc:
        raise MalformedDocument(f"entry {entry.id}: top-level prev is reserved "
                                "for the hash pre-image")
    doc["prev"] = prev_hash or ""
    return canonical_bytes(doc)


def seal(entry: EntryEnvelope, prev_hash: str | None = None,
         signer: Signer | None = None) -> EntryEnvelope:
    """Return a sealed copy of the entry; the input is not modified.

    Raises AlreadySealed when an integrity block is present, the errors of
    `canonicalize` when the entry has no pre-image, and SigningFailure (with
    no sealed entry produced) when the signer hook raises.
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
    kind. Entries must be sealed; an unsealed entry, or one with no pre-image
    (a number with no canonical form, such as NaN or ±inf, or a top-level
    `prev`), shows up as a hash mismatch at its index. Timestamps may step
    backwards by at most the clock-skew allowance.
    """
    seen_ids: set[str] = set()
    prev_hash: str | None = None
    prev_created = None
    for index, entry in enumerate(entries):
        integrity = entry.integrity
        try:
            intact = integrity is not None \
                and integrity.hash == compute_hash(canonicalize(entry, integrity.prev_hash))
        except (NonCanonicalizableNumber, MalformedDocument):
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


HMAC_SCHEME = "hmac-sha256"


def _mac(key: bytes, pre_image: bytes) -> bytes:
    import hashlib
    import hmac

    return hmac.new(key, pre_image, hashlib.sha256).digest()


def verify_signatures(entries: Iterable[EntryEnvelope],
                      keys: dict[str, bytes]) -> SignatureReport:
    """Check each entry's HMAC-SHA256 signature; `keys` maps keyRef to key bytes.

    Assumes the chain already verified; hashes are not recomputed here beyond
    rebuilding each pre-image. A signature of another scheme is unverifiable,
    not invalid. One whose keyRef has no key, whose MAC differs, or whose
    entry has no pre-image is invalid.
    """
    import base64
    import hmac

    report = SignatureReport()
    for entry in entries:
        integrity = entry.integrity
        if integrity is None or integrity.signature is None:
            report.verdicts.append(SignatureVerdict(entry.id, "absent"))
            continue
        sig = integrity.signature
        if sig.scheme != HMAC_SCHEME:
            report.verdicts.append(SignatureVerdict(entry.id, "unverifiable", sig.scheme))
            continue
        try:
            key = keys.get(sig.key_ref)
            ok = key is not None and hmac.compare_digest(
                _mac(key, canonicalize(entry, integrity.prev_hash)),
                base64.b64decode(sig.signature_bytes, validate=True))
        except (LedgerError, TypeError, ValueError):
            ok = False
        report.verdicts.append(
            SignatureVerdict(entry.id, "valid" if ok else "invalid", sig.scheme))
    return report


def hmac_signer(key_ref: str, key: bytes, signer_role: ActorRef) -> Signer:
    """Deterministic keyed signer for tests and single-operator ledgers."""
    import base64

    def sign(pre_image: bytes) -> SignatureRecord:
        return SignatureRecord(
            scheme=HMAC_SCHEME,
            signer_role=signer_role,
            key_ref=key_ref,
            signature_bytes=base64.b64encode(_mac(key, pre_image)).decode("ascii"),
        )

    return sign
