"""Sealing and chain verification.

Each entry's hash commits to its full canonical content plus the previous
entry's hash: the pre-image is the entry document without its integrity
block, with a synthetic top-level field `prev` carrying the previous hash
(empty string at the chain head) inserted before key sorting. Binding the
predecessor into the pre-image is what makes deletion and reordering visible,
not just in-place edits. `seal` renders the pre-image; the checks read it
from each stored line's own bytes (`_line_pre_image`), so a file verifies
without rendering its entries and a line's hash and MAC bind the same bytes.

Signing is pluggable. A signer is any callable taking the pre-image bytes and
returning a SignatureRecord. One deterministic keyed scheme (HMAC-SHA256)
ships for tests and small deployments, and it is the one scheme that
`verify_chain` checks, given a map of keyRef to key bytes; there is no key
management here. Its modules (`hmac`, `base64`) are imported when a
signer is made or signatures are checked.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Sequence

from .canonical import canonical_bytes, compute_hash
from .errors import (
    AlreadySealed,
    LedgerError,
    MalformedDocument,
    SigningFailure,
)
from .model import (
    PAYLOAD_KEY,
    ActorRef,
    EntryEnvelope,
    IntegrityBlock,
    SignatureRecord,
    record,
    replace,
)
from .store import chain_break

Signer = Callable[[bytes], SignatureRecord]


def canonicalize(entry: EntryEnvelope, prev_hash: str | None = None) -> bytes:
    """Hash pre-image bytes for an entry.

    The integrity block never feeds its own hash; any integrity block already
    on the entry is excluded. `prev` is always present in the pre-image, as
    the empty string when there is no predecessor. An entry with a top-level
    `prev` of its own, which the pre-image's would hide from the hash, has no
    pre-image: MalformedDocument.
    """
    doc = entry.to_doc()
    doc.pop("integrity", None)
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
    if entry.integrity is not None:
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
# verification

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


@record
class SignatureVerdict:
    entry_id: str
    status: str  # valid | invalid | unverifiable | absent


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


def _line_pre_image(line: bytes, entry: EntryEnvelope) -> bytes | None:
    """The hash pre-image of `entry` read from `line`, its stored bytes, or
    None when the bytes around the line's `integrity` member are not laid out
    as `append` writes them.

    The top-level `integrity` member is cut only at its sorted place: its text
    must be the canonical rendering of the entry's IntegrityBlock, followed by
    the members that sort between `integrity` and `prev` (`links` and any
    such extensions, rendered from the entry) and then by the first key after
    `prev`. `"prev":<prevHash>` is spliced in after those members; every other
    byte is hashed as stored. An entry with a top-level `prev` of its own has
    no pre-image here either.
    """
    integrity, payload_key = entry.integrity, PAYLOAD_KEY[entry.entry_type]
    after = payload_key if "prev" < payload_key < "type" else "type"  # first key after prev
    between = {}
    links = entry.links.to_doc()
    if links:
        between["links"] = links
    for key, value in entry.extensions.items():
        if key == "prev":
            return None
        if "integrity" < key < "prev":
            between[key] = value
        elif "prev" < key < after:
            after = key
    members = canonical_bytes(between)[1:-1]
    middle = b"," + members if members else b""
    cut = b',"integrity":' + canonical_bytes(integrity.to_doc()) + middle
    at = line.find(cut + b"," + canonical_bytes(after) + b":")
    prev = b',"prev":' + canonical_bytes(integrity.prev_hash or "")
    if at < 0:
        return None
    return b"".join((line[:at], middle, prev, line[at + len(cut):]))


def verify_chain(entries: Sequence[EntryEnvelope], lines: Sequence[bytes],
                 keys: dict[str, bytes] | None = None
                 ) -> tuple[ChainVerdict, SignatureReport | None]:
    """The chain's verdict and, given `keys` (keyRef to key bytes), the
    signatures' report, both over the stored lines the entries were parsed
    from. Each line's pre-image (`_line_pre_image`) is read at most once.

    The verdict is the first broken index and its failure kind under the
    chain's rules (`store.chain_break`) and the line rule: each hash is the
    sha256 of its line's pre-image. Lines are read up to the first that
    fails, and only a line whose bytes fail is rendered (`canonicalize`): a
    `nonCanonicalLine` when that rendering's pre-image hashes right, else a
    `hashMismatch`, as for a top-level `prev`. At one index a hash mismatch
    comes first, then the chain's own kinds, then a `nonCanonicalLine`.

    The report checks every line's HMAC-SHA256 signature over the same
    pre-image, past a break in the chain too. A signature of another scheme
    is unverifiable, not invalid. One whose keyRef has no key, whose MAC
    differs, or whose line has no pre-image is invalid.
    """
    read = lambda index: _line_pre_image(lines[index], entries[index])  # noqa: E731
    if keys:  # the MACs reread the pre-images the hashes read
        read = cache(read)
    count = len(entries)
    at, kind = chain_break(entries) or (count, None)
    verdict = ChainVerdict(kind is None, None if kind is None else at, kind, count)
    for index in range(min(at + 1, count)):
        integrity = entries[index].integrity
        if integrity is None:  # the chain's own hashMismatch, at `at`
            break
        stored = read(index)
        if stored is not None and integrity.hash == compute_hash(stored):
            continue
        try:
            intact = integrity.hash == compute_hash(
                canonicalize(entries[index], integrity.prev_hash))
        except MalformedDocument:  # a top-level `prev`
            intact = False
        if index < at or not intact:
            verdict = ChainVerdict(False, index, "nonCanonicalLine" if intact else "hashMismatch",
                                   count)
            break
    if keys is None:
        return verdict, None

    import base64
    import hmac

    report = SignatureReport()
    for index, entry in enumerate(entries):
        sig = entry.integrity and entry.integrity.signature
        if sig is None:
            status = "absent"
        elif sig.scheme != HMAC_SCHEME:
            status = "unverifiable"
        else:
            try:
                key = keys.get(sig.key_ref)
                stored = None if key is None else read(index)
                ok = stored is not None and hmac.compare_digest(
                    _mac(key, stored), base64.b64decode(sig.signature_bytes, validate=True))
            except (LedgerError, TypeError, ValueError):
                ok = False
            status = "valid" if ok else "invalid"
        report.verdicts.append(SignatureVerdict(entry.id, status))
    return verdict, report


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
