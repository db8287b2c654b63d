"""Append-only single-file ledger.

One `.pledger` file holds newline-delimited canonical entry documents; a
companion `<name>.head` file carries the current head digest and is rewritten
atomically on every append. Every open reads both through `_read`, and
`verify_file` checks them as stored. The writer, `LedgerFile`, takes an
advisory lock so there is exactly one writer per file; readers never lock.
A writer changes no byte on disk before its first append.

Redaction never rewrites history: a Tombstone entry restricts access to its
target's payload while the original line, and therefore the chain, stays
intact.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO

try:
    import fcntl
except ImportError:  # non-POSIX; single-writer discipline is then on the caller
    fcntl = None

from .errors import (
    CorruptLine,
    DuplicateId,
    InvalidTimestamp,
    LedgerError,
    StorageFailure,
    UnauthorizedRole,
    UnknownTarget,
    ValidationFailed,
    WrongEntryType,
)
from .graph import Snapshot
from .model import (
    ROLES_ALLOWED_TO_REDACT,
    ActorRef,
    EntryEnvelope,
    EntryType,
    TombstonePayload,
    ValidationReport,
    Violation,
    now_stamp,
    parse_entry,
    replace,
    serialize_entry,
    validate_structure,
)

if TYPE_CHECKING:  # `integrity` is imported by the methods that seal or verify
    from .integrity import ChainVerdict, Signer

HEAD_SUFFIX = ".head"


def head_path(ledger_path: str | Path) -> Path:
    return Path(str(ledger_path) + HEAD_SUFFIX)


def _head_line(digest: str) -> bytes:
    """What `.head` holds when the last line's hash is `digest`."""
    return f"{digest}\n".encode("utf-8")


def _read(path: str | Path) -> tuple[list[bytes], list[EntryEnvelope], bytes | None, int | None]:
    """The one read step: `.head`, then the lines, then each line parsed.

    Returns the lines, their entries, the `.head` bytes (None when absent)
    and, when an unfinished append follows the last newline, the offset to
    cut it at (else None). Bytes there are an unfinished append when `.head`
    names a line before them, or when there is neither `.head` nor a line.
    Raises CorruptLine with a 1-based line number for the first line that is
    blank, not UTF-8, or not a complete entry document, and for other bytes
    after the last newline (`no newline`).
    """
    # Read before the lines, as an append writes it after its line: a racing
    # append can make the head lag the lines read, never name a line not read.
    try:
        head = head_path(path).read_bytes()
    except FileNotFoundError:
        head = None
    data = Path(path).read_bytes()
    lines = data.split(b"\n")
    tail = lines.pop()  # the bytes after the last newline are never a line
    entries: list[EntryEnvelope] = []
    for line_number, raw in enumerate(lines, 1):
        if not raw.strip():
            raise CorruptLine(line_number, "blank line")
        try:
            entries.append(parse_entry(raw.decode("utf-8")))
        except (LedgerError, UnicodeDecodeError) as exc:
            raise CorruptLine(line_number, str(exc)) from exc
    if tail and not (_names_a_line(head, entries) if head is not None else not lines):
        raise CorruptLine(len(lines) + 1, "no newline")
    return lines, entries, head, len(data) - len(tail) if tail else None


def _names_a_line(head: bytes, entries: list[EntryEnvelope]) -> bool:
    """Whether `.head` holds a line's hash and a newline, or is empty (no line)."""
    return not head or any(head == _head_line(entry.integrity.hash)
                           for entry in reversed(entries) if entry.integrity)


def _linked(entries: list[EntryEnvelope], head: bytes | None) -> list[EntryEnvelope]:
    """Check that parsed lines link and that `.head` names one of them.

    Raises CorruptLine for the first line with no integrity block
    (`hashMismatch`, as `verify_chain` names it), whose `prevHash` is not the
    previous line's hash (`prevHashMismatch`) or whose id an earlier line
    holds (`duplicateId`); then, when `.head` names none of the lines, so
    committed lines are lost, at the line after the last (`headMismatch`).
    """
    prev_hash, seen = None, set()
    for line_number, entry in enumerate(entries, 1):
        link = entry.integrity
        if link is None:
            raise CorruptLine(line_number, "hashMismatch")
        if link.prev_hash != prev_hash:
            raise CorruptLine(line_number, "prevHashMismatch")
        if entry.id in seen:
            raise CorruptLine(line_number, "duplicateId")
        seen.add(entry.id)
        prev_hash = link.hash
    if head is not None and not _names_a_line(head, entries):
        raise CorruptLine(len(entries) + 1, "headMismatch")
    return entries


def read_entries(path: str | Path) -> list[EntryEnvelope]:
    """The committed entries of a ledger file, as `_read` and `_linked` give them."""
    _, entries, head, _ = _read(path)
    return _linked(entries, head)


def verify_file(path: str | Path) -> tuple[ChainVerdict, list[EntryEnvelope]]:
    """Check a ledger file as stored; return the verdict and the parsed entries.

    The entries must form a chain (`verify_chain`), each line must be its
    entry's canonical rendering, byte for byte (`nonCanonicalLine`), and the
    `.head` file, when there is one, must hold the last line's hash and a
    newline (`headMismatch`, at index = entry count). The earliest failing
    index is reported; on a tie the chain's own failure kind wins. Raises
    CorruptLine, as `_read` does, for a line that does not parse, and for
    any bytes after the last newline, an unfinished append included.
    """
    from .integrity import ChainVerdict, verify_chain

    lines, entries, head, cut = _read(path)
    count = len(entries)
    if cut is not None:
        raise CorruptLine(count + 1, "no newline")
    verdict = verify_chain(entries)
    # Below the chain's first failure every entry has a canonical form, so
    # rendering it cannot raise.
    checked = count if verdict.valid else verdict.first_broken_index
    for index in range(checked):
        if serialize_entry(entries[index]).encode("utf-8") != lines[index]:
            return ChainVerdict(False, index, "nonCanonicalLine", count), entries
    if verdict.valid and head is not None:
        expected = _head_line(entries[-1].integrity.hash) if entries else b""
        if head != expected:
            verdict = ChainVerdict(False, count, "headMismatch", count)
    return verdict, entries


def _open_locked(path: Path, flags: int = 0) -> BinaryIO:
    """`path` opened to append and locked; FileNotFoundError for a missing
    file unless `flags` creates it, StorageFailure when another writer holds it."""
    fh = open(path, "a+b",
              opener=lambda name, mode: os.open(name, mode & ~os.O_CREAT | flags, 0o666))
    if fcntl is not None:
        try:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            fh.close()
            raise StorageFailure(f"another writer holds the lock on {path}") from exc
    return fh


class LedgerFile:
    """The one writer of a ledger file, holding its lock until it closes.

    The open locks and reads an existing file and changes nothing on disk;
    the first append cuts an unfinished append, or makes and locks a new ledger.
    `snapshot` is the committed prefix, kept current by each append.
    `signer`, when given, signs every entry this writer appends. Readers
    take `read_entries`, `verify_file` and `Snapshot` instead.
    """

    def __init__(self, path: str | Path, signer: Signer | None = None):
        self.path = Path(path)
        self.signer = signer
        self._fh: BinaryIO | None = None  # None until a new ledger's first append
        self._cut: int | None = None  # where the first append cuts an unfinished append
        self._closed = False
        try:
            try:
                self._fh = _open_locked(self.path)
            except FileNotFoundError:  # a new ledger, unless `.head` names a lost line
                entries, head = [], None
                if head_path(self.path).exists():
                    head = head_path(self.path).read_bytes()
            else:
                _, entries, head, self._cut = _read(self.path)
            self.snapshot = Snapshot(_linked(entries, head))  # kept current by append
        except BaseException:
            self.close()  # an open that fails must not keep the writer lock
            raise

    def close(self) -> None:
        self._closed = True
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "LedgerFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.snapshot.entries)

    def get(self, entry_id: str) -> EntryEnvelope:
        try:
            return self.snapshot.by_id[entry_id]
        except KeyError:
            raise UnknownTarget(f"no entry {entry_id!r} in {self.path.name}") from None

    def append(self, entry: EntryEnvelope) -> EntryEnvelope:
        """Validate, seal against the current head (signed by `signer`), and
        durably append.

        Every check runs before the disk changes, so a refused entry changes
        nothing; on a failed write the lines and `.head` are as before the
        call. Returns the sealed entry.
        """
        from .integrity import CLOCK_SKEW, seal

        if self._closed:
            raise StorageFailure(f"{self.path} is closed")
        self._check_entry(entry)
        # an append may backdate at most the verifier's skew allowance,
        # or the file would stop verifying as a chain
        if self.snapshot.entries:
            head_entry = self.snapshot.entries[-1]
            if (entry.created_at_datetime()
                    < head_entry.created_at_datetime() - CLOCK_SKEW):
                raise InvalidTimestamp(
                    f"createdAt {entry.created_at} falls more than the skew "
                    f"allowance behind the chain head ({head_entry.created_at})")
        # Lifecycle legality holds for every entry sequence, not only for
        # appends that came through the governance helpers.
        if entry.entry_type is EntryType.VOUCHER:
            self.snapshot.check_voucher(entry.id, entry.payload)
        sealed = seal(entry, prev_hash=self.snapshot.head_hash, signer=self.signer)
        line = (serialize_entry(sealed) + "\n").encode("utf-8")
        if self._fh is None:  # a new ledger, made only now, after every check
            self.path.parent.mkdir(parents=True, exist_ok=True)
            try:
                self._fh = _open_locked(self.path, os.O_CREAT | os.O_EXCL)
            except FileExistsError as exc:  # this snapshot is not that file's
                raise StorageFailure(f"{self.path} appeared after this writer opened it") from exc
        elif self._cut is not None:  # the unfinished append `_read` left out
            self._fh.truncate(self._cut)
            os.fsync(self._fh.fileno())
            self._cut = None
        size_before = self.path.stat().st_size
        # The entry counts as appended only once both the line and the head
        # are durable; until then a failure rolls the file back and leaves
        # the snapshot and head untouched.
        try:
            self._fh.write(line)
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._write_head(sealed.integrity.hash)
        except OSError as exc:
            try:
                self._fh.truncate(size_before)
                self._fh.flush()
                os.fsync(self._fh.fileno())
            except OSError:
                pass
            raise StorageFailure(f"append to {self.path} failed: {exc}") from exc
        self.snapshot.add(sealed)
        return sealed

    def _check_entry(self, entry: EntryEnvelope) -> None:
        """Raise what `append` refuses from `entry` and the ids held alone:
        ValidationFailed for a structure fault, DuplicateId for a held id."""
        report = validate_structure(entry)
        if not report.ok():
            raise ValidationFailed(report)
        if entry.id in self.snapshot.by_id:
            raise DuplicateId(f"entry id {entry.id!r} already in ledger")

    def _write_head(self, digest: str) -> None:
        target = head_path(self.path)
        tmp = target.with_name(target.name + ".tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(_head_line(digest))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, target)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise

    def redact(self, target_id: str, reason: str, authorization: ActorRef,
               tombstone_id: str | None = None, created_at: str | None = None) -> EntryEnvelope:
        """Append a Tombstone restricting access to `target_id`'s payload."""
        return self.append(self._tombstone(target_id, reason, authorization,
                                           tombstone_id, created_at or now_stamp()))

    def _tombstone(self, target_id: str, reason: str, authorization: ActorRef,
                   tombstone_id: str | None, created_at: str) -> EntryEnvelope:
        """The Tombstone entry on `target_id`; UnknownTarget, UnauthorizedRole
        and WrongEntryType as `redact` raises them."""
        target = self.get(target_id)
        if authorization.role not in ROLES_ALLOWED_TO_REDACT:
            raise UnauthorizedRole(
                f"role {authorization.role!r} cannot redact; "
                "needs communitySteward or auditor")
        if target.entry_type is EntryType.TOMBSTONE:
            raise WrongEntryType("tombstones cannot be tombstoned")
        return EntryEnvelope(
            id="pl:tomb:" + ":".join(target_id.split(":")[1:]) if tombstone_id is None
            else tombstone_id,
            entry_type=EntryType.TOMBSTONE,
            created_at=created_at,
            actor=authorization,
            payload=TombstonePayload(
                target_id=target_id,
                reason=reason,
                authorization=authorization,
                retained_hash=target.integrity.hash,
            ),
        )

    def withdraw_consent(self, contribution_id: str, authorization: ActorRef,
                         created_at: str | None = None) -> tuple[EntryEnvelope, EntryEnvelope]:
        """Record a consent withdrawal without editing history.

        Appends a superseding Contribution (same content, consent status
        withdrawn, id `<base>:rev<k>`) and a Tombstone on the original.
        Returns (superseding entry, tombstone entry). The Tombstone is built
        and checked first, so what its append refuses from the inputs alone
        (the role, its structure, a held tombstone id) appends nothing.
        """
        original = self.get(contribution_id)
        if original.entry_type is not EntryType.CONTRIBUTION:
            raise WrongEntryType(f"{contribution_id} is not a Contribution")
        if original.consent is None:  # a hand-edited line: no append writes one
            raise ValidationFailed(ValidationReport([Violation(
                "consent", "contribution.consent-required",
                f"{contribution_id} carries no consent block to withdraw")]))
        when = created_at or now_stamp()
        tombstone = self._tombstone(contribution_id, "consentWithdrawn", authorization,
                                    None, when)
        self._check_entry(tombstone)
        superseding = self.append(replace(
            original, id=self.snapshot.next_revision_id(contribution_id), created_at=when,
            integrity=None, consent=replace(original.consent, status="withdrawn")))
        return superseding, self.append(tombstone)
