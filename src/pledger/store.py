"""Append-only single-file ledger.

One `.pledger` file holds newline-delimited canonical entry documents; a
companion `<name>.head` file carries the current head digest and is rewritten
atomically on every append. Every open reads both through `_read` and holds
them to the chain's rules (`chain_break`); `verify_file` checks the bytes
too. The writer, `LedgerFile`, takes an advisory lock so there is exactly
one writer per file; readers never lock. A writer changes no byte on disk
before its first append.

Redaction never rewrites history: a Tombstone entry restricts access to its
target's payload while the original line, and therefore the chain, stays
intact.
"""

from __future__ import annotations

import os
from datetime import timedelta
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Sequence

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
    UnknownTarget,
    ValidationFailed,
    WrongEntryType,
)
from .graph import Snapshot
from .model import (
    ActorRef,
    EntryEnvelope,
    EntryType,
    TombstonePayload,
    now_stamp,
    parse_entry,
    parse_timestamp,
    replace,
    serialize_entry,
    validate_structure,
)

if TYPE_CHECKING:  # `integrity` is imported by the methods that seal or verify
    from .integrity import ChainVerdict, SignatureReport, Signer

HEAD_SUFFIX = ".head"

CLOCK_SKEW = timedelta(hours=24)  # tolerated backwards drift between adjacent entries


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
    after the last newline (`no newline`); StorageFailure when the ledger or
    its `.head` exists but cannot be read (a directory, say).
    """
    # Read before the lines, as an append writes it after its line: a racing
    # append can make the head lag the lines read, never name a line not read.
    try:
        head = head_path(path).read_bytes() if head_path(path).exists() else None
        data = Path(path).read_bytes()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise StorageFailure(f"cannot read {path}: {exc}") from exc
    lines = data.split(b"\n")
    tail = lines.pop()  # the bytes after the last newline are never a line
    entries: list[EntryEnvelope] = []
    for line_number, raw in enumerate(lines, 1):
        if not raw or raw.isspace():
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


def chain_break(entries: Sequence[EntryEnvelope]) -> tuple[int, str] | None:
    """The index and failure kind of the first entry that breaks the chain's
    rules, else None. Every open and `verify_chain` hold a ledger to them, at
    each entry in turn: an integrity block (`hashMismatch`), a `prevHash`
    that is the previous entry's hash (`prevHashMismatch`), an id no earlier
    entry holds (`duplicateId`), and a `createdAt` timestamp at most
    CLOCK_SKEW behind the previous entry's (`orderViolation`)."""
    seen: set[str] = set()
    prev_hash, prev_created = None, ""
    for index, entry in enumerate(entries):
        link = entry.integrity
        if link is None:
            return index, "hashMismatch"
        if link.prev_hash != prev_hash:
            return index, "prevHashMismatch"
        if entry.id in seen:
            return index, "duplicateId"
        if _backdated(entry.created_at, prev_created):
            return index, "orderViolation"
        seen.add(entry.id)
        prev_hash, prev_created = link.hash, entry.created_at
    return None


def _backdated(created: str, prev: str) -> bool:
    """Whether timestamp `created` is more than CLOCK_SKEW behind `prev`,
    a timestamp or "" (none); fixed-width, so text order is time order."""
    return created < prev and parse_timestamp(created) < parse_timestamp(prev) - CLOCK_SKEW


def _committed(entries: list[EntryEnvelope], head: bytes | None) -> list[EntryEnvelope]:
    """`entries` if they keep the chain's rules and `.head` names one of them;
    else CorruptLine at the first broken line, for the reason `chain_break`
    gives, or at the line after the last (`headMismatch`: lines are lost)."""
    broken = chain_break(entries)
    if broken is not None:
        raise CorruptLine(broken[0] + 1, broken[1])
    if head is not None and not _names_a_line(head, entries):
        raise CorruptLine(len(entries) + 1, "headMismatch")
    return entries


def read_entries(path: str | Path) -> list[EntryEnvelope]:
    """The committed entries of a ledger file, as `_read` and `_committed` give them."""
    _, entries, head, _ = _read(path)
    return _committed(entries, head)


def verify_file(path: str | Path, keys: dict[str, bytes] | None = None
                ) -> tuple[ChainVerdict, list[EntryEnvelope], SignatureReport | None]:
    """Check a ledger file as stored: all of `pledger verify`. Returns the
    chain's verdict, the parsed entries and, given `keys` (keyRef to key
    bytes), the signatures' report, as `verify_chain` gives them. `.head`,
    when there is one, must hold the last line's hash and a newline
    (`headMismatch`, at index = entry count). Raises what `_read` raises, and
    CorruptLine for any bytes after the last newline.
    """
    from .integrity import ChainVerdict, verify_chain

    lines, entries, head, cut = _read(path)
    count = len(entries)
    if cut is not None:
        raise CorruptLine(count + 1, "no newline")
    verdict, report = verify_chain(entries, lines, keys)
    if verdict.valid and head is not None:
        expected = _head_line(entries[-1].integrity.hash) if entries else b""
        if head != expected:
            verdict = ChainVerdict(False, count, "headMismatch", count)
    return verdict, entries, report


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
            self.snapshot = Snapshot(_committed(entries, head))  # kept current by append
        except BaseException as exc:
            self.close()  # an open that fails must not keep the writer lock
            if isinstance(exc, OSError) and not isinstance(exc, FileNotFoundError):
                raise StorageFailure(f"cannot open {self.path}: {exc}") from exc
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
        from .integrity import seal

        if self._closed:
            raise StorageFailure(f"{self.path} is closed")
        self._check_entry(entry)
        # the chain's time rule, or every open would refuse the file
        head_at = self.snapshot.entries[-1].created_at if self.snapshot.entries else ""
        if _backdated(entry.created_at, head_at):
            raise InvalidTimestamp(f"createdAt {entry.created_at} falls more than the skew "
                                   f"allowance behind the chain head ({head_at})")
        # Lifecycle legality holds for every entry sequence, not only for
        # appends that came through the governance helpers.
        if entry.entry_type is EntryType.VOUCHER:
            self.snapshot.check_voucher(entry.id, entry.payload)
        sealed = seal(entry, prev_hash=self.snapshot.head_hash, signer=self.signer)
        line = (serialize_entry(sealed) + "\n").encode("utf-8")
        if self._fh is None:  # a new ledger, made only now, after every check
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise StorageFailure(f"cannot make {self.path.parent}: {exc}") from exc
            try:
                self._fh = _open_locked(self.path, os.O_CREAT | os.O_EXCL)
            except FileExistsError as exc:  # this snapshot is not that file's
                raise StorageFailure(f"{self.path} appeared after this writer opened it") from exc
            except OSError as exc:
                raise StorageFailure(f"cannot create {self.path}: {exc}") from exc
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
        """The Tombstone entry on `target_id`, recorded by `authorization`;
        UnknownTarget and WrongEntryType as `redact` raises them. The append
        judges the rest, the authorizing role included."""
        target = self.get(target_id)
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
        (the role, its structure, a held tombstone id) appends nothing; nor
        does the superseding entry's refusal, such as the consent a
        hand-edited original lacks (no append writes one).
        """
        original = self.get(contribution_id)
        if original.entry_type is not EntryType.CONTRIBUTION:
            raise WrongEntryType(f"{contribution_id} is not a Contribution")
        when = created_at or now_stamp()
        tombstone = self._tombstone(contribution_id, "consentWithdrawn", authorization,
                                    None, when)
        self._check_entry(tombstone)
        consent = original.consent and replace(original.consent, status="withdrawn")
        superseding = self.append(replace(
            original, id=self.snapshot.next_revision_id(contribution_id), created_at=when,
            integrity=None, consent=consent))
        return superseding, self.append(tombstone)
