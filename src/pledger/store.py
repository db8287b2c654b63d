"""Append-only single-file ledger.

One `.pledger` file holds newline-delimited canonical entry documents; a
companion `<name>.head` file carries the current head digest and is rewritten
atomically on every append. A writable handle takes an advisory lock so there
is exactly one writer per file; readers never lock.

Redaction never rewrites history: a Tombstone entry restricts access to its
target's payload while the original line, and therefore the chain, stays
intact.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

try:
    import fcntl
except ImportError:  # non-POSIX; single-writer discipline is then on the caller
    fcntl = None

from .errors import (
    CorruptLine,
    DuplicateId,
    IllegalTransition,
    InvalidTimestamp,
    LedgerError,
    StorageFailure,
    UnauthorizedRole,
    UnknownTarget,
    ValidationFailed,
    WrongEntryType,
)
from .graph import Snapshot
from .integrity import CLOCK_SKEW, ChainVerdict, Signer, seal, verify_chain
from .model import (
    ROLES_ALLOWED_TO_REDACT,
    VOUCHER_TRANSITIONS,
    ActorRef,
    EntryEnvelope,
    EntryType,
    TombstonePayload,
    now_stamp,
    parse_entry,
    serialize_entry,
    validate_structure,
)

LEDGER_SUFFIX = ".pledger"
HEAD_SUFFIX = ".head"


def head_path(ledger_path: str | Path) -> Path:
    return Path(str(ledger_path) + HEAD_SUFFIX)


def read_entries(path: str | Path) -> list[EntryEnvelope]:
    """Parse every line of a ledger file.

    Raises CorruptLine with a 1-based line number for the first line that is
    not a complete entry document; a torn final line (partial write, crash)
    surfaces here and can be dropped with `truncate_torn_tail`.
    """
    data = Path(path).read_bytes()
    entries: list[EntryEnvelope] = []
    if not data:
        return entries
    lines = data.split(b"\n")
    terminated = data.endswith(b"\n")
    if terminated:
        lines = lines[:-1]
    for i, raw in enumerate(lines):
        line_number = i + 1
        if not raw.strip():
            raise CorruptLine(line_number, "blank line")
        try:
            entries.append(parse_entry(raw.decode("utf-8")))
        except (LedgerError, UnicodeDecodeError) as exc:
            raise CorruptLine(line_number, str(exc)) from exc
    return entries


def truncate_torn_tail(path: str | Path) -> int | None:
    """Drop a torn final line in place.

    Returns the 1-based line number removed, or None when the file needed no
    repair. Only the final line is ever touched; corruption elsewhere is a
    tamper signal, not a crash artifact, and is left for verify_chain.
    """
    p = Path(path)
    data = p.read_bytes()
    if not data:
        return None
    cut = data.rfind(b"\n") + 1  # 0 when no newline at all
    tail = data[cut:]
    if not tail:
        return None
    try:
        parse_entry(tail.decode("utf-8"))
        return None
    except (LedgerError, UnicodeDecodeError):
        pass
    with open(p, "r+b") as fh:
        fh.truncate(cut)
        fh.flush()
        os.fsync(fh.fileno())
    return data[:cut].count(b"\n") + 1


@dataclass
class RedactionMarker:
    """What a reader sees in place of a tombstoned payload."""
    target_id: str
    reason: str
    retained_hash: str
    tombstone_id: str


class LedgerFile:
    """A participation ledger backed by one append-only file."""

    def __init__(self, path: str | Path, writable: bool = True):
        self.path = Path(path)
        self.writable = writable
        self.snapshot = Snapshot()
        self._head: str | None = None
        self._fh = None
        if writable:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.touch(exist_ok=True)
            self._fh = open(self.path, "a+b")
            if fcntl is not None:
                try:
                    fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                except OSError as exc:
                    self._fh.close()
                    self._fh = None
                    raise StorageFailure(
                        f"another writer holds the lock on {self.path}") from exc
        elif not self.path.exists():
            raise StorageFailure(f"no ledger at {self.path}")
        self._load()

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "LedgerFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _load(self) -> None:
        # The live index, kept current by each append. A repeated id keeps
        # its first position; verify_chain reports it.
        self.snapshot = Snapshot(read_entries(self.path))
        entries = self.snapshot.entries
        self._head = entries[-1].integrity.hash if entries and \
            entries[-1].integrity else None

    # -- reads ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.snapshot.entries)

    def __iter__(self) -> Iterator[EntryEnvelope]:
        return iter(self.snapshot.entries)

    @property
    def entries(self) -> list[EntryEnvelope]:
        return list(self.snapshot.entries)

    @property
    def head_hash(self) -> str | None:
        return self._head

    def has(self, entry_id: str) -> bool:
        return entry_id in self.snapshot.by_id

    def get(self, entry_id: str) -> EntryEnvelope:
        try:
            return self.snapshot.by_id[entry_id]
        except KeyError:
            raise UnknownTarget(f"no entry {entry_id!r} in {self.path.name}") from None

    def index_of(self, entry_id: str) -> int:
        self.get(entry_id)
        return self.snapshot.position[entry_id]

    def verify(self) -> ChainVerdict:
        return verify_chain(self.snapshot.entries)

    def tombstones(self) -> dict[str, EntryEnvelope]:
        """Map from target id to the tombstone entry restricting it."""
        return dict(self.snapshot.hidden)

    def payload_view(self, entry_id: str) -> Any:
        """Access-layer read: the payload, or a RedactionMarker if tombstoned."""
        entry = self.get(entry_id)
        tomb = self.snapshot.hidden.get(entry_id)
        if tomb is not None:
            return RedactionMarker(
                target_id=entry_id,
                reason=tomb.payload.reason,
                retained_hash=tomb.payload.retained_hash,
                tombstone_id=tomb.id,
            )
        return entry.payload

    # -- writes --------------------------------------------------------------

    def _require_writable(self) -> None:
        if not self.writable or self._fh is None:
            raise StorageFailure(f"{self.path} opened read-only")

    def _check_voucher_transition(self, entry: EntryEnvelope) -> None:
        # Lifecycle legality holds for every entry sequence, not only for
        # appends that came through the governance helpers.
        if entry.entry_type is not EntryType.VOUCHER:
            return
        base = self.snapshot.base_of(entry.id)
        current: str | None = None
        for prior in self.snapshot.lineage(entry.id):
            if prior.entry_type is EntryType.VOUCHER:
                current = prior.payload.status
        status = entry.payload.status
        if current is None:
            if status != "issued":
                raise IllegalTransition(
                    f"voucher lineage {base} must start as issued, got {status!r}")
        elif status not in VOUCHER_TRANSITIONS.get(current, frozenset()):
            raise IllegalTransition(f"voucher {base}: {current} -> {status} is not legal")

    def append(self, entry: EntryEnvelope, signer: Signer | None = None) -> EntryEnvelope:
        """Validate, seal against the current head, and durably append.

        On any failure the file is byte-identical to its state before the
        call. Returns the sealed entry.
        """
        self._require_writable()
        if entry.id in self.snapshot.by_id:
            raise DuplicateId(f"entry id {entry.id!r} already in ledger")
        report = validate_structure(entry)
        if not report.ok():
            raise ValidationFailed(report)
        # an append may backdate at most the verifier's skew allowance,
        # or the file would stop verifying as a chain
        if self.snapshot.entries:
            head_entry = self.snapshot.entries[-1]
            if (entry.created_at_datetime()
                    < head_entry.created_at_datetime() - CLOCK_SKEW):
                raise InvalidTimestamp(
                    f"createdAt {entry.created_at} falls more than the skew "
                    f"allowance behind the chain head ({head_entry.created_at})")
        self._check_voucher_transition(entry)
        sealed = seal(entry, prev_hash=self._head, signer=signer)
        line = (serialize_entry(sealed) + "\n").encode("utf-8")
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
        self._head = sealed.integrity.hash
        return sealed

    def _write_head(self, digest: str) -> None:
        target = head_path(self.path)
        tmp = target.with_name(target.name + ".tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(digest + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, target)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise

    def redact(self, target_id: str, reason: str, authorization: ActorRef,
               tombstone_id: str | None = None, created_at: str | None = None,
               signer: Signer | None = None) -> EntryEnvelope:
        """Append a Tombstone restricting access to `target_id`'s payload."""
        self._require_writable()
        target = self.get(target_id)
        if authorization.role not in ROLES_ALLOWED_TO_REDACT:
            raise UnauthorizedRole(
                f"role {authorization.role!r} cannot redact; "
                "needs communitySteward or auditor")
        if target.entry_type is EntryType.TOMBSTONE:
            raise WrongEntryType("tombstones cannot be tombstoned")
        if target.integrity is None:
            raise UnknownTarget(f"target {target_id!r} is not sealed")
        if tombstone_id is None:
            tombstone_id = "pl:tomb:" + ":".join(target_id.split(":")[1:])
        payload = TombstonePayload(
            target_id=target_id,
            reason=reason,
            authorization=authorization,
            retained_hash=target.integrity.hash,
        )
        entry = EntryEnvelope(
            id=tombstone_id,
            entry_type=EntryType.TOMBSTONE,
            created_at=created_at or now_stamp(),
            actor=authorization,
            payload=payload,
        )
        return self.append(entry, signer=signer)

    def withdraw_consent(self, contribution_id: str, authorization: ActorRef,
                         created_at: str | None = None,
                         signer: Signer | None = None) -> tuple[EntryEnvelope, EntryEnvelope]:
        """Record a consent withdrawal without editing history.

        Appends a superseding Contribution (same content, consent status
        withdrawn, id `<base>:rev<k>`) and a Tombstone on the original.
        Returns (superseding entry, tombstone entry).
        """
        self._require_writable()
        original = self.get(contribution_id)
        if original.entry_type is not EntryType.CONTRIBUTION:
            raise WrongEntryType(f"{contribution_id} is not a Contribution")
        when = created_at or now_stamp()
        superseding = copy.deepcopy(original)
        superseding.id = self.snapshot.next_revision_id(contribution_id)
        superseding.created_at = when
        superseding.integrity = None
        assert superseding.consent is not None
        superseding.consent.status = "withdrawn"
        sealed_superseding = self.append(superseding, signer=signer)
        tombstone = self.redact(
            contribution_id, "consentWithdrawn", authorization,
            created_at=when, signer=signer)
        return sealed_superseding, tombstone
