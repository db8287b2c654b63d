"""Reference verdict for a stored ledger file: the check that renders every
entry twice.

The first render is each entry's hash pre-image (`canonicalize`), the second
its canonical line (`serialize_entry`), compared with the stored line byte
for byte. `store.verify_file` reaches its verdict from the stored bytes
instead; on every file whose hashes were made by `seal`, the two verdicts
must agree.
"""

from __future__ import annotations

from pathlib import Path

from pledger.canonical import compute_hash
from pledger.errors import CorruptLine, MalformedDocument, NonCanonicalizableNumber
from pledger.integrity import ChainVerdict, canonicalize
from pledger.model import parse_timestamp, serialize_entry
from pledger.store import CLOCK_SKEW, _head_line, _read


def oracle_chain(entries) -> ChainVerdict:
    """Every hash recomputed over the rendered pre-image, then the links,
    the ids and the time order, as `verify_chain` checks entries alone."""
    seen_ids: set[str] = set()
    prev_hash = prev_created = None
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
            created = parse_timestamp(entry.created_at)
        except Exception:
            return ChainVerdict(False, index, "orderViolation", len(entries))
        if prev_created is not None and created < prev_created - CLOCK_SKEW:
            return ChainVerdict(False, index, "orderViolation", len(entries))
        seen_ids.add(entry.id)
        prev_hash = integrity.hash
        prev_created = created
    return ChainVerdict(True, None, None, len(entries))


def oracle_verify_file(path: str | Path) -> ChainVerdict:
    """The chain, then each line below its first failure against its entry's
    canonical rendering (`nonCanonicalLine`), then `.head`."""
    lines, entries, head, cut = _read(path)
    count = len(entries)
    if cut is not None:
        raise CorruptLine(count + 1, "no newline")
    verdict = oracle_chain(entries)
    checked = count if verdict.valid else verdict.first_broken_index
    for index in range(checked):
        if serialize_entry(entries[index]).encode("utf-8") != lines[index]:
            return ChainVerdict(False, index, "nonCanonicalLine", count)
    if verdict.valid and head is not None:
        expected = _head_line(entries[-1].integrity.hash) if entries else b""
        if head != expected:
            verdict = ChainVerdict(False, count, "headMismatch", count)
    return verdict
