"""Every crash state of an append opens to a named state.

The table is built on the lifecycle ledger's last append: its first 14 lines
and their `.head` are the old state, the 15th line (679 bytes) and its
`.head` the new one. The states are the files an append can leave when the
process stops between two of its steps: the new line cut at every byte
offset with the old `.head`, the whole line with the new `.head`, a leftover
`.head.tmp`, and an `OSError` raised at each `write`, `flush`, `fsync` and
`os.replace` the append makes (patched into `store` in-process). For each
state, `verify_file`, `read_entries` and a writer's open followed by a
redaction must end at the old head (14 entries) or the new head (15), or fail
with a named error; the 14 committed lines stay byte for byte, and no third
chain appears.

Limit: only cuts at the file level are simulated. Reordered writes inside the
filesystem (a later write reaching the disk before an earlier one) cannot be
produced from a process, so they are not covered.
"""

from __future__ import annotations

import os

import pytest

from pledger import store
from pledger.errors import LedgerError, StorageFailure
from pledger.fixtures import CONTRIBUTION_ID
from pledger.model import ActorRef, EntryType, replace
from pledger.store import LedgerFile, head_path, read_entries, verify_file

AUDITOR = ActorRef(role="auditor", pseudonym="AUD1")
LATER = "2025-07-05T00:00:00Z"


@pytest.fixture(scope="module")
def last_append(lifecycle):
    """(old bytes, old head, new line, new head, the appended entry unsealed)."""
    source, _ids, entries = lifecycle
    data = source.read_bytes()
    old = data[:data.rstrip(b"\n").rfind(b"\n") + 1]
    old_head = f"{entries[-2].integrity.hash}\n".encode("utf-8")
    return old, old_head, data[len(old):], head_path(source).read_bytes(), \
        replace(entries[-1], integrity=None)


def _write_state(path, data: bytes, head: bytes, tmp: bytes | None = None) -> None:
    path.write_bytes(data)
    head_path(path).write_bytes(head)
    leftover = head_path(path).with_name(head_path(path).name + ".tmp")
    leftover.unlink(missing_ok=True)
    if tmp is not None:
        leftover.write_bytes(tmp)


def _named(call):
    try:
        return call()
    except LedgerError as exc:
        return f"{type(exc).__name__}: {exc}"


def _outcome(path, old: bytes, new: bytes) -> tuple:
    """What verify, a reader and a writer's open + redact make of the state."""
    state = path.read_bytes()
    verify = _named(lambda: verify_file(path)[0].describe())
    read = _named(lambda: len(read_entries(path)))
    untouched = path.read_bytes() == state

    def write():
        with LedgerFile(path) as led:
            seen = len(led)
            led.redact(CONTRIBUTION_ID, "legalHold", AUDITOR, created_at=LATER)
        data = path.read_bytes()
        kept = data[:data.rstrip(b"\n").rfind(b"\n") + 1]
        verdict, entries = verify_file(path)
        chain = {old: "old", new: "new"}.get(kept, "third chain")
        return seen, verdict.describe(), entries[-1].entry_type is EntryType.TOMBSTONE, chain

    return verify, read, untouched, _named(write)


def _expected(entries: int, verify: str) -> tuple:
    chain = {14: "old", 15: "new"}[entries]
    return verify, entries, True, (entries, f"chain valid, {entries + 1} entries", True, chain)


AT_OLD_HEAD = _expected(14, "chain valid, 14 entries")
UNFINISHED = _expected(14, "CorruptLine: corrupt ledger line 15: no newline")
BETWEEN_FSYNCS = _expected(15, "chain broken at index 15: headMismatch (15 entries checked)")
AT_NEW_HEAD = _expected(15, "chain valid, 15 entries")


def test_every_cut_of_the_last_append_opens_to_a_named_state(last_append, tmp_path):
    old, old_head, line, new_head, _entry = last_append
    assert len(line) == 679
    path = tmp_path / "crash.pledger"
    seen, expected = {}, {}
    for cut in range(len(line) + 1):
        _write_state(path, old + line[:cut], old_head)
        seen[cut] = _outcome(path, old, old + line)
        expected[cut] = (AT_OLD_HEAD if cut == 0 else
                         BETWEEN_FSYNCS if cut == len(line) else UNFINISHED)
    _write_state(path, old + line, new_head)
    seen["new head"], expected["new head"] = _outcome(path, old, old + line), AT_NEW_HEAD
    assert seen == expected


@pytest.mark.parametrize("tmp", ["whole", "cut", "empty"])
def test_a_leftover_head_tmp_is_ignored_and_replaced(last_append, tmp_path, tmp):
    # A crash while the new head was being written: the line is durable, the
    # old head stays, and `.head.tmp` holds some of the new head.
    old, old_head, line, new_head, _entry = last_append
    path = tmp_path / "crash.pledger"
    leftover = {"whole": new_head, "cut": new_head[:20], "empty": b""}[tmp]
    _write_state(path, old + line, old_head, leftover)
    assert _outcome(path, old, old + line) == BETWEEN_FSYNCS
    assert not head_path(path).with_name(head_path(path).name + ".tmp").exists()


class _Faults:
    """Counts the file steps an append takes; raises OSError at step `fail_at`."""

    def __init__(self, fail_at: int | None):
        self.fail_at, self.steps = fail_at, []

    def step(self, name: str) -> None:
        self.steps.append(name)
        if len(self.steps) == self.fail_at:
            raise OSError(5, f"injected at {name}")


class _FaultyFile:
    def __init__(self, fh, faults: _Faults):
        self._fh, self._faults = fh, faults

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        self._faults.step("write")
        return self._fh.write(data)

    def flush(self):
        self._faults.step("flush")
        self._fh.flush()


class _FaultyOs:
    def __init__(self, faults: _Faults):
        self._faults = faults

    def __getattr__(self, name):
        return getattr(os, name)

    def fsync(self, fd):
        self._faults.step("fsync")
        os.fsync(fd)

    def replace(self, src, dst):
        self._faults.step("replace")
        os.replace(src, dst)


APPEND_STEPS = ["write", "flush", "fsync", "write", "flush", "fsync", "replace"]


def _append_with_faults(path, entry, faults: _Faults, monkeypatch):
    with LedgerFile(path) as led:
        led._fh = _FaultyFile(led._fh, faults)
        with monkeypatch.context() as patch:
            patch.setattr(store, "os", _FaultyOs(faults))
            patch.setattr(store, "open", lambda *a, **k: _FaultyFile(open(*a, **k), faults),
                          raising=False)
            try:
                led.append(entry)
            finally:
                led._fh = led._fh._fh
        return len(led), led.snapshot.head_hash


def test_an_append_without_faults_takes_seven_file_steps(last_append, tmp_path,
                                                         monkeypatch):
    old, old_head, line, new_head, entry = last_append
    path = tmp_path / "crash.pledger"
    _write_state(path, old, old_head)
    faults = _Faults(None)
    _append_with_faults(path, entry, faults, monkeypatch)
    assert faults.steps == APPEND_STEPS
    assert (path.read_bytes(), head_path(path).read_bytes()) == (old + line, new_head)


@pytest.mark.parametrize("fail_at", range(1, len(APPEND_STEPS) + 1),
                         ids=[f"{n}-{name}" for n, name in enumerate(APPEND_STEPS, 1)])
def test_an_append_that_fails_at_any_file_step_leaves_the_old_head(
        last_append, tmp_path, monkeypatch, fail_at):
    old, old_head, line, _new_head, entry = last_append
    path = tmp_path / "crash.pledger"
    _write_state(path, old, old_head)
    with pytest.raises(StorageFailure, match="injected at"):
        _append_with_faults(path, entry, _Faults(fail_at), monkeypatch)
    assert (path.read_bytes(), head_path(path).read_bytes()) == (old, old_head)
    assert not head_path(path).with_name(head_path(path).name + ".tmp").exists()
    assert _outcome(path, old, old + line) == AT_OLD_HEAD
