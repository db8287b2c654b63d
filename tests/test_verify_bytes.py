"""`verify` hashes each stored line's bytes; its verdicts are the two-render
oracle's.

Each tamper below is applied to one line of the lifecycle ledger, a signed
copy of it and small seeded generator ledgers (`perfbench/gen.py`), at the
first line of every entry type and at the ends. `store.verify_file` and
`oracle_verify_file` must give the same (valid, index, kind, count), with
the file's own `.head` and without one. Only a forger who reseals
non-canonical bytes over those bytes gets a different verdict, pinned in a
test of its own. Signatures, at the end, are checked over the same bytes as
the hashes.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import json
import re
import sys
from pathlib import Path

import pytest

from oracle_verify import oracle_verify_file
from pledger import integrity
from pledger.cli import main
from pledger.canonical import canonical_json
from pledger.errors import CorruptLine
from pledger.integrity import canonicalize, hmac_signer, seal
from pledger.model import ActorRef, parse_entry, replace, serialize_entry
from pledger.store import LedgerFile, head_path, verify_file
from test_cli import BROKEN_CHAINS, KEPT_CHAINS

ROOT = Path(__file__).resolve().parents[1]


def _respaced(line: str) -> str:
    return json.dumps(json.loads(line), ensure_ascii=False)


def _reordered(line: str) -> str:
    return json.dumps(dict(reversed(json.loads(line).items())), separators=(",", ":"),
                      ensure_ascii=False)


def _type_repeated(line: str) -> str:
    return line[:-1] + ',"type":' + json.dumps(json.loads(line)["type"]) + "}"


def _type_repeated_as_other(line: str) -> str:
    return line[:-1] + ',"type":"Credit"}' if json.loads(line)["type"] != "Credit" \
        else line[:-1] + ',"type":"Test"}'


_NUMBER = re.compile(r'(?<=":)-?\d+(?:\.\d+)?(?=[,}\]])')


def _number(text: str):
    def tamper(line: str) -> str | None:
        found = _NUMBER.search(line)
        return None if found is None else line[:found.start()] + text + line[found.end():]
    return tamper


def _integer_as_float(line: str) -> str | None:
    found = re.search(r'(?<=":)-?\d+(?=[,}\]])', line)
    return None if found is None else line[:found.end()] + ".0" + line[found.end():]


def _escaped_letter(line: str) -> str:
    at = line.index('"createdAt":"') + len('"createdAt":"')
    return line[:at] + "\\u%04x" % ord(line[at]) + line[at + 1:]


def _note_in_integrity(line: str) -> str:
    doc = json.loads(line)
    doc["integrity"]["note"] = "rewritten"
    return canonical_json(doc)


def _integrity_moved(where: str):
    def tamper(line: str) -> str:
        doc = json.loads(line)
        member = '"integrity":' + canonical_json(doc.pop("integrity"))
        rest = canonical_json(doc)
        if where == "first":
            return "{" + member + "," + rest[1:]
        if where == "last":
            return rest[:-1] + "," + member + "}"
        at = rest.index(',"createdAt":')  # before createdAt, ahead of its sorted place
        return rest[:at] + "," + member + rest[at:]
    return tamper


def _integrity_keys_reordered(line: str) -> str:
    doc = json.loads(line)
    block = doc.pop("integrity")
    reordered = json.dumps(dict(reversed(block.items())), separators=(",", ":"))
    rest = canonical_json(doc)
    at = rest.index(',"', rest.index('"id":'))
    return rest[:at] + ',"integrity":' + reordered + rest[at:]


def _nested(key: str) -> dict:
    return {key: {"integrity": {"hash": "sha256:" + "1" * 64}, "links": {"usesTest": ["x"]},
                  "prev": "sha256:" + "2" * 64, "type": "Test"}}


def _extension_added(key: str, value=None):
    def tamper(line: str) -> str:
        doc = json.loads(line)
        doc[key] = _nested(key) if value is None else value
        return json.dumps(doc, separators=(",", ":"), sort_keys=True, ensure_ascii=False)
    return tamper


def _signature_changed(line: str) -> str | None:
    doc = json.loads(line)
    signature = doc["integrity"].get("signature")
    if signature is None:
        return None
    signature["signatureBytes"] = "AAAA" + signature["signatureBytes"][4:]
    return canonical_json(doc)


def _signature_extended(line: str) -> str | None:
    doc = json.loads(line)
    signature = doc["integrity"].get("signature")
    if signature is None:
        return None
    signature["note"] = "kept"  # a signature keeps members it does not know
    return canonical_json(doc)


def _signature_reordered(line: str) -> str | None:
    doc = json.loads(line)
    signature = doc["integrity"].get("signature")
    if signature is None:
        return None
    text = canonical_json(doc)
    block = canonical_json(signature)
    return text.replace(block, json.dumps(dict(reversed(signature.items())),
                                          separators=(",", ":")))


# Line tampers: each takes one stored line and returns its replacement, or
# None when the line has nothing for it to change.
LINE_TAMPERS = {
    "respaced": _respaced,
    "reordered-keys": _reordered,
    "repeated-key": _type_repeated,
    "repeated-key-other-value": _type_repeated_as_other,
    "nan": _number("NaN"),
    "1e400": _number("1e400"),
    "-infinity": _number("-Infinity"),
    "integer-as-float": _integer_as_float,
    "escaped-letter": _escaped_letter,
    "note-in-integrity": _note_in_integrity,
    "integrity-first": _integrity_moved("first"),
    "integrity-last": _integrity_moved("last"),
    "integrity-early": _integrity_moved("early"),
    "integrity-keys-reordered": _integrity_keys_reordered,
    "top-level-prev": _extension_added("prev", "sha256:" + "3" * 64),
    "nested-extension-before-id": _extension_added("aaa"),
    "nested-extension-before-prev": _extension_added("lz"),
    "nested-extension-after-prev": _extension_added("pz"),
    "nested-extension-after-type": _extension_added("zz"),
    "nan-extension-before-prev": _extension_added("j", float("nan")),
    "signature-changed": _signature_changed,
    "signature-extended": _signature_extended,
    "signature-reordered": _signature_reordered,
}


# Extension keys that sort before `id`, between `id` and `integrity`,
# between `integrity` and `prev` (either side of `links`), between `prev`
# and the payload or `type`, and after `type`.
NESTING_KEYS = ("aaa", "ie", "j", "lz", "pa", "pz", "rz", "tz", "zz")


def _signed_copy(source: Path, path: Path) -> None:
    steward = ActorRef(role="communitySteward", steward_org="pl:org:gen-steward")
    with LedgerFile(path, hmac_signer("k1", b"sekrit", steward)) as ledger:
        for line in source.read_text("utf-8").splitlines():
            ledger.append(replace(parse_entry(line), integrity=None))


def _generated(plan: str, seed: int, scale: float, path: Path) -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import gen
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    gen.build(list(gen.PLANS[plan](seed, scale).plan), path)


@pytest.fixture(scope="module")
def ledgers(lifecycle, tmp_path_factory) -> dict[str, Path]:
    folder = tmp_path_factory.mktemp("verify-bytes")
    made = {"lifecycle": lifecycle[0]}
    made["signed"] = folder / "signed.pledger"
    _signed_copy(lifecycle[0], made["signed"])
    for plan, seed, scale in (("audit", 3, 0.01), ("govern", 5, 0.02)):
        made[f"{plan}-{seed}"] = folder / f"{plan}-{seed}.pledger"
        _generated(plan, seed, scale, made[f"{plan}-{seed}"])
    return made


def _indices(lines: list[str]) -> list[int]:
    """The first line of each entry type, and the first and last lines."""
    first: dict[str, int] = {}
    for index, line in enumerate(lines):
        first.setdefault(json.loads(line)["type"], index)
    return sorted({0, len(lines) - 1, *first.values()})


def _verdict(verify, path: Path):
    try:
        v = verify(path)
    except CorruptLine as exc:
        return str(exc)
    return (v.valid, v.first_broken_index, v.failure_kind, v.entry_count)


def _assert_agrees(path: Path, head: bytes, monkeypatch) -> list:
    """Both checks give one verdict on `path`, with `.head` holding `head`
    and without one; a valid file verifies with no rendered pre-image.
    Returns the two verdicts."""
    rendered = []
    canonical = integrity.canonicalize
    monkeypatch.setattr(integrity, "canonicalize",
                        lambda *args: rendered.append(args) or canonical(*args))
    found = []
    for keep_head in (True, False):
        if keep_head:
            head_path(path).write_bytes(head)
        else:
            head_path(path).unlink(missing_ok=True)
        rendered.clear()
        new = _verdict(lambda p: verify_file(p)[0], path)
        assert new == _verdict(oracle_verify_file, path), (path.name, keep_head)
        if isinstance(new, tuple) and new[0]:
            assert rendered == []
        found.append(new)
    return found


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), "utf-8")


@pytest.mark.parametrize("tamper", LINE_TAMPERS.values(), ids=LINE_TAMPERS.keys())
def test_a_tampered_line_gets_the_oracles_verdict(ledgers, tmp_path, monkeypatch, tamper):
    applied = 0
    for name, source in ledgers.items():
        lines = source.read_text("utf-8").splitlines()
        for index in _indices(lines):
            line = tamper(lines[index])
            if line is None:
                continue
            applied += 1
            path = tmp_path / f"{name}-{index}.pledger"
            _write(path, [*lines[:index], line, *lines[index + 1:]])
            _assert_agrees(path, head_path(source).read_bytes(), monkeypatch)
    assert applied


@pytest.mark.parametrize("key", NESTING_KEYS)
def test_nested_keys_named_as_the_cut_and_splice_keep_a_resealed_line_valid(
        ledgers, tmp_path, monkeypatch, key):
    # An entry carrying nested `integrity`, `links`, `prev` and `type` keys
    # under extension `key`, sealed onto its predecessor: the file that ends
    # with it is valid, read without a render, and the next line of the
    # original no longer links to it.
    for name, source in ledgers.items():
        lines = source.read_text("utf-8").splitlines()
        for index in _indices(lines):
            entry = parse_entry(lines[index])
            line = serialize_entry(seal(
                replace(entry, integrity=None, extensions={**entry.extensions, **_nested(key)}),
                prev_hash=entry.integrity.prev_hash))
            path = tmp_path / f"{name}-{index}.pledger"
            _write(path, [*lines[:index], line])
            head = (json.loads(line)["integrity"]["hash"] + "\n").encode("utf-8")
            assert _assert_agrees(path, head, monkeypatch)[0] == (True, None, None, index + 1)
            _write(path, [*lines[:index], line, *lines[index + 1:]])
            _assert_agrees(path, head_path(source).read_bytes(), monkeypatch)


@pytest.mark.parametrize("case", [*KEPT_CHAINS, *BROKEN_CHAINS])
def test_the_cli_tampers_get_the_oracles_verdict(ledgers, tmp_path, monkeypatch, case):
    tamper = {**KEPT_CHAINS, **BROKEN_CHAINS}[case][0]
    source = ledgers["lifecycle"]
    path = tmp_path / "tampered.pledger"
    _write(path, tamper(source.read_text("utf-8").splitlines()))
    _assert_agrees(path, head_path(source).read_bytes(), monkeypatch)


@pytest.mark.parametrize("case", BROKEN_CHAINS)
def test_a_chain_failure_comes_before_a_non_canonical_line_at_its_index(
        ledgers, tmp_path, monkeypatch, case):
    tamper, index, kind, count, _refusal = BROKEN_CHAINS[case]
    source = ledgers["lifecycle"]
    lines = tamper(source.read_text("utf-8").splitlines())
    lines[index] = _respaced(lines[index])
    path = tmp_path / "tampered.pledger"
    _write(path, lines)
    assert _assert_agrees(path, head_path(source).read_bytes(), monkeypatch) \
        == [(False, index, kind, count)] * 2


def _resealed_over_its_bytes(lines: list[str], index: int, edit) -> list[str]:
    """Line `index` made non-canonical by `edit`, its hash recomputed over
    the edited pre-image, and every later line relinked to it."""
    entry = parse_entry(lines[index])
    pre_image = edit(canonicalize(entry, entry.integrity.prev_hash).decode("utf-8"))
    forged = "sha256:" + hashlib.sha256(pre_image.encode("utf-8")).hexdigest()
    out = [*lines[:index], edit(lines[index]).replace(entry.integrity.hash, forged)]
    prev = forged
    for line in lines[index + 1:]:
        later = parse_entry(line)
        sealed = seal(replace(later, integrity=None), prev_hash=prev)
        out.append(serialize_entry(sealed))
        prev = sealed.integrity.hash
    return out


def test_non_canonical_bytes_resealed_over_those_bytes_now_verify(lifecycle, tmp_path):
    # The one changed verdict: the hash is checked over the stored bytes, so
    # a line whose bytes outside `integrity` are not canonical, but whose
    # hash (and every later link) was recomputed over exactly those bytes,
    # is valid. The two-render check calls it a hash mismatch.
    lines = lifecycle[0].read_text("utf-8").splitlines()
    path = tmp_path / "forged.pledger"
    forged = _resealed_over_its_bytes(lines, 4, lambda text: "{ " + text[1:])
    _write(path, forged)
    head_path(path).write_text(json.loads(forged[-1])["integrity"]["hash"] + "\n")
    assert _verdict(lambda p: verify_file(p)[0], path) == (True, None, None, 15)
    assert _verdict(oracle_verify_file, path) == (False, 4, "hashMismatch", 15)


def test_a_top_level_prev_has_no_pre_image_even_over_its_own_bytes(lifecycle, tmp_path,
                                                                   monkeypatch):
    # A line with a `prev` member of its own (here first, out of its sorted
    # place) and its hash recomputed over those bytes with the chain's `prev`
    # spliced in is still a hash mismatch: as for `canonicalize`, such an
    # entry has no pre-image.
    lines = lifecycle[0].read_text("utf-8").splitlines()
    doc = json.loads(lines[-1])
    block = doc.pop("integrity")
    own = '{"prev":"sha256:' + "3" * 64 + '",'
    pre_image = own + canonical_json({**doc, "prev": block["prevHash"]})[1:]
    block["hash"] = "sha256:" + hashlib.sha256(pre_image.encode("utf-8")).hexdigest()
    path = tmp_path / "prev.pledger"
    _write(path, [*lines[:-1], own + canonical_json({**doc, "integrity": block})[1:]])
    assert _assert_agrees(path, (block["hash"] + "\n").encode("utf-8"), monkeypatch) \
        == [(False, 14, "hashMismatch", 15)] * 2


# ---------------------------------------------------------------------------
# signatures: each MAC is checked over the pre-image its hash is checked over

KEYS = {"k1": b"sekrit"}  # the key `_signed_copy` signs with


def _statuses(path: Path) -> list[str]:
    return [v.status for v in verify_file(path, KEYS)[2].verdicts]


def test_a_signature_remade_over_resealed_non_canonical_bytes_is_valid(ledgers, tmp_path):
    # A key holder who reseals a non-canonical line over exactly its bytes
    # and signs those bytes gets a valid chain and a valid signature: hash
    # and MAC bind the same bytes. A MAC checked over a fresh rendering, as
    # before, reads invalid here (the rendering is not those bytes).
    lines = ledgers["signed"].read_text("utf-8").splitlines()

    def edit(text: str) -> str:
        return "{ " + text[1:]

    def mac(pre_image: bytes) -> str:
        return base64.b64encode(hmac.new(KEYS["k1"], pre_image, hashlib.sha256).digest()).decode()

    entry = parse_entry(lines[4])
    rendered = canonicalize(entry, entry.integrity.prev_hash)
    signed = mac(edit(rendered.decode("utf-8")).encode("utf-8"))
    assert mac(rendered) == entry.integrity.signature.signature_bytes != signed
    forged = _resealed_over_its_bytes(lines, 4, edit)  # later lines resealed unsigned
    forged[4] = forged[4].replace(entry.integrity.signature.signature_bytes, signed)
    path = tmp_path / "forged.pledger"
    _write(path, forged)
    head_path(path).write_text(json.loads(forged[-1])["integrity"]["hash"] + "\n")
    assert _verdict(lambda p: verify_file(p)[0], path) == (True, None, None, 15)
    assert _statuses(path) == ["valid"] * 5 + ["absent"] * 10


@pytest.mark.parametrize("tamper", ["respaced", "signature-reordered"])
def test_a_signed_line_with_no_byte_pre_image_keeps_its_chain_verdict_and_reads_invalid(
        ledgers, tmp_path, monkeypatch, tamper):
    # Deliberate: re-spaced or with its signature's members reordered, the
    # line has no pre-image read from its bytes. The chain verdict is the
    # oracle's (`nonCanonicalLine`), and its signature, which a rendering
    # would still match, is invalid; every other line's stays valid.
    source = ledgers["signed"]
    lines = source.read_text("utf-8").splitlines()
    for index in _indices(lines):
        path = tmp_path / f"{tamper}-{index}.pledger"
        _write(path, [*lines[:index], LINE_TAMPERS[tamper](lines[index]), *lines[index + 1:]])
        assert _assert_agrees(path, head_path(source).read_bytes(), monkeypatch)[0] \
            == (False, index, "nonCanonicalLine", 15)
        statuses = _statuses(path)
        assert statuses[index] == "invalid"
        assert statuses[:index] + statuses[index + 1:] == ["valid"] * 14


def test_every_signature_is_counted_past_a_break_in_the_chain(ledgers, tmp_path, capsys):
    # A dropped line breaks the links (every remaining line signed as
    # stored); an edited line breaks its hash and its MAC. Either way
    # `verify --hmac-key` checks each line after the break too.
    lines = ledgers["signed"].read_text("utf-8").splitlines()
    edited = lines[3].replace('"createdAt":"2025-', '"createdAt":"2024-', 1)
    assert edited != lines[3]
    path = tmp_path / "broken.pledger"
    for stored, chain, signatures in (
            ([*lines[:6], *lines[7:]], (6, "prevHashMismatch", 14), (14, 0)),
            ([*lines[:3], edited, *lines[4:]], (3, "hashMismatch", 15), (14, 1))):
        _write(path, stored)
        code = main(["verify", "--ledger", str(path), "--hmac-key", "k1=sekrit", "--format", "doc"])
        report = json.loads(capsys.readouterr().out)
        assert code == 4
        assert report["chain"] == {"valid": False, "firstBrokenIndex": chain[0],
                                   "failureKind": chain[1], "entryCount": chain[2]}
        assert report["signatures"] == {"valid": signatures[0], "invalid": signatures[1],
                                        "unverifiable": 0, "absent": 0}


def test_a_keyed_verify_reads_each_lines_pre_image_once(ledgers, monkeypatch, capsys):
    # Each signed line's hash and MAC are checked over one reading of its
    # bytes: 15 pre-images for the 15 signed lines, not one for each check.
    read = []
    line_pre_image = integrity._line_pre_image
    monkeypatch.setattr(integrity, "_line_pre_image",
                        lambda line, entry: read.append(entry.id) or line_pre_image(line, entry))
    assert main(["verify", "--ledger", str(ledgers["signed"]), "--hmac-key", "k1=sekrit"]) == 0
    assert capsys.readouterr().out == (
        "chain valid, 15 entries\nsignatures: 15 valid, 0 invalid, 0 unverifiable, 0 absent\n")
    assert len(read) == len(set(read)) == 15


def test_an_unkeyed_verify_reads_pre_images_up_to_the_first_failing_line(
        ledgers, tmp_path, monkeypatch):
    # Line 3's content edited under its old hash: the chain's verdict needs
    # the pre-images of lines 1-3 only, so the 12 lines after are not read.
    lines = ledgers["lifecycle"].read_text("utf-8").splitlines()
    edited = lines[2].replace("Generated park scenes", "Generated city scenes", 1)
    assert edited != lines[2]
    path = tmp_path / "edited.pledger"
    _write(path, [*lines[:2], edited, *lines[3:]])
    read = []
    line_pre_image = integrity._line_pre_image
    monkeypatch.setattr(integrity, "_line_pre_image",
                        lambda line, entry: read.append(entry.id) or line_pre_image(line, entry))
    verdict, _entries, report = verify_file(path)
    assert (verdict.valid, verdict.first_broken_index, verdict.failure_kind,
            verdict.entry_count, report) == (False, 2, "hashMismatch", 15, None)
    assert read == [json.loads(line)["id"] for line in lines[:3]]
