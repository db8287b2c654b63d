"""Canonical serialization and hashing.

Golden values come from tests/data/sample_golden.json, generated once by the
stdlib-only oracle in oracle_digest.py. Free-form documents are checked
against json.loads (the stdlib parser is the reference for escaping) and
json.dumps on the integer/string subset where the two forms coincide.
"""

import json
import math
import random
from decimal import Decimal
from pathlib import Path

import pytest

from pledger import canonical_bytes, canonical_json, compute_hash, format_number
from pledger.canonical import _ENCODER, _is_plain, _render
from pledger.errors import MalformedDocument, NonCanonicalizableNumber
from pledger.fixtures import sample_contribution

GOLDEN = json.loads((Path(__file__).parent / "data" / "sample_golden.json").read_text())

# Published sha256 test vectors.
SHA_EMPTY = "sha256:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
SHA_ABC = "sha256:ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def test_hash_test_vectors():
    assert compute_hash(b"") == SHA_EMPTY
    assert compute_hash(b"abc") == SHA_ABC


def test_sample_entry_matches_golden_bytes():
    entry = sample_contribution()
    assert canonical_bytes(entry.to_doc(include_integrity=False)) \
        == GOLDEN["canonical"].encode("utf-8")


def test_key_order_does_not_matter():
    a = {"b": 1, "a": {"y": 2, "x": 3}}
    b = {"a": {"x": 3, "y": 2}, "b": 1}
    assert canonical_json(a) == canonical_json(b)
    assert compute_hash(canonical_bytes(a)) == compute_hash(canonical_bytes(b))


@pytest.mark.parametrize("value,expected", [
    (50, "50"),
    (50.0, "50"),
    (-50.0, "-50"),
    (0.0, "0"),
    (-0.0, "0"),
    (0.1, "0.1"),
    (2.5, "2.5"),
    (10, "10"),
    (-7, "-7"),
])
def test_number_normalization(value, expected):
    assert format_number(value) == expected


def test_whole_floats_equal_integers_in_documents():
    assert canonical_json({"amount": 50.0}) == canonical_json({"amount": 50})
    assert canonical_json({"amount": 50.0}) == '{"amount":50}'


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_canonicalizable_numbers(bad):
    with pytest.raises(NonCanonicalizableNumber):
        format_number(bad)
    with pytest.raises(NonCanonicalizableNumber):
        canonical_json({"x": bad})


def test_booleans_are_not_numbers():
    with pytest.raises(TypeError):
        format_number(True)
    assert canonical_json({"flag": True, "off": False}) == '{"flag":true,"off":false}'


def test_minimal_escaping():
    doc = {"s": 'a"b\\c\nd', "u": "café ☕"}
    text = canonical_json(doc)
    assert '\\"' in text and "\\\\" in text and "\\n" in text
    assert "café ☕" in text  # non-ASCII stays literal
    assert json.loads(text) == doc


def test_stdlib_parser_round_trip_random_documents():
    rng = random.Random(7)
    alphabet = "ab\"\\\n\t\r\x01é☕ :{}[]"
    for _ in range(300):
        doc = {
            "".join(rng.choice("abcdefgh") for _ in range(4)): (
                "".join(rng.choice(alphabet) for _ in range(rng.randrange(8)))
                if rng.random() < 0.6 else rng.randrange(-1000, 1000))
            for _ in range(rng.randrange(1, 6))
        }
        if rng.random() < 0.3:
            doc["nested"] = {"list": [1, "two", None, True, {"deep": "x"}]}
        assert json.loads(canonical_json(doc)) == doc


def test_reference_form_on_string_integer_documents():
    rng = random.Random(11)
    for _ in range(200):
        doc = {f"k{i}": (rng.randrange(10**6) if rng.random() < 0.5 else f"v{i}")
               for i in range(rng.randrange(1, 8))}
        assert canonical_json(doc) == json.dumps(
            doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def test_large_integral_floats_stay_exact():
    text = canonical_json({"n": 1e16})
    assert math.isclose(json.loads(text)["n"], 1e16)
    assert canonical_json({"n": float(2**53)}) == canonical_json({"n": 2**53})


# ---------------------------------------------------------------------------
# C-encoder fast path against the reference renderer


def reference_json(doc) -> str:
    out: list[str] = []
    _render(doc, out)
    return "".join(out)


_CHARS = ([chr(c) for c in range(0x20)] + ["\x7f", '"', "\\", "a", "Z", " ", "é",
          "\u2028", "\ufeff", "\U0001f600", "\U0010ffff", "/", "{", "]"])
_FLOATS = [0.0001, math.nextafter(0.0001, 1), math.nextafter(0.0001, 0), 0.000123,
           1e-5, 9.999e-5, 1e15 + 0.5, 9999999999999998.0, 1e16, 1.5e16,
           math.nextafter(1e16, 0), -0.0, 0.0, 0.1, -2.5, 50.0, 1e-7, 123.456, 1e300]


def _random_scalar(rng: random.Random):
    pick = rng.randrange(8)
    if pick == 0:
        return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(6)))
    if pick == 1:
        return rng.randrange(-10**30, 10**30) if rng.random() < 0.3 else rng.randrange(-99, 99)
    if pick == 2:
        return rng.choice(_FLOATS)
    if pick == 3:
        return rng.uniform(-1e16, 1e16) * 10 ** -rng.randrange(22)
    if pick == 4:
        return rng.choice((True, False, None))
    if pick == 5:
        return Decimal(rng.randrange(-10**6, 10**6)) / 100
    return rng.choice(("", "plain", 'q"b\\s', "\U0001f600x"))


def _random_doc(rng: random.Random, depth: int = 0):
    if depth >= 3 or rng.random() < 0.3:
        return _random_scalar(rng)
    if rng.random() < 0.5:
        return {"".join(rng.choice(_CHARS) for _ in range(rng.randrange(4))):
                _random_doc(rng, depth + 1) for _ in range(rng.randrange(5))}
    items = [_random_doc(rng, depth + 1) for _ in range(rng.randrange(4))]
    return tuple(items) if rng.random() < 0.3 else items


def test_fast_path_matches_reference_renderer_on_random_documents():
    rng = random.Random(2024)
    plain = 0
    for _ in range(3000):
        doc = _random_doc(rng)
        expected = reference_json(doc)
        assert canonical_json(doc) == expected
        if _is_plain(doc):
            plain += 1
            assert _ENCODER.encode(doc) == expected
    # Both paths are exercised, not only the reference one.
    assert 600 < plain < 2700


def test_fast_path_admits_what_ledger_entries_hold():
    assert _is_plain(sample_contribution().to_doc())
    assert _is_plain({"t": (1, "x", None, [True, 0.25])})


@pytest.mark.parametrize("value,expected", [
    (50.0, "50"),
    (-0.0, "0"),
    (1e-7, "0.0000001"),
    (1e16, "10000000000000000"),
    (Decimal("1.50"), "1.5"),
])
def test_fallback_triggers_keep_their_reference_form(value, expected):
    assert not _is_plain({"x": value})
    assert canonical_json({"x": value}) == '{"x":' + expected + "}"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"),
                                 Decimal("NaN"), Decimal("Infinity")])
def test_non_finite_numbers_raise_in_documents(bad):
    with pytest.raises(NonCanonicalizableNumber):
        canonical_json({"x": [1, {"y": bad}]})


def test_non_string_keys_are_rejected_not_stringified():
    with pytest.raises(MalformedDocument):
        canonical_json({1: "x"})
    with pytest.raises(MalformedDocument):
        canonical_json({"ok": {None: 1}})


def test_lone_surrogate_fails_to_encode_on_both_paths():
    plain = {"s": "a\ud800b"}
    reference_only = {"s": "a\ud800b", "d": Decimal("1")}
    assert _is_plain(plain) and not _is_plain(reference_only)
    for doc in (plain, reference_only):
        with pytest.raises(UnicodeEncodeError):
            canonical_bytes(doc)


def test_subclasses_and_other_types_take_the_reference_path():
    from collections import OrderedDict
    from enum import Enum

    class Tag(str, Enum):
        A = "a"

    assert not _is_plain(OrderedDict(b=1, a=2))
    assert canonical_json(OrderedDict(b=1, a=2)) == '{"a":2,"b":1}'
    assert not _is_plain({"t": Tag.A})
    assert canonical_json({"t": Tag.A}) == reference_json({"t": Tag.A})
    with pytest.raises(MalformedDocument):
        canonical_json({"s": {1, 2}})


def test_cyclic_documents_fail_in_the_type_walk():
    looped: dict = {"a": [1]}
    looped["a"].append(looped)
    with pytest.raises(RecursionError):
        canonical_json(looped)
