"""Canonical JSON rendering and content hashing.

The canonical form fixes one byte sequence per document: object keys sorted
by code point at every level, no insignificant whitespace, numbers without
leading zeros, trailing fractional zeros, or exponents (so 50.0 and 50 render
identically), strings minimally escaped, UTF-8 output. NaN and infinity have
no canonical form and are rejected.

Two renderers produce these bytes. `_render` is the reference and accepts
every JSON-shaped value. Documents whose types `_is_plain` admits go through
the C JSON encoder instead, which emits the same bytes for them: sorted
`str` keys, minimal escaping, integers via `int.__repr__`, and non-integral
floats in the range where the shortest `repr` is already a plain decimal.
"""

from __future__ import annotations

import hashlib
import json
import math
from decimal import Decimal
from typing import Any

from .errors import MalformedDocument, NonCanonicalizableNumber

# Minimal escaping: backslash, double quote, and the C0 control range. The
# two-character shorthands are used where JSON defines them.
_ESCAPES: dict[int, str] = {
    ord("\\"): "\\\\",
    ord('"'): '\\"',
    ord("\b"): "\\b",
    ord("\t"): "\\t",
    ord("\n"): "\\n",
    ord("\f"): "\\f",
    ord("\r"): "\\r",
}
for _cp in range(0x20):
    _ESCAPES.setdefault(_cp, f"\\u{_cp:04x}")


def _render_string(value: str) -> str:
    return '"' + value.translate(_ESCAPES) + '"'


def format_number(value: int | float | Decimal) -> str:
    """Render a number in canonical form.

    Integral values render as integers regardless of Python type, so 50.0 and
    50 are indistinguishable on the wire. Non-integral values render as plain
    decimals with no exponent and no trailing fractional zeros.
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not numbers here")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise NonCanonicalizableNumber(f"cannot canonicalize {value!r}")
        if value.is_integer() and abs(value) < 1e16:
            return str(int(value))
        dec = Decimal(repr(value))
    elif isinstance(value, Decimal):
        if not value.is_finite():
            raise NonCanonicalizableNumber(f"cannot canonicalize {value!r}")
        dec = value
    else:
        raise TypeError(f"not a number: {value!r}")
    text = format(dec, "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    if text in ("-0", ""):
        text = "0"
    return text


def render_value(value: Any) -> str:
    """Field values as query-result strings; also the comparison form used by
    predicates, so `r.version = "2"` matches a numeric version 2."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return format_number(value)
    return canonical_json(value)


def _render(value: Any, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(_render_string(value))
    elif isinstance(value, (int, float, Decimal)):
        out.append(format_number(value))
    elif isinstance(value, dict):
        out.append("{")
        first = True
        for key in sorted(value):
            if not isinstance(key, str):
                raise MalformedDocument(f"object keys must be strings, got {key!r}")
            if not first:
                out.append(",")
            first = False
            out.append(_render_string(key))
            out.append(":")
            _render(value[key], out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _render(item, out)
        out.append("]")
    else:
        raise MalformedDocument(f"value has no JSON form: {value!r}")


# Used only for documents that _is_plain admits. That walk has already
# recursed through every container, so a cyclic document fails there and the
# encoder's own cycle check would be redundant.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False,
                            allow_nan=False, check_circular=False)

_PLAIN_SCALARS = frozenset({str, int, bool, type(None)})


def _is_plain(value: Any) -> bool:
    """True when the C encoder renders `value` exactly as `_render` does.

    Exact types only: subclasses, Decimals and non-string keys take the
    reference path. Floats qualify when non-integral with 1e-4 <= |x| < 1e16,
    where `repr` gives the canonical decimal with no exponent.
    """
    kind = type(value)
    if kind is dict:
        for key, item in value.items():
            if type(key) is not str:
                return False
            if type(item) not in _PLAIN_SCALARS and not _is_plain(item):
                return False
        return True
    if kind is list or kind is tuple:
        for item in value:
            if type(item) not in _PLAIN_SCALARS and not _is_plain(item):
                return False
        return True
    if kind is float:
        return 1e-4 <= abs(value) < 1e16 and not value.is_integer()
    return kind in _PLAIN_SCALARS


def canonical_json(doc: Any) -> str:
    """Canonical text for a JSON-shaped value."""
    if _is_plain(doc):
        return _ENCODER.encode(doc)
    out: list[str] = []
    _render(doc, out)
    return "".join(out)


def canonical_bytes(doc: Any) -> bytes:
    return canonical_json(doc).encode("utf-8")


def compute_hash(data: bytes) -> str:
    """sha256 over raw bytes, rendered as `sha256:<hex>`."""
    return "sha256:" + hashlib.sha256(data).hexdigest()
