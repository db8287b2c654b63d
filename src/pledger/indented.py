"""The indented JSON rendering of `--format doc` output and exports.

Kept out of `canonical` so that commands which print text never compile it.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from typing import Any

# Pieces gathered before `write_indented` hands them to the file.
_FLUSH_PIECES = 4096


def _json_at(value: Any, indent: str) -> str:
    """json's indented rendering of `value`, placed at the depth of `indent`."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", indent)


def _indented_scalar(value: Any, indent: str) -> str:
    kind = value.__class__
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    return _json_at(value, indent)  # subclasses, tuples, NaN and infinities


def write_indented(fh: Any, doc: Any) -> None:
    """Write `json.dumps(doc, indent=2, sort_keys=True)` and a newline to `fh`.

    Exact dicts, lists, strings, numbers, booleans and None are rendered
    here into a list of pieces that goes to the file every few thousand
    pieces, so the whole text is never held. Any other value, and any dict
    with a key that is not a string, is rendered by json.dumps and indented
    to its depth, so the bytes are json's throughout.
    """
    parts: list[str] = []
    append = parts.append
    escape = encode_basestring_ascii

    def render(value: Any, indent: str) -> None:
        if not value:
            append("{}" if value.__class__ is dict else "[]")
            return
        inner = indent + "  "
        if value.__class__ is dict:
            try:
                keys = sorted(value)
                names = list(map(escape, keys))  # TypeError unless all are str
            except TypeError:
                append(_json_at(value, indent))
                return
            sep, comma = "{" + inner, "," + inner
            for key, name in zip(keys, names):
                item = value[key]
                kind = item.__class__
                if kind is str:
                    append(f"{sep}{name}: {escape(item)}")
                elif kind is dict or kind is list:
                    append(f"{sep}{name}: ")
                    render(item, inner)
                else:
                    append(f"{sep}{name}: {_indented_scalar(item, inner)}")
                sep = comma
            append(indent + "}")
        else:
            sep, comma = "[" + inner, "," + inner
            for item in value:
                kind = item.__class__
                if kind is str:
                    append(sep + escape(item))
                elif kind is dict or kind is list:
                    append(sep)
                    render(item, inner)
                else:
                    append(sep + _indented_scalar(item, inner))
                sep = comma
            append(indent + "]")
        if len(parts) > _FLUSH_PIECES:
            fh.write("".join(parts))
            parts.clear()

    kind = doc.__class__
    if kind is dict or kind is list:
        render(doc, "\n")
    elif kind is str:
        append(escape(doc))
    else:
        append(_indented_scalar(doc, "\n"))
    append("\n")
    fh.write("".join(parts))
