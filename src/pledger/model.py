"""Entry model for the participation ledger.

An entry is a JSON object with a fixed envelope (id, type, createdAt, actor,
optional consent/compensation, one type-specific payload, links, optional
integrity block) plus an optional top-level "@context" string. Unknown fields
at any level are preserved opaquely in an `extensions` map so they survive a
parse/serialize round trip and stay inside the hashed content.

Identifiers follow `pl:<kind>:<segment>` with one or more further segments of
lowercase letters, digits and hyphens. Envelope ids must use the kind that
matches their entry type; ids in reference position (links, stewardOrg,
targets) only need the grammar.
"""

from __future__ import annotations

import json
import math
import re
from datetime import datetime, timezone
from enum import Enum
from operator import attrgetter
from typing import Any, NoReturn

from .canonical import canonical_bytes, canonical_json
from .errors import (
    InvalidId,
    InvalidTimestamp,
    MalformedDocument,
    PayloadMismatch,
    UnknownEntryType,
)

# ---------------------------------------------------------------------------
# vocabularies

ROLES = frozenset({
    "resident", "communitySteward", "facilitator", "researcher",
    "maintainer", "evaluator", "deployer", "auditor",
})
CONSENT_STATUSES = frozenset({"granted", "restricted", "withdrawn"})
COMPENSATION_MODELS = frozenset({"honorarium", "hourly", "credit-linked", "none-declared"})
CONTRIBUTION_KINDS = frozenset({
    "prompt", "preferenceLabel", "interviewExcerpt",
    "deliberationRationale", "incidentReport", "criteriaDefinition",
})
INTENDED_USES = frozenset({"evaluation-only", "training", "documentation", "mixed"})
CHANGE_KINDS = frozenset({
    "dataset", "promptLibrary", "adapter", "guardrail",
    "policy", "uiTooling", "deploymentConfig",
})
ARTIFACT_KINDS = frozenset({
    "model", "dataset", "promptLibrary", "policy", "guardrail", "evaluationSuite",
})
RUN_DECISIONS = frozenset({"pass", "fail", "inconclusive"})
CHECKPOINTS = frozenset({"preDeploymentGate", "scheduledAudit", "postIncident"})
VOUCHER_ACTIONS = frozenset({"pause", "condition", "authorize"})
VOUCHER_STATUSES = frozenset({"issued", "active", "satisfied", "revoked", "expired"})
TOMBSTONE_REASONS = frozenset({"consentWithdrawn", "safetyRedaction", "legalHold"})
CREDIT_EVENT_KINDS = frozenset({
    "regressionDetected", "remediationCompleted", "scheduledRunDependency",
})
RUNNER_KINDS = frozenset({"threshold", "rubric", "externalRecordOnly"})
COMPARATORS = frozenset({">=", "<="})

# Closed vocabularies accept one escape hatch for locally defined values.
_EXTENSION_RE = re.compile(r"extension:[a-z0-9][a-z0-9-]*")

# Kind for deployment boundaries, modeled as artifacts with a boundary field.
DEPLOYMENT_KIND = "extension:deployment"

ROLES_ALLOWED_TO_REDACT = frozenset({"communitySteward", "auditor"})

# Voucher lifecycle: issued -> active -> one terminal state. Terminal states
# admit no further transitions; revisions carry the new status under a
# `<base>:rev<k>` id.
VOUCHER_TRANSITIONS: dict[str, frozenset[str]] = {
    "issued": frozenset({"active"}),
    "active": frozenset({"satisfied", "revoked", "expired"}),
    "satisfied": frozenset(),
    "revoked": frozenset(),
    "expired": frozenset(),
}

# The statuses of a voucher lineage that is still open: a release export
# discloses each such lineage with its gate outcome.
OPEN_VOUCHER_STATUSES = frozenset({"issued", "active"})


def in_vocab(value: Any, vocab: frozenset[str]) -> bool:
    """True if `value` is a vocabulary member or an `extension:<tag>` escape."""
    return isinstance(value, str) and (value in vocab or bool(_EXTENSION_RE.fullmatch(value)))


# ---------------------------------------------------------------------------
# entry types and id grammar

class EntryType(str, Enum):
    CONTRIBUTION = "Contribution"
    CHANGE = "Change"
    ARTIFACT = "Artifact"
    TEST = "Test"
    EVALUATION_RUN = "EvaluationRun"
    VOUCHER = "Voucher"
    CREDIT = "Credit"
    TOMBSTONE = "Tombstone"


# Whole-string patterns: always applied with fullmatch, since `$` would also
# accept a trailing newline. Digits are ASCII only; `\d` matches any Unicode
# digit.
_SEGMENT = r"[a-z0-9][a-z0-9-]*"
REFERENCE_ID_RE = re.compile(rf"pl:({_SEGMENT})(?::{_SEGMENT})+")
_DIGEST_RE = re.compile(r"sha256:[0-9a-f]{64}")
_HASH_REF_RE = re.compile(rf"artifact:{_SEGMENT}:sha256:[0-9a-f]{{64}}")
_URI_RE = re.compile(r"[a-z][a-z0-9+.-]*://\S+")
_CURRENCY_RE = re.compile(r"[A-Z]{3}")
_RETENTION_RE = re.compile(r"[1-9][0-9]*[ymd]")
_TIMESTAMP_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z")
_REVISION_RE = re.compile(r":rev([1-9][0-9]*)\Z")
_SLUG_RE = re.compile(r"[^a-z0-9-]+")


def is_reference_id(value: Any) -> bool:
    return isinstance(value, str) and bool(REFERENCE_ID_RE.fullmatch(value))


def is_digest(value: Any) -> bool:
    return isinstance(value, str) and bool(_DIGEST_RE.fullmatch(value))


def is_uri(value: Any) -> bool:
    return isinstance(value, str) and bool(_URI_RE.fullmatch(value))


def is_artifact_ref(value: Any) -> bool:
    """Content references are hash refs (`artifact:<kind>:sha256:<hex>`) or URIs."""
    return isinstance(value, str) and (bool(_HASH_REF_RE.fullmatch(value)) or is_uri(value))


def check_entry_id(entry_id: Any, entry_type: EntryType) -> None:
    """Raise InvalidId unless the id parses and its kind matches the type."""
    match = REFERENCE_ID_RE.fullmatch(entry_id) if isinstance(entry_id, str) else None
    if match is None:
        raise InvalidId(f"id {entry_id!r} does not match pl:<kind>:<segment>+")
    kind = match[1]
    if kind != ID_KIND[entry_type]:
        raise InvalidId(
            f"id kind {kind!r} does not match entry type {entry_type.value}"
            f" (expected {ID_KIND[entry_type]!r})"
        )


def lineage_base(entry_id: str) -> tuple[str, int]:
    """Split a `...:rev<k>` id into (base id, revision number); base itself is rev 0."""
    m = _REVISION_RE.search(entry_id)
    if m:
        return entry_id[: m.start()], int(m.group(1))
    return entry_id, 0


def parse_timestamp(value: Any) -> datetime:
    """Strict ISO-8601 UTC at second precision with a trailing Z."""
    if not isinstance(value, str) or not _TIMESTAMP_RE.fullmatch(value):
        raise InvalidTimestamp(f"not an ISO-8601 UTC second timestamp: {value!r}")
    try:
        # The pattern admits only this one shape; fromisoformat rejects
        # Feb 30, hour 24, minute or second 60 and year 0 as out of range,
        # and returns the timezone.utc singleton for a zero offset.
        return datetime.fromisoformat(value[:-1] + "+00:00")
    except ValueError as exc:
        raise InvalidTimestamp(f"not a real instant: {value!r}") from exc


def format_timestamp(dt: datetime) -> str:
    if dt.tzinfo is not None:
        dt = dt.astimezone(timezone.utc)
    # Explicit fields: strftime("%Y") does not zero-pad years below 1000 on
    # every platform, and parse_timestamp needs all four digits.
    return (f"{dt.year:04d}-{dt.month:02d}-{dt.day:02d}T"
            f"{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d}Z")


def now_stamp() -> str:
    """The current instant as a ledger timestamp."""
    return format_timestamp(datetime.now(timezone.utc))


def _slug(text: str) -> str:
    """Lowercase id segment: runs of other characters become one hyphen."""
    out = _SLUG_RE.sub("-", str(text).lower()).strip("-")
    while "--" in out:
        out = out.replace("--", "-")
    return out or "x"


def is_timestamp(value: Any) -> bool:
    try:
        parse_timestamp(value)
        return True
    except InvalidTimestamp:
        return False


def _rest(doc: dict, known: frozenset[str]) -> dict:
    """The keys of `doc` that a table does not name: a block's extensions."""
    return {k: v for k, v in doc.items() if k not in known}


def _not_object(value: Any, where: str) -> NoReturn:
    raise MalformedDocument(f"{where} must be a JSON object, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# records and field tables
#
# Every record class is built by `record` from its annotated rows, in
# declaration order: a row's value is its default, and a class (`list`,
# `dict`, `LinkSet`) as the default means a fresh instance of it per record.
# `record` generates `__init__` from the rows and gives the class equality and
# a repr that read the fields through one attribute getter, and no hash.
# Every record has slots, so an attribute no row declares is refused.
# `replace` copies a record through its `__init__`.
#
# A record whose fields are declared with `wire()` has its class body as its
# one field table: every row names the wire key, the attribute, the nested
# codec and (through the default) the omit rule. `record` gives such a class
# the table as `FIELDS` and generates from it one straight-line `to_doc`; a
# report record whose document is its fields needs nothing more. Each block of
# an entry is declared with `@codec(where)`, which also generates from the
# table one `from_doc` and one `check`. Keys a block's table does not name are
# kept in its `extensions` map, so they survive a round trip and stay inside
# the hashed content.
#
# Generated source is compiled by `_on_first_call` when the method is first
# called, so a command pays only for the methods it runs. `from_doc` is the
# exception: it is compiled with its class, because a table's decoder binds
# its nested blocks' `from_doc` when it is compiled.

# A row without a default; in `from_doc`, a key that is absent.
MISSING = object()


def _define(name: str, label: str, lines: list[str], names: dict) -> Any:
    """Compile the source `lines`, which read `names`, under the file name
    `label`, and return the function `name` it defines."""
    exec(compile("\n".join(lines) + "\n", label, "exec"), names)
    return names[name]


def _on_first_call(cls: type, name: str, label: str, source: Any) -> None:
    """Make `cls.<name>` a stand-in for a generated method: its first call
    compiles the method from `source()`, its lines and the names they read,
    puts it in the stand-in's place and calls it. `label` is the file name
    the compiled method carries; the stand-in carries it too, as `label`."""
    qualname = f"{cls.__qualname__}.{name}"

    def stand_in(self, *args, **kwargs):
        method = _define(name, label, *source())
        method.__qualname__ = qualname
        setattr(cls, name, method)
        return method(self, *args, **kwargs)

    stand_in.__qualname__, stand_in.label = qualname, label
    setattr(cls, name, stand_in)


def record(cls: type) -> type:
    """Class decorator: build a record class from its annotated rows (see
    above), with the `to_doc` of its `wire()` rows if it declares any.
    Instances have slots and no `__dict__`."""
    attrs = tuple(cls.__annotations__)
    rows = {attr: row for attr, row in vars(cls).items() if isinstance(row, Wire)}
    for attr, row in rows.items():
        row.attr = attr
    defaults = [vars(cls).get(attr, MISSING) for attr in attrs]
    defaults = [d.default if isinstance(d, Wire) else d for d in defaults]
    namespace = {k: v for k, v in vars(cls).items()
                 if k not in attrs and k not in ("__dict__", "__weakref__")}
    namespace["__slots__"] = attrs
    qualname, cls = cls.__qualname__, type(cls.__name__, cls.__bases__, namespace)
    cls.__qualname__ = qualname
    # The getter ends with `__class__`, so even a one-field record gets a tuple.
    values = attrgetter(*attrs, "__class__")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __repr__(self):
        pairs = ", ".join(f"{attr}={value!r}" for attr, value in zip(attrs, values(self)))
        return f"{self.__class__.__qualname__}({pairs})"

    def init_source() -> tuple[list[str], dict]:
        names, params, body = {"MISSING": MISSING}, [], []
        for i, (attr, default) in enumerate(zip(attrs, defaults)):
            names[f"d{i}"] = default
            if isinstance(default, type):  # a fresh instance per record
                new = "[]" if default is list else "{}" if default is dict else f"d{i}()"
                params.append(f"{attr}=MISSING")
                body.append(f"    self.{attr} = {new} if {attr} is MISSING else {attr}")
            else:
                params.append(attr if default is MISSING else f"{attr}=d{i}")
                body.append(f"    self.{attr} = {attr}")
        return [f"def __init__(self, {', '.join(params)}):", *body], names

    cls.__eq__, cls.__repr__, cls.__hash__, cls.__match_args__ = __eq__, __repr__, None, attrs
    _on_first_call(cls, "__init__", f"<record {cls.__name__}>", init_source)
    if rows:
        cls.FIELDS = tuple(rows.values())
        _on_first_call(cls, "to_doc", f"<codec {cls.__name__}>", lambda: _encoder(cls))
    return cls


def replace(obj: Any, /, **changes: Any) -> Any:
    """A new record of `obj`'s class, built through `__init__` from `obj`'s
    fields with `changes` applied; an unknown field name is a TypeError."""
    return obj.__class__(**{attr: getattr(obj, attr) for attr in obj.__match_args__} | changes)


# Omit rules: `to_doc` writes a field always, only when it is not None, or
# only when it is not empty.
ALWAYS, OMIT_NONE, OMIT_EMPTY = "always", "omit-none", "omit-empty"

# An absent required block decodes as if it were this empty object.
_NO_BLOCK: dict = {}


def wire(name: str, default: Any = MISSING, *, codec: Any = None, omit: str | None = None,
         check: tuple | None = None, rule: str | None = None) -> Wire:
    """Declare a field of a block: its row in the field table.

    `default` is what an absent key decodes to: None, False, or `list`/`dict`
    for a fresh empty one. A field without a default is required: an absent
    key decodes to None, or to an empty block for a block codec. Unless given,
    the omit rule follows the default: a field that defaults to None is
    omitted when None, one that defaults to an empty list or dict is omitted
    when empty, and any other field is always written.

    Codecs: None keeps the JSON value as it is; `dict` requires an object;
    `list[str]` requires a list of strings and copies it both ways; `list`
    keeps the value on decode and, on encode, copies a list and writes any
    other value as it is, even an empty one, for validation to report; a
    block class decodes a nested object; `list[Block]` decodes a list of them.

    `check` is the row's validation rule: a (predicate, message) pair, where
    the message may format the failing value with `{!r}`. A `list[str]` field
    is checked item by item, and a field omitted when None only when set.
    The rule id is the block's rule prefix (the last part of its `where`)
    plus the wire name, unless `rule` names it.
    """
    return Wire(name, default, codec, omit, check, rule)


class Wire:
    """One row of a field table: wire key, attribute, codec, omit rule and check.

    `kind` sorts the codec into raw, object, copy, strings, block or blocks;
    `absent` is the source text of what an absent key decodes to; `test`,
    `message` and `rule` are the row's check, if it has one. `@codec` sets
    `attr` and, unless the row names it, `rule`.
    """

    __slots__ = ("name", "attr", "default", "omit", "kind", "block", "absent", "test",
                 "message", "rule")

    def __init__(self, name: str, default: Any, codec: Any, omit: str | None,
                 check: tuple | None, rule: str | None):
        factory = default is list or default is dict
        self.name, self.default, self.rule = name, default, rule
        self.omit = omit or (OMIT_NONE if default is None else OMIT_EMPTY if factory else ALWAYS)
        self.test, self.message = check or (None, None)
        items = getattr(codec, "__args__", None)  # list[str] or list[Block]
        self.block = items[0] if items else codec
        self.kind = ("raw" if codec is None else "object" if codec is dict
                     else "copy" if codec is list else "strings" if self.block is str
                     else "blocks" if items else "block")
        if factory:
            self.absent = "[]" if default is list else "{}"
        elif default is MISSING:
            self.absent = "_NO_BLOCK" if self.kind == "block" else "None"
        else:
            self.absent = repr(default)


def _is_strings(value: Any) -> bool:
    if isinstance(value, list):
        try:
            "".join(value)  # the cheapest check that every item is a str
        except TypeError:
            return False
        return True
    return False


def _strings(value: Any, where: str) -> list:
    """A copy of `value` if it is a list of strings, else MalformedDocument."""
    if _is_strings(value):
        return list(value)
    raise MalformedDocument(f"{where} must be a list of strings")


def _copied(value: Any) -> Any:
    """What the `list` codec writes: a copy of a list, any other value as it is."""
    return list(value) if isinstance(value, list) else value


# What `to_doc` writes for each kind of codec, given the field's value.
_ENCODE = {"raw": "{}", "object": "{}", "copy": "_copied({})", "strings": "list({})",
           "block": "{}.to_doc()", "blocks": "[x.to_doc() for x in {}]"}


def _decoder(cls: type, where: str) -> tuple[list[str], dict]:
    """The source of a table's `from_doc` and the names it reads.

    `from_doc` fills the slots of a bare instance directly: these blocks have
    no `__post_init__`, and skipping `__init__` saves a third of their cost.
    """
    names = {"new": object.__new__, "cls": cls, "MISSING": MISSING, "_NO_BLOCK": _NO_BLOCK,
             "_strings": _strings, "_not_object": _not_object, "_rest": _rest,
             "MalformedDocument": MalformedDocument,
             "KNOWN": frozenset(row.name for row in cls.FIELDS)}
    dec = [f"def from_doc(doc, where={where!r}):",
           "    if not isinstance(doc, dict):",
           "        _not_object(doc, where)",
           "    get = doc.get",
           "    o = new(cls)"]
    for i, row in enumerate(cls.FIELDS):
        key, here, slot, kind = repr(row.name), f"{where}.{row.name}", f"o.{row.attr}", row.kind
        if kind in ("block", "blocks"):
            names[f"dec{i}"] = row.block.from_doc
        if kind in ("raw", "copy"):
            default = "" if row.absent == "None" else ", " + row.absent
            dec.append(f"    {slot} = get({key}{default})")
        elif row.absent == "_NO_BLOCK":
            dec.append(f"    {slot} = dec{i}(get({key}, _NO_BLOCK), {here!r})")
        else:
            if row.absent == "None":
                dec += [f"    v = get({key})", "    if v is None:"]
            else:
                dec += [f"    v = get({key}, MISSING)", "    if v is MISSING:"]
            dec += [f"        {slot} = {row.absent}", "    else:"]
            if kind == "object":
                dec += ["        if not isinstance(v, dict):",
                        f"            _not_object(v, {here!r})", f"        {slot} = v"]
            elif kind == "strings":
                dec.append(f"        {slot} = _strings(v, {here!r})")
            elif kind == "blocks":
                dec += ["        if not isinstance(v, list):",
                        f"            raise MalformedDocument({here + ' must be a list'!r})",
                        f"        {slot} = [dec{i}(x, {here + '[]'!r}) for x in v]"]
            else:
                dec.append(f"        {slot} = dec{i}(v, {here!r})")
    if "extensions" in cls.__match_args__:
        dec.append("    o.extensions = {} if KNOWN.issuperset(doc) else _rest(doc, KNOWN)")
    dec.append("    return o")
    return dec, names


def _encoder(cls: type) -> tuple[list[str], dict]:
    """The source of a table's `to_doc` and the names it reads."""
    enc = ["def to_doc(self):", "    d = {"]
    literal = True
    for row in cls.FIELDS:
        key, value = repr(row.name), _ENCODE[row.kind]
        if row.omit == ALWAYS and literal:  # leading always-written keys
            enc.append(f"        {key}: {value.format('self.' + row.attr)},")
            continue
        if literal:
            enc.append("    }")
            literal = False
        if row.omit == ALWAYS:
            enc.append(f"    d[{key}] = {value.format('self.' + row.attr)}")
        else:
            test = "v is not None" if row.omit == OMIT_NONE else "v"
            if row.kind == "copy":  # a non-list is never omitted
                test += " or not isinstance(v, list)"
            enc += [f"    v = self.{row.attr}", f"    if {test}:",
                    f"        d[{key}] = {value.format('v')}"]
    if literal:
        enc.append("    }")
    if "extensions" in cls.__match_args__:
        enc += ["    if self.extensions:", "        d.update(self.extensions)"]
    enc.append("    return d")
    return enc, {"_copied": _copied}


def _checker(cls: type) -> tuple[list[str], dict]:
    """The source of a table's `check(self, where, report)`, which validation
    calls, and the names it reads.

    `check` applies each row's check in table order (a row omitted when None
    only when set), calls `check` on the nested blocks the table walks, then the
    block's `cross_check`, if it has one.
    """
    names: dict = {}
    chk = ["def check(self, where, report):", "    add = report.add"]
    for i, row in enumerate(cls.CHECKS):
        names[f"t{i}"], names[f"m{i}"] = row.test, row.message
        here, item = f"where + {'.' + row.name!r}", f"f'{{where}}.{row.name}[{{i}}]'"
        loop = f"    for i, v in enumerate(self.{row.attr}):"
        if row.kind == "block":
            chk.append(f"    self.{row.attr}.check({here}, report)")
        elif row.kind == "blocks":
            chk += [loop, f"        v.check({item}, report)"]
        elif row.kind == "strings":
            chk += [loop, f"        if not t{i}(v):",
                    f"            add({item}, {row.rule!r}, m{i}.format(v))"]
        else:
            skip = "v is not None and " if row.omit == OMIT_NONE else ""
            chk += [f"    v = self.{row.attr}", f"    if {skip}not t{i}(v):",
                    f"        add({here}, {row.rule!r}, m{i}.format(v))"]
    if "cross_check" in cls.__dict__:
        chk.append("    self.cross_check(where, report)")
    return chk, names


def codec(where: str):
    """Class decorator: make a slotted record class and generate the methods
    of its field table.

    `where` names the block in error messages, e.g. "run" or "test.measurement".
    """
    def build(cls: type) -> type:
        cls = record(cls)
        prefix = where.rpartition(".")[2].removesuffix("[]")
        for row in cls.FIELDS:
            row.rule = row.rule or f"{prefix}.{row.name}"
        # Validation checks the rows with a check and the nested blocks whose
        # own table checks something.
        cls.CHECKS = tuple(row for row in cls.FIELDS if row.test or row.kind in ("block", "blocks")
                           and any(inner.test for inner in row.block.FIELDS))
        cls.from_doc = staticmethod(_define("from_doc", f"<codec {cls.__name__}>",
                                            *_decoder(cls, where)))
        _on_first_call(cls, "check", f"<checks {cls.__name__}>", lambda: _checker(cls))
        return cls
    return build


def decode_checked(decode: Any, doc: Any, error: type, where: str = "") -> Any:
    """`decode(doc)` (a table's `from_doc`; with None, `doc` is the block), then
    the block's checks. Raises `error` with the shape error's message, or the
    first violation's after its path under `where`, if it has one."""
    try:
        block = doc if decode is None else decode(doc)
    except MalformedDocument as exc:
        raise error(str(exc)) from exc
    report = ValidationReport()
    block.check(where, report)
    if report.violations:
        first = report.violations[0]
        path = first.path.lstrip(".")
        raise error(f"{path} {first.message}" if path else first.message)
    return block


# ---------------------------------------------------------------------------
# checks: the (predicate, message) pairs that rows carry

def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value: Any) -> bool:
    """A number other than NaN and ±inf, which have no canonical form."""
    return _is_number(value) and (isinstance(value, int) or math.isfinite(value))


def _vocab(vocab: frozenset[str], what: str, escape: bool = True) -> tuple:
    """Membership of a vocabulary; with `escape`, `extension:<tag>` values too."""
    if escape:
        return lambda value: in_vocab(value, vocab), f"unknown {what} {{!r}}"
    return lambda value: isinstance(value, str) and value in vocab, f"unknown {what} {{!r}}"


def _pattern(pattern: re.Pattern, expected: str) -> tuple:
    return (lambda value: isinstance(value, str) and pattern.fullmatch(value) is not None,
            f"expected {expected}, got {{!r}}")


_STRING = (lambda value: isinstance(value, str), "must be a string")
_NONEMPTY = (lambda value: isinstance(value, str) and value != "", "must be a nonempty string")
_LEDGER_ID = (is_reference_id, "not a ledger id: {!r}")
_CONTENT_REF = (is_artifact_ref, "not a hash reference or URI: {!r}")
_DIGEST = (is_digest, "not a sha256 digest: {!r}")
_TIMESTAMP = (is_timestamp, "not an ISO-8601 UTC timestamp: {!r}")
_UNITS = (lambda value: _is_finite(value) and value >= 0, "must be a nonnegative number, got {!r}")
_COUNT = (lambda value: isinstance(value, int) and not isinstance(value, bool) and value >= 1,
          "must be an integer >= 1")
_BOOLEAN = (lambda value: isinstance(value, bool), "must be a boolean")


# ---------------------------------------------------------------------------
# shared blocks

@codec("actor")
class ActorRef:
    """Who acts: a role plus a pseudonym or a steward organisation."""

    role: str = wire("role", check=_vocab(ROLES, "role"))
    pseudonym: str | None = wire("pseudonym", None, check=_STRING)
    steward_org: str | None = wire("stewardOrg", None, check=_LEDGER_ID)
    extensions: dict = dict

    def cross_check(self, where: str, report: ValidationReport) -> None:
        if not self.pseudonym and not self.steward_org:
            report.add(where, "actor.identity", "needs a pseudonym or stewardOrg")

    def display_name(self) -> str:
        """Pseudonymous beneficiary handle: steward org wins over pseudonym."""
        return self.steward_org or self.pseudonym or ""


@codec("consent")
class ConsentBlock:
    """The contributor's consent: status, scope, retention, reuse limits."""

    status: str = wire("status", check=_vocab(CONSENT_STATUSES, "status"))
    scope: str | None = wire("scope", None)
    retention: str | None = wire("retention", None,
                                 check=_pattern(_RETENTION_RE, "<n>y|<n>m|<n>d"))
    reuse_constraints: list[str] | None = wire(
        "reuseConstraints", None, check=(_is_strings, "must be a list of policy tags"))
    extensions: dict = dict

    def scope_tags(self) -> list[str]:
        """Scope is a plus-separated tag list, e.g. "research+design"."""
        if not isinstance(self.scope, str) or not self.scope:
            return []
        return self.scope.split("+")


@codec("compensation")
class CompensationBlock:
    """How a contribution is compensated."""

    model: str = wire("model", check=_vocab(COMPENSATION_MODELS, "model"))
    amount: int | float | None = wire("amount", None, check=_UNITS)
    currency: str | None = wire("currency", None, check=_pattern(_CURRENCY_RE, "a 3-letter code"))
    extensions: dict = dict

    def cross_check(self, where: str, report: ValidationReport) -> None:
        """Paid models need their terms."""
        if self.model in ("honorarium", "hourly"):
            if not _is_number(self.amount) or self.amount <= 0:
                report.add(f"{where}.amount", "compensation.terms",
                           f"{self.model} requires amount > 0")
            if not self.currency:
                report.add(f"{where}.currency", "compensation.terms",
                           f"{self.model} requires a currency")


def _link(name: str, check: tuple = _LEDGER_ID):
    """A LinkSet row: a list of targets, each checked under rule links.target."""
    return wire(name, list, codec=list[str], check=check, rule="links.target")


@codec("links")
class LinkSet:
    """Outgoing links by kind; unknown kinds are kept in `extensions`."""

    influenced_by: list[str] = _link("influencedBy")
    influences: list[str] = _link("influences")
    motivates: list[str] = _link("motivates")
    uses_test: list[str] = _link("usesTest")
    evaluates: list[str] = _link("evaluates")
    deployed_as: list[str] = _link("deployedAs")
    remediates: list[str] = _link("remediates")
    evidence: list[str] = _link("evidence", (lambda value: is_reference_id(value) or is_uri(value),
                                             "not a ledger id or URI: {!r}"))
    authorizes: list[str] = _link("authorizes")
    credits_for: list[str] = _link("creditsFor")
    extensions: dict = dict

    def iter_links(self):
        """Yield (kind, target) for every declared link, in declaration order."""
        for kind, attr in LINK_ATTRS:
            for target in getattr(self, attr):
                yield kind, target


# (link kind, LinkSet attribute), in declaration order.
LINK_ATTRS: tuple[tuple[str, str], ...] = tuple((row.name, row.attr) for row in LinkSet.FIELDS)
LINK_KINDS: tuple[str, ...] = tuple(kind for kind, _ in LINK_ATTRS)


@codec("integrity.signature")
class SignatureRecord:
    """A signature over an entry's hash, and who made it (judged by a keyed
    verify_chain: its table checks nothing, so validation skips it)."""

    scheme: str = wire("scheme")
    signer_role: ActorRef = wire("signerRole", codec=ActorRef)
    key_ref: str = wire("keyRef")
    signature_bytes: str = wire("signatureBytes")
    extensions: dict = dict


@codec("integrity")
class IntegrityBlock:
    """An entry's hash, the previous entry's hash, and an optional signature."""

    hash: str = wire("hash", check=_DIGEST)
    prev_hash: str | None = wire("prevHash", None, check=_DIGEST)
    signature: SignatureRecord | None = wire("signature", None, codec=SignatureRecord)


# ---------------------------------------------------------------------------
# payloads

@codec("contribution")
class ContributionPayload:
    """A participant's contribution and where its content lives."""

    kind: str = wire("kind", check=_vocab(CONTRIBUTION_KINDS, "kind"))
    summary: str = wire("summary", check=_NONEMPTY)
    artifact_ref: str = wire("artifactRef", check=_CONTENT_REF)
    intended_use: str | None = wire("intendedUse", None,
                                    check=_vocab(INTENDED_USES, "intended use"))
    representational_metadata: dict | None = wire("representationalMetadata", None, codec=dict)
    recruitment_pathway: str | None = wire("recruitmentPathway", None, check=_STRING)
    extensions: dict = dict


@codec("change.changedArtifacts[]")
class ChangedArtifact:
    """One artifact version that a change produced."""

    artifact_id: str = wire("artifactId", check=_LEDGER_ID, rule="change.artifactId")
    version_after: str = wire("versionAfter", check=_NONEMPTY, rule="change.versionAfter")
    version_before: str | None = wire("versionBefore", None)
    extensions: dict = dict


@codec("change")
class ChangePayload:
    """A change to artifacts and why it was made."""

    change_kind: str = wire("changeKind", check=_vocab(CHANGE_KINDS, "change kind"))
    rationale: str = wire("rationale", check=_NONEMPTY)
    changed_artifacts: list[ChangedArtifact] = wire(
        "changedArtifacts", list, codec=list[ChangedArtifact], omit=ALWAYS)
    extensions: dict = dict

    def cross_check(self, where: str, report: ValidationReport) -> None:
        if not self.changed_artifacts:
            report.add(f"{where}.changedArtifacts", "change.changedArtifacts",
                       "must list at least one changed artifact")


@codec("artifact")
class ArtifactPayload:
    """One version of an artifact; `Snapshot.is_deployment` says whether it
    is a deployment."""

    artifact_id: str = wire("artifactId", check=_LEDGER_ID)
    artifact_kind: str = wire("artifactKind", check=_vocab(ARTIFACT_KINDS, "artifact kind"))
    version: str = wire("version", check=_NONEMPTY)
    content_ref: str = wire("contentRef", check=_CONTENT_REF)
    boundary: str | None = wire("boundary", None, check=_STRING)
    extensions: dict = dict


@codec("test.measurement")
class MeasurementProcedure:
    """One of three runner variants. Validation checks the fields of the
    active variant; every field that is set is serialized, so all of them
    are inside the hash. Threshold comparisons are inclusive."""

    runner_kind: str = wire("runnerKind", check=_vocab(RUNNER_KINDS, "runner kind"))
    # threshold
    metric_name: str | None = wire("metricName", None, check=_NONEMPTY)
    comparator: str | None = wire(
        "comparator", None, check=(lambda value: isinstance(value, str) and value in COMPARATORS,
                                   "expected >= or <=, got {!r}"))
    bound: int | float | None = wire("bound", None, check=(_is_finite, "must be a finite number"))
    # rubric
    criteria: list[str] | None = wire(
        "criteria", None, check=(lambda value: bool(value) and _is_strings(value),
                                 "must be a nonempty list of strings"))
    scale_max: int | None = wire("scaleMax", None, check=_COUNT)
    aggregation: str | None = wire(
        "aggregation", None, check=(lambda value: value == "mean",
                                    "only mean aggregation is defined, got {!r}"))
    pass_mean: int | float | None = wire("passMean", None, check=(_is_finite, "must be a number"))
    min_raters: int | None = wire("minRaters", None, check=_COUNT)
    extensions: dict = dict

    def cross_check(self, where: str, report: ValidationReport) -> None:
        """The runner variants: each row of the active one is required."""
        kind = self.runner_kind
        if kind not in ("threshold", "rubric"):
            return
        for row in self.FIELDS[1:4] if kind == "threshold" else self.FIELDS[4:9]:
            value = getattr(self, row.attr)
            if not row.test(value):
                report.add(f"{where}.{row.name}", row.rule, row.message.format(value))
        pass_mean, scale_max = self.pass_mean, self.scale_max
        if kind == "rubric" and _is_finite(pass_mean) \
                and isinstance(scale_max, int) and not isinstance(scale_max, bool) \
                and not 0 <= pass_mean <= scale_max:
            report.add(f"{where}.passMean", "measurement.passMean",
                       f"must lie within [0, scaleMax={scale_max}]")


# Only runnerKind is checked for every test: cross_check checks the rows of
# the active variant, so the other variant's rows are not checked at all.
MeasurementProcedure.CHECKS = MeasurementProcedure.FIELDS[:1]


@codec("test")
class TestPayload:
    """A test: what it checks, how it is measured, what motivated it."""

    topic: str = wire("topic", check=_NONEMPTY)
    expected_behavior: str = wire("expectedBehavior", check=_NONEMPTY)
    measurement: MeasurementProcedure = wire("measurement", codec=MeasurementProcedure)
    input_spec: dict = wire("inputSpec", dict, codec=dict)
    motivated_by: list[str] = wire("motivatedBy", list, codec=list[str], check=_LEDGER_ID)
    extensions: dict = dict


@codec("run")
class EvaluationRunPayload:
    """One run of a test on one artifact version, and its decision."""

    test_id: str = wire("testId", check=_LEDGER_ID)
    artifact_id: str = wire("artifactId", check=_LEDGER_ID)
    version: str = wire("version", check=_NONEMPTY)
    decision: str = wire("decision", check=_vocab(RUN_DECISIONS, "decision"))
    checkpoint: str = wire("checkpoint", check=_vocab(CHECKPOINTS, "checkpoint"))
    evaluator: ActorRef = wire("evaluator", codec=ActorRef)
    raw_results: dict = wire("rawResults", dict, codec=dict)
    timestamp: str | None = wire("timestamp", None, check=_TIMESTAMP)
    unattested_by_harness: bool | None = wire("unattestedByHarness", None)
    extensions: dict = dict


@codec("voucher.conditions[]")
class VoucherCondition:
    """A test that must pass before a voucher authorizes."""

    required_test_id: str = wire("requiredTestId", check=_LEDGER_ID, rule="voucher.condition-test")
    must_pass_on_version: str | None = wire("mustPassOnVersion", None)
    scope_constraints: list[str] = wire("scopeConstraints", list, codec=list,
                                        check=(_is_strings, "must be a list of tags"),
                                        rule="voucher.condition-scope")
    human_in_loop: bool = wire("humanInLoop", False, check=_BOOLEAN, rule="voucher.condition-flag")
    extensions: dict = dict


@codec("voucher")
class VoucherPayload:
    """A steward's pause, condition or authorization for a capability."""

    capability: str = wire("capability", check=_NONEMPTY)
    boundary: str = wire("boundary", check=_NONEMPTY)
    action: str = wire("action", check=_vocab(VOUCHER_ACTIONS, "action"))
    steward: ActorRef = wire("steward", codec=ActorRef)
    status: str = wire("status", check=_vocab(VOUCHER_STATUSES, "status", escape=False))
    conditions: list[VoucherCondition] = wire("conditions", list, codec=list[VoucherCondition])
    expiry: str | None = wire("expiry", None, check=_TIMESTAMP)
    extensions: dict = dict

    def cross_check(self, where: str, report: ValidationReport) -> None:
        if self.steward.role != "communitySteward":
            report.add(f"{where}.steward.role", "voucher.steward-role",
                       "vouchers are issued by communityStewards")


@codec("credit.triggeringEvent")
class TriggeringEvent:
    """The run or change a credit is awarded for."""

    kind: str = wire("kind", check=_vocab(CREDIT_EVENT_KINDS, "event kind"),
                     rule="credit.event-kind")
    evaluation_run_id: str | None = wire("evaluationRunId", None)
    change_id: str | None = wire("changeId", None)
    extensions: dict = dict

    def cross_check(self, where: str, report: ValidationReport) -> None:
        if not is_reference_id(self.trigger_id()):
            report.add(where, "credit.trigger", "needs an evaluationRunId or changeId ledger id")

    def trigger_id(self) -> str | None:
        return self.evaluation_run_id or self.change_id


@codec("credit")
class CreditPayload:
    """Credit units awarded to a beneficiary under a policy."""

    beneficiary: str = wire("beneficiary", check=_NONEMPTY)
    triggering_event: TriggeringEvent = wire("triggeringEvent", codec=TriggeringEvent)
    units: int | float = wire("units", check=_UNITS)
    policy_ref: str = wire("policyRef", check=_DIGEST)
    extensions: dict = dict


@codec("tombstone")
class TombstonePayload:
    """A redaction of an earlier entry, keeping its hash."""

    target_id: str = wire("targetId", check=_LEDGER_ID)
    reason: str = wire("reason", check=_vocab(TOMBSTONE_REASONS, "reason", escape=False))
    authorization: ActorRef = wire("authorization", codec=ActorRef)
    retained_hash: str = wire("retainedHash", check=_DIGEST)
    extensions: dict = dict

    def cross_check(self, where: str, report: ValidationReport) -> None:
        role = self.authorization.role
        if not (isinstance(role, str) and role in ROLES_ALLOWED_TO_REDACT):
            report.add(f"{where}.authorization.role", "tombstone.authorization-role",
                       "redaction requires a communitySteward or auditor")


# Each entry type's facts: the kind its ids carry, the key its payload sits
# under, and the payload class.
ENTRY_TYPES: dict[EntryType, tuple[str, str, type]] = {
    EntryType.CONTRIBUTION: ("contrib", "contribution", ContributionPayload),
    EntryType.CHANGE: ("change", "change", ChangePayload),
    EntryType.ARTIFACT: ("artifact", "artifact", ArtifactPayload),
    EntryType.TEST: ("test", "test", TestPayload),
    EntryType.EVALUATION_RUN: ("run", "run", EvaluationRunPayload),
    EntryType.VOUCHER: ("voucher", "voucher", VoucherPayload),
    EntryType.CREDIT: ("credit", "credit", CreditPayload),
    EntryType.TOMBSTONE: ("tomb", "tombstone", TombstonePayload),
}
ID_KIND = {t: kind for t, (kind, _, _) in ENTRY_TYPES.items()}
PAYLOAD_KEY = {t: key for t, (_, key, _) in ENTRY_TYPES.items()}
PAYLOAD_CLASS = {t: cls for t, (_, _, cls) in ENTRY_TYPES.items()}


# ---------------------------------------------------------------------------
# envelope

@record
class EntryEnvelope:
    id: str
    entry_type: EntryType
    created_at: str
    actor: ActorRef
    payload: Any
    consent: ConsentBlock | None = None
    compensation: CompensationBlock | None = None
    links: LinkSet = LinkSet
    context: str | None = None
    integrity: IntegrityBlock | None = None
    extensions: dict = dict

    # A block's protocol, so a table row can hold entries: `list[EntryEnvelope]`
    # decodes each through parse_entry and checks none (validate_structure does).
    FIELDS = ()
    from_doc = staticmethod(lambda doc, where="entry": parse_entry(doc))

    def to_doc(self) -> dict:
        doc: dict = {} if self.context is None else {"@context": self.context}
        doc["id"] = self.id
        doc["type"] = self.entry_type.value
        doc["createdAt"] = self.created_at
        doc["actor"] = self.actor.to_doc()
        if self.consent is not None:
            doc["consent"] = self.consent.to_doc()
        if self.compensation is not None:
            doc["compensation"] = self.compensation.to_doc()
        doc[PAYLOAD_KEY[self.entry_type]] = self.payload.to_doc()
        links_doc = self.links.to_doc()
        if links_doc:
            doc["links"] = links_doc
        doc.update(self.extensions)
        if self.integrity is not None:
            doc["integrity"] = self.integrity.to_doc()
        return doc


# Per type name: the type, its payload key, the other payload keys (which
# must be absent), every key the envelope decodes itself (the rest become
# extensions), and the payload decoder.
_ENVELOPE_KEYS = frozenset({"@context", "id", "type", "createdAt", "actor",
                            "consent", "compensation", "links", "integrity"})
_TYPES: dict[str, tuple] = {
    t.value: (t, key, frozenset(PAYLOAD_KEY.values()) - {key}, _ENVELOPE_KEYS | {key},
              cls.from_doc)
    for t, (_, key, cls) in ENTRY_TYPES.items()
}


def _payload_mismatch(doc: dict, entry_type: EntryType) -> NoReturn:
    expected_key = PAYLOAD_KEY[entry_type]
    present = [k for k in PAYLOAD_KEY.values() if k in doc]
    if expected_key not in present:
        raise PayloadMismatch(
            f"entry type {entry_type.value} requires a {expected_key!r} payload"
            + (f", found {present}" if present else "")
        )
    raise PayloadMismatch(f"multiple payload fields present: {present}")


def _finite(text: str) -> float:
    """A JSON number as RFC 8259 reads one: never NaN, ±Infinity or an overflow."""
    if math.isfinite(value := float(text)):
        return value
    raise MalformedDocument(f"not valid JSON: {text} is not a finite number")


_DECODER = json.JSONDecoder(parse_constant=_finite, parse_float=_finite)

# In UTF-8 text only an escape of a surrogate half spells a lone surrogate, so
# only a line holding one is rendered to confirm that its halves pair up.
_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD][89a-fA-F]")


def parse_entry(source: str | bytes | dict) -> EntryEnvelope:
    """Parse one entry document.

    Accepts JSON text (UTF-8 when bytes) or an already-decoded object. Raises
    MalformedDocument (also for text holding a number with no finite value
    or a lone surrogate escape, neither of which has a canonical form, and
    for text nested too deep or holding an integer too long to decode),
    UnknownEntryType, PayloadMismatch, InvalidTimestamp, or InvalidId. Value
    rules (vocabularies, ranges, role requirements) are left to
    validate_structure so the caller can collect them all at once.
    """
    if isinstance(source, (str, bytes)):
        text = source if isinstance(source, str) else source.decode("utf-8")
        try:
            doc = _DECODER.decode(text)
            if "\\" in text and _SURROGATE_ESCAPE_RE.search(text):
                canonical_bytes(doc)
        except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
            raise MalformedDocument(f"not valid JSON: {exc}") from exc
        except RecursionError as exc:  # RFC 8259 §9 lets a parser limit nesting
            raise MalformedDocument("not valid JSON: nested too deep to decode") from exc
    else:
        doc = source
    if not isinstance(doc, dict):
        _not_object(doc, "entry")
    get = doc.get

    type_name = get("type")
    if not isinstance(type_name, str):
        raise MalformedDocument("entry is missing a string `type` field")
    info = _TYPES.get(type_name)
    if info is None:
        raise UnknownEntryType(f"unknown entry type {type_name!r}")
    entry_type, payload_key, other_payload_keys, known, decode_payload = info

    entry_id = get("id")
    check_entry_id(entry_id, entry_type)
    created_at = get("createdAt")
    parse_timestamp(created_at)
    if payload_key not in doc or not other_payload_keys.isdisjoint(doc):
        _payload_mismatch(doc, entry_type)
    payload = decode_payload(doc[payload_key])
    context = get("@context")
    if context is not None and not isinstance(context, str):
        raise MalformedDocument("@context must be a string")
    consent = get("consent")
    compensation = get("compensation")
    links = get("links")
    integrity = get("integrity")
    return EntryEnvelope(
        entry_id, entry_type, created_at,
        _decode_actor(get("actor", _NO_BLOCK), "actor"),
        payload,
        None if consent is None else _decode_consent(consent),
        None if compensation is None else _decode_compensation(compensation),
        LinkSet() if links is None else _decode_links(links),
        context,
        None if integrity is None else _decode_integrity(integrity),
        {} if known.issuperset(doc) else _rest(doc, known),
    )


_decode_actor = ActorRef.from_doc
_decode_consent = ConsentBlock.from_doc
_decode_compensation = CompensationBlock.from_doc
_decode_links = LinkSet.from_doc
_decode_integrity = IntegrityBlock.from_doc


def serialize_entry(entry: EntryEnvelope) -> str:
    """Render the entry in canonical form (sorted keys, canonical numbers).

    For sealed entries this is byte-stable under parse/serialize round trips,
    which is what the append-only file relies on.
    """
    return canonical_json(entry.to_doc())


# ---------------------------------------------------------------------------
# structural validation

@record
class Violation:
    path: str
    rule: str
    message: str


@record
class ValidationReport:
    violations: list[Violation] = list

    def ok(self) -> bool:
        return not self.violations

    def add(self, path: str, rule: str, message: str) -> None:
        self.violations.append(Violation(path, rule, message))

    def summary(self) -> str:
        if not self.violations:
            return "ok"
        return "; ".join(f"{v.path} [{v.rule}] {v.message}" for v in self.violations)


def validate_structure(entry: EntryEnvelope) -> ValidationReport:
    """Single-entry structural validation.

    Collects every violation with a field path and a stable rule id; never
    raises. Each block applies the checks on its table's rows, then its
    `cross_check`; the envelope's rules are here. Cross-entry properties (dangling links, chain integrity, voucher
    lineage legality) are checked by the graph, the chain verifier, and the
    store, not here.
    """
    report = ValidationReport()
    try:
        check_entry_id(entry.id, entry.entry_type)
    except InvalidId as exc:
        report.add("id", "id.grammar", str(exc))
    if not is_timestamp(entry.created_at):
        report.add("createdAt", "createdAt.format",
                   f"not an ISO-8601 UTC timestamp: {entry.created_at!r}")
    if "prev" in entry.extensions:
        report.add("prev", "prev.reserved",
                   "top-level prev is reserved for the hash pre-image")
    for block, where in ((entry.actor, "actor"), (entry.consent, "consent"),
                         (entry.compensation, "compensation"), (entry.links, "links")):
        if block is not None:
            block.check(where, report)
    contribution = entry.entry_type is EntryType.CONTRIBUTION
    if contribution:
        if entry.consent is None:
            report.add("consent", "contribution.consent-required",
                       "contributions must carry a consent block")
        if entry.compensation is None:
            report.add("compensation", "contribution.compensation-required",
                       "contributions must declare compensation (none-declared is explicit)")
    if entry.integrity is not None:
        entry.integrity.check("integrity", report)
    entry.payload.check(PAYLOAD_KEY[entry.entry_type], report)
    if contribution and entry.payload.representational_metadata is not None and (
            entry.consent is None or "identity-markers" not in entry.consent.scope_tags()):
        report.add("contribution.representationalMetadata", "contribution.representational-scope",
                   "requires consent scope tag identity-markers")
    return report
