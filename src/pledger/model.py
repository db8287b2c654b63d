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
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from typing import Any

from .canonical import canonical_json
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


ID_KIND: dict[EntryType, str] = {
    EntryType.CONTRIBUTION: "contrib",
    EntryType.CHANGE: "change",
    EntryType.ARTIFACT: "artifact",
    EntryType.TEST: "test",
    EntryType.EVALUATION_RUN: "run",
    EntryType.VOUCHER: "voucher",
    EntryType.CREDIT: "credit",
    EntryType.TOMBSTONE: "tomb",
}

PAYLOAD_KEY: dict[EntryType, str] = {
    EntryType.CONTRIBUTION: "contribution",
    EntryType.CHANGE: "change",
    EntryType.ARTIFACT: "artifact",
    EntryType.TEST: "test",
    EntryType.EVALUATION_RUN: "run",
    EntryType.VOUCHER: "voucher",
    EntryType.CREDIT: "credit",
    EntryType.TOMBSTONE: "tombstone",
}

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
        return datetime(int(value[0:4]), int(value[5:7]), int(value[8:10]),
                        int(value[11:13]), int(value[14:16]), int(value[17:19]),
                        tzinfo=timezone.utc)
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


def _is_str_list(value: Any) -> bool:
    if not isinstance(value, list):
        return False
    for item in value:
        if not isinstance(item, str):
            return False
    return True


def _require_doc(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise MalformedDocument(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def _rest(doc: dict, known: frozenset[str]) -> dict:
    if known.issuperset(doc):
        return {}
    return {k: v for k, v in doc.items() if k not in known}


def _put(doc: dict, key: str, value: Any) -> None:
    if value is not None:
        doc[key] = value


# ---------------------------------------------------------------------------
# shared blocks

@dataclass(slots=True)
class ActorRef:
    role: str
    pseudonym: str | None = None
    steward_org: str | None = None
    extensions: dict = field(default_factory=dict)

    _KEYS = frozenset({"role", "pseudonym", "stewardOrg"})

    @classmethod
    def from_doc(cls, doc: Any, where: str = "actor") -> "ActorRef":
        doc = _require_doc(doc, where)
        return cls(
            role=doc.get("role"),
            pseudonym=doc.get("pseudonym"),
            steward_org=doc.get("stewardOrg"),
            extensions=_rest(doc, cls._KEYS),
        )

    def to_doc(self) -> dict:
        doc: dict = {"role": self.role}
        _put(doc, "pseudonym", self.pseudonym)
        _put(doc, "stewardOrg", self.steward_org)
        doc.update(self.extensions)
        return doc

    def display_name(self) -> str:
        """Pseudonymous beneficiary handle: steward org wins over pseudonym."""
        return self.steward_org or self.pseudonym or ""


@dataclass(slots=True)
class ConsentBlock:
    status: str
    scope: str | None = None
    retention: str | None = None
    reuse_constraints: list[str] | None = None
    extensions: dict = field(default_factory=dict)

    _KEYS = frozenset({"status", "scope", "retention", "reuseConstraints"})

    @classmethod
    def from_doc(cls, doc: Any) -> "ConsentBlock":
        doc = _require_doc(doc, "consent")
        return cls(
            status=doc.get("status"),
            scope=doc.get("scope"),
            retention=doc.get("retention"),
            reuse_constraints=doc.get("reuseConstraints"),
            extensions=_rest(doc, cls._KEYS),
        )

    def to_doc(self) -> dict:
        doc: dict = {"status": self.status}
        _put(doc, "scope", self.scope)
        _put(doc, "retention", self.retention)
        _put(doc, "reuseConstraints", self.reuse_constraints)
        doc.update(self.extensions)
        return doc

    def scope_tags(self) -> list[str]:
        """Scope is a plus-separated tag list, e.g. "research+design"."""
        if not isinstance(self.scope, str) or not self.scope:
            return []
        return self.scope.split("+")


@dataclass(slots=True)
class CompensationBlock:
    model: str
    amount: int | float | None = None
    currency: str | None = None
    extensions: dict = field(default_factory=dict)

    _KEYS = frozenset({"model", "amount", "currency"})

    @classmethod
    def from_doc(cls, doc: Any) -> "CompensationBlock":
        doc = _require_doc(doc, "compensation")
        return cls(
            model=doc.get("model"),
            amount=doc.get("amount"),
            currency=doc.get("currency"),
            extensions=_rest(doc, cls._KEYS),
        )

    def to_doc(self) -> dict:
        doc: dict = {"model": self.model}
        _put(doc, "amount", self.amount)
        _put(doc, "currency", self.currency)
        doc.update(self.extensions)
        return doc


@dataclass(slots=True)
class LinkSet:
    influenced_by: list[str] = field(default_factory=list)
    influences: list[str] = field(default_factory=list)
    motivates: list[str] = field(default_factory=list)
    uses_test: list[str] = field(default_factory=list)
    evaluates: list[str] = field(default_factory=list)
    deployed_as: list[str] = field(default_factory=list)
    remediates: list[str] = field(default_factory=list)
    evidence: list[str] = field(default_factory=list)
    authorizes: list[str] = field(default_factory=list)
    credits_for: list[str] = field(default_factory=list)
    extensions: dict = field(default_factory=dict)

    _ATTR_FOR_KIND = {
        "influencedBy": "influenced_by",
        "influences": "influences",
        "motivates": "motivates",
        "usesTest": "uses_test",
        "evaluates": "evaluates",
        "deployedAs": "deployed_as",
        "remediates": "remediates",
        "evidence": "evidence",
        "authorizes": "authorizes",
        "creditsFor": "credits_for",
    }

    @classmethod
    def from_doc(cls, doc: Any) -> "LinkSet":
        doc = _require_doc(doc, "links")
        links = cls()
        for kind, value in doc.items():
            attr = cls._ATTR_FOR_KIND.get(kind)
            if attr is None:
                links.extensions[kind] = value
                continue
            if not _is_str_list(value):
                raise MalformedDocument(f"links.{kind} must be a list of strings")
            setattr(links, attr, list(value))
        return links

    def to_doc(self) -> dict:
        doc: dict = {}
        for kind, attr in self._ATTR_FOR_KIND.items():
            targets = getattr(self, attr)
            if targets:
                doc[kind] = list(targets)
        doc.update(self.extensions)
        return doc

    def iter_links(self):
        """Yield (kind, target) for every declared link, in declaration order."""
        for kind, attr in self._ATTR_FOR_KIND.items():
            for target in getattr(self, attr):
                yield kind, target


LINK_KINDS: tuple[str, ...] = tuple(LinkSet._ATTR_FOR_KIND)


@dataclass(slots=True)
class SignatureRecord:
    scheme: str
    signer_role: ActorRef
    key_ref: str
    signature_bytes: str
    extensions: dict = field(default_factory=dict)

    _KEYS = frozenset({"scheme", "signerRole", "keyRef", "signatureBytes"})

    @classmethod
    def from_doc(cls, doc: Any) -> "SignatureRecord":
        doc = _require_doc(doc, "integrity.signature")
        return cls(
            scheme=doc.get("scheme"),
            signer_role=ActorRef.from_doc(doc.get("signerRole", {}), "integrity.signature.signerRole"),
            key_ref=doc.get("keyRef"),
            signature_bytes=doc.get("signatureBytes"),
            extensions=_rest(doc, cls._KEYS),
        )

    def to_doc(self) -> dict:
        doc = {
            "scheme": self.scheme,
            "signerRole": self.signer_role.to_doc(),
            "keyRef": self.key_ref,
            "signatureBytes": self.signature_bytes,
        }
        doc.update(self.extensions)
        return doc


@dataclass(slots=True)
class IntegrityBlock:
    hash: str
    prev_hash: str | None = None
    signature: SignatureRecord | None = None

    @classmethod
    def from_doc(cls, doc: Any) -> "IntegrityBlock":
        doc = _require_doc(doc, "integrity")
        sig = doc.get("signature")
        return cls(
            hash=doc.get("hash"),
            prev_hash=doc.get("prevHash"),
            signature=SignatureRecord.from_doc(sig) if sig is not None else None,
        )

    def to_doc(self) -> dict:
        doc: dict = {"hash": self.hash}
        _put(doc, "prevHash", self.prev_hash)
        if self.signature is not None:
            doc["signature"] = self.signature.to_doc()
        return doc


# ---------------------------------------------------------------------------
# payloads

@dataclass(slots=True)
class ContributionPayload:
    kind: str
    summary: str
    artifact_ref: str
    intended_use: str | None = None
    representational_metadata: dict | None = None
    recruitment_pathway: str | None = None
    extensions: dict = field(default_factory=dict)

    _KEYS = frozenset({"kind", "summary", "artifactRef", "intendedUse",
                       "representationalMetadata", "recruitmentPathway"})

    @classmethod
    def from_doc(cls, doc: Any) -> "ContributionPayload":
        doc = _require_doc(doc, "contribution")
        meta = doc.get("representationalMetadata")
        if meta is not None:
            meta = _require_doc(meta, "contribution.representationalMetadata")
        return cls(
            kind=doc.get("kind"),
            summary=doc.get("summary"),
            artifact_ref=doc.get("artifactRef"),
            intended_use=doc.get("intendedUse"),
            representational_metadata=meta,
            recruitment_pathway=doc.get("recruitmentPathway"),
            extensions=_rest(doc, cls._KEYS),
        )

    def to_doc(self) -> dict:
        doc: dict = {"kind": self.kind, "summary": self.summary, "artifactRef": self.artifact_ref}
        _put(doc, "intendedUse", self.intended_use)
        _put(doc, "representationalMetadata", self.representational_metadata)
        _put(doc, "recruitmentPathway", self.recruitment_pathway)
        doc.update(self.extensions)
        return doc


@dataclass(slots=True)
class ChangedArtifact:
    artifact_id: str
    version_after: str
    version_before: str | None = None
    extensions: dict = field(default_factory=dict)

    _KEYS = frozenset({"artifactId", "versionBefore", "versionAfter"})

    @classmethod
    def from_doc(cls, doc: Any) -> "ChangedArtifact":
        doc = _require_doc(doc, "change.changedArtifacts[]")
        return cls(
            artifact_id=doc.get("artifactId"),
            version_after=doc.get("versionAfter"),
            version_before=doc.get("versionBefore"),
            extensions=_rest(doc, cls._KEYS),
        )

    def to_doc(self) -> dict:
        doc: dict = {"artifactId": self.artifact_id}
        _put(doc, "versionBefore", self.version_before)
        doc["versionAfter"] = self.version_after
        doc.update(self.extensions)
        return doc


@dataclass(slots=True)
class ChangePayload:
    change_kind: str
    rationale: str
    changed_artifacts: list[ChangedArtifact] = field(default_factory=list)
    extensions: dict = field(default_factory=dict)

    _KEYS = frozenset({"changeKind", "rationale", "changedArtifacts"})

    @classmethod
    def from_doc(cls, doc: Any) -> "ChangePayload":
        doc = _require_doc(doc, "change")
        raw = doc.get("changedArtifacts", [])
        if not isinstance(raw, list):
            raise MalformedDocument("change.changedArtifacts must be a list")
        return cls(
            change_kind=doc.get("changeKind"),
            rationale=doc.get("rationale"),
            changed_artifacts=[ChangedArtifact.from_doc(item) for item in raw],
            extensions=_rest(doc, cls._KEYS),
        )

    def to_doc(self) -> dict:
        doc: dict = {
            "changeKind": self.change_kind,
            "rationale": self.rationale,
            "changedArtifacts": [ca.to_doc() for ca in self.changed_artifacts],
        }
        doc.update(self.extensions)
        return doc


@dataclass(slots=True)
class ArtifactPayload:
    artifact_id: str
    artifact_kind: str
    version: str
    content_ref: str
    boundary: str | None = None
    extensions: dict = field(default_factory=dict)

    _KEYS = frozenset({"artifactId", "artifactKind", "version", "contentRef", "boundary"})

    @classmethod
    def from_doc(cls, doc: Any) -> "ArtifactPayload":
        doc = _require_doc(doc, "artifact")
        return cls(
            artifact_id=doc.get("artifactId"),
            artifact_kind=doc.get("artifactKind"),
            version=doc.get("version"),
            content_ref=doc.get("contentRef"),
            boundary=doc.get("boundary"),
            extensions=_rest(doc, cls._KEYS),
        )

    def to_doc(self) -> dict:
        doc: dict = {
            "artifactId": self.artifact_id,
            "artifactKind": self.artifact_kind,
            "version": self.version,
            "contentRef": self.content_ref,
        }
        _put(doc, "boundary", self.boundary)
        doc.update(self.extensions)
        return doc

    def is_deployment(self) -> bool:
        return self.artifact_kind == DEPLOYMENT_KIND


@dataclass(slots=True)
class MeasurementProcedure:
    """One of three runner variants; only the fields of the active variant
    are serialized. Threshold comparisons are inclusive."""

    runner_kind: str
    # threshold
    metric_name: str | None = None
    comparator: str | None = None
    bound: int | float | None = None
    # rubric
    criteria: list[str] | None = None
    scale_max: int | None = None
    aggregation: str | None = None
    pass_mean: int | float | None = None
    min_raters: int | None = None
    extensions: dict = field(default_factory=dict)

    _KEYS = frozenset({"runnerKind", "metricName", "comparator", "bound",
                       "criteria", "scaleMax", "aggregation", "passMean", "minRaters"})

    @classmethod
    def from_doc(cls, doc: Any) -> "MeasurementProcedure":
        doc = _require_doc(doc, "test.measurement")
        return cls(
            runner_kind=doc.get("runnerKind"),
            metric_name=doc.get("metricName"),
            comparator=doc.get("comparator"),
            bound=doc.get("bound"),
            criteria=doc.get("criteria"),
            scale_max=doc.get("scaleMax"),
            aggregation=doc.get("aggregation"),
            pass_mean=doc.get("passMean"),
            min_raters=doc.get("minRaters"),
            extensions=_rest(doc, cls._KEYS),
        )

    def to_doc(self) -> dict:
        doc: dict = {"runnerKind": self.runner_kind}
        if self.runner_kind == "threshold":
            _put(doc, "metricName", self.metric_name)
            _put(doc, "comparator", self.comparator)
            _put(doc, "bound", self.bound)
        elif self.runner_kind == "rubric":
            _put(doc, "criteria", self.criteria)
            _put(doc, "scaleMax", self.scale_max)
            _put(doc, "aggregation", self.aggregation)
            _put(doc, "passMean", self.pass_mean)
            _put(doc, "minRaters", self.min_raters)
        else:
            for key, value in (
                ("metricName", self.metric_name), ("comparator", self.comparator),
                ("bound", self.bound), ("criteria", self.criteria),
                ("scaleMax", self.scale_max), ("aggregation", self.aggregation),
                ("passMean", self.pass_mean), ("minRaters", self.min_raters),
            ):
                _put(doc, key, value)
        doc.update(self.extensions)
        return doc


@dataclass(slots=True)
class TestPayload:
    topic: str
    expected_behavior: str
    measurement: MeasurementProcedure
    input_spec: dict = field(default_factory=dict)
    motivated_by: list[str] = field(default_factory=list)
    extensions: dict = field(default_factory=dict)

    _KEYS = frozenset({"topic", "expectedBehavior", "measurement", "inputSpec", "motivatedBy"})

    @classmethod
    def from_doc(cls, doc: Any) -> "TestPayload":
        doc = _require_doc(doc, "test")
        motivated = doc.get("motivatedBy", [])
        if not _is_str_list(motivated):
            raise MalformedDocument("test.motivatedBy must be a list of strings")
        return cls(
            topic=doc.get("topic"),
            expected_behavior=doc.get("expectedBehavior"),
            measurement=MeasurementProcedure.from_doc(doc.get("measurement", {})),
            input_spec=_require_doc(doc.get("inputSpec", {}), "test.inputSpec"),
            motivated_by=list(motivated),
            extensions=_rest(doc, cls._KEYS),
        )

    def to_doc(self) -> dict:
        doc: dict = {
            "topic": self.topic,
            "expectedBehavior": self.expected_behavior,
            "measurement": self.measurement.to_doc(),
        }
        if self.input_spec:
            doc["inputSpec"] = self.input_spec
        if self.motivated_by:
            doc["motivatedBy"] = list(self.motivated_by)
        doc.update(self.extensions)
        return doc


@dataclass(slots=True)
class EvaluationRunPayload:
    test_id: str
    artifact_id: str
    version: str
    decision: str
    checkpoint: str
    evaluator: ActorRef
    raw_results: dict = field(default_factory=dict)
    timestamp: str | None = None
    unattested_by_harness: bool | None = None
    extensions: dict = field(default_factory=dict)

    _KEYS = frozenset({"testId", "artifactId", "version", "decision", "checkpoint",
                       "evaluator", "rawResults", "timestamp", "unattestedByHarness"})

    @classmethod
    def from_doc(cls, doc: Any) -> "EvaluationRunPayload":
        doc = _require_doc(doc, "run")
        return cls(
            test_id=doc.get("testId"),
            artifact_id=doc.get("artifactId"),
            version=doc.get("version"),
            decision=doc.get("decision"),
            checkpoint=doc.get("checkpoint"),
            evaluator=ActorRef.from_doc(doc.get("evaluator", {}), "run.evaluator"),
            raw_results=_require_doc(doc.get("rawResults", {}), "run.rawResults"),
            timestamp=doc.get("timestamp"),
            unattested_by_harness=doc.get("unattestedByHarness"),
            extensions=_rest(doc, cls._KEYS),
        )

    def to_doc(self) -> dict:
        doc: dict = {
            "testId": self.test_id,
            "artifactId": self.artifact_id,
            "version": self.version,
            "decision": self.decision,
            "checkpoint": self.checkpoint,
            "evaluator": self.evaluator.to_doc(),
        }
        if self.raw_results:
            doc["rawResults"] = self.raw_results
        _put(doc, "timestamp", self.timestamp)
        _put(doc, "unattestedByHarness", self.unattested_by_harness)
        doc.update(self.extensions)
        return doc


@dataclass(slots=True)
class VoucherCondition:
    required_test_id: str
    must_pass_on_version: str | None = None
    scope_constraints: list[str] = field(default_factory=list)
    human_in_loop: bool = False
    extensions: dict = field(default_factory=dict)

    _KEYS = frozenset({"requiredTestId", "mustPassOnVersion", "scopeConstraints", "humanInLoop"})

    @classmethod
    def from_doc(cls, doc: Any) -> "VoucherCondition":
        doc = _require_doc(doc, "voucher.conditions[]")
        return cls(
            required_test_id=doc.get("requiredTestId"),
            must_pass_on_version=doc.get("mustPassOnVersion"),
            scope_constraints=doc.get("scopeConstraints", []),
            human_in_loop=doc.get("humanInLoop", False),
            extensions=_rest(doc, cls._KEYS),
        )

    def to_doc(self) -> dict:
        doc: dict = {"requiredTestId": self.required_test_id}
        _put(doc, "mustPassOnVersion", self.must_pass_on_version)
        if self.scope_constraints:
            doc["scopeConstraints"] = list(self.scope_constraints)
        doc["humanInLoop"] = self.human_in_loop
        doc.update(self.extensions)
        return doc


@dataclass(slots=True)
class VoucherPayload:
    capability: str
    boundary: str
    action: str
    steward: ActorRef
    status: str
    conditions: list[VoucherCondition] = field(default_factory=list)
    expiry: str | None = None
    extensions: dict = field(default_factory=dict)

    _KEYS = frozenset({"capability", "boundary", "action", "steward", "status",
                       "conditions", "expiry"})

    @classmethod
    def from_doc(cls, doc: Any) -> "VoucherPayload":
        doc = _require_doc(doc, "voucher")
        raw = doc.get("conditions", [])
        if not isinstance(raw, list):
            raise MalformedDocument("voucher.conditions must be a list")
        return cls(
            capability=doc.get("capability"),
            boundary=doc.get("boundary"),
            action=doc.get("action"),
            steward=ActorRef.from_doc(doc.get("steward", {}), "voucher.steward"),
            status=doc.get("status"),
            conditions=[VoucherCondition.from_doc(item) for item in raw],
            expiry=doc.get("expiry"),
            extensions=_rest(doc, cls._KEYS),
        )

    def to_doc(self) -> dict:
        doc: dict = {
            "capability": self.capability,
            "boundary": self.boundary,
            "action": self.action,
            "steward": self.steward.to_doc(),
            "status": self.status,
        }
        if self.conditions:
            doc["conditions"] = [c.to_doc() for c in self.conditions]
        _put(doc, "expiry", self.expiry)
        doc.update(self.extensions)
        return doc


@dataclass(slots=True)
class TriggeringEvent:
    kind: str
    evaluation_run_id: str | None = None
    change_id: str | None = None
    extensions: dict = field(default_factory=dict)

    _KEYS = frozenset({"kind", "evaluationRunId", "changeId"})

    @classmethod
    def from_doc(cls, doc: Any) -> "TriggeringEvent":
        doc = _require_doc(doc, "credit.triggeringEvent")
        return cls(
            kind=doc.get("kind"),
            evaluation_run_id=doc.get("evaluationRunId"),
            change_id=doc.get("changeId"),
            extensions=_rest(doc, cls._KEYS),
        )

    def to_doc(self) -> dict:
        doc: dict = {"kind": self.kind}
        _put(doc, "evaluationRunId", self.evaluation_run_id)
        _put(doc, "changeId", self.change_id)
        doc.update(self.extensions)
        return doc

    def trigger_id(self) -> str | None:
        return self.evaluation_run_id or self.change_id


@dataclass(slots=True)
class CreditPayload:
    beneficiary: str
    triggering_event: TriggeringEvent
    units: int | float
    policy_ref: str
    extensions: dict = field(default_factory=dict)

    _KEYS = frozenset({"beneficiary", "triggeringEvent", "units", "policyRef"})

    @classmethod
    def from_doc(cls, doc: Any) -> "CreditPayload":
        doc = _require_doc(doc, "credit")
        return cls(
            beneficiary=doc.get("beneficiary"),
            triggering_event=TriggeringEvent.from_doc(doc.get("triggeringEvent", {})),
            units=doc.get("units"),
            policy_ref=doc.get("policyRef"),
            extensions=_rest(doc, cls._KEYS),
        )

    def to_doc(self) -> dict:
        doc: dict = {
            "beneficiary": self.beneficiary,
            "triggeringEvent": self.triggering_event.to_doc(),
            "units": self.units,
            "policyRef": self.policy_ref,
        }
        doc.update(self.extensions)
        return doc


@dataclass(slots=True)
class TombstonePayload:
    target_id: str
    reason: str
    authorization: ActorRef
    retained_hash: str
    extensions: dict = field(default_factory=dict)

    _KEYS = frozenset({"targetId", "reason", "authorization", "retainedHash"})

    @classmethod
    def from_doc(cls, doc: Any) -> "TombstonePayload":
        doc = _require_doc(doc, "tombstone")
        return cls(
            target_id=doc.get("targetId"),
            reason=doc.get("reason"),
            authorization=ActorRef.from_doc(doc.get("authorization", {}), "tombstone.authorization"),
            retained_hash=doc.get("retainedHash"),
            extensions=_rest(doc, cls._KEYS),
        )

    def to_doc(self) -> dict:
        doc: dict = {
            "targetId": self.target_id,
            "reason": self.reason,
            "authorization": self.authorization.to_doc(),
            "retainedHash": self.retained_hash,
        }
        doc.update(self.extensions)
        return doc


PAYLOAD_CLASS: dict[EntryType, type] = {
    EntryType.CONTRIBUTION: ContributionPayload,
    EntryType.CHANGE: ChangePayload,
    EntryType.ARTIFACT: ArtifactPayload,
    EntryType.TEST: TestPayload,
    EntryType.EVALUATION_RUN: EvaluationRunPayload,
    EntryType.VOUCHER: VoucherPayload,
    EntryType.CREDIT: CreditPayload,
    EntryType.TOMBSTONE: TombstonePayload,
}


# ---------------------------------------------------------------------------
# envelope

@dataclass(slots=True)
class EntryEnvelope:
    id: str
    entry_type: EntryType
    created_at: str
    actor: ActorRef
    payload: Any
    consent: ConsentBlock | None = None
    compensation: CompensationBlock | None = None
    links: LinkSet = field(default_factory=LinkSet)
    context: str | None = None
    integrity: IntegrityBlock | None = None
    extensions: dict = field(default_factory=dict)

    _KEYS = frozenset({"@context", "id", "type", "createdAt", "actor",
                       "consent", "compensation", "links", "integrity"})

    def is_sealed(self) -> bool:
        return self.integrity is not None

    def created_at_datetime(self) -> datetime:
        return parse_timestamp(self.created_at)

    def to_doc(self, include_integrity: bool = True) -> dict:
        doc: dict = {}
        _put(doc, "@context", self.context)
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
        if include_integrity and self.integrity is not None:
            doc["integrity"] = self.integrity.to_doc()
        return doc


_ENTRY_TYPE: dict[str, EntryType] = {t.value: t for t in EntryType}
# Per type: the payload keys that must be absent, and every key the envelope
# decodes itself (the rest become extensions).
_OTHER_PAYLOAD_KEYS: dict[EntryType, frozenset[str]] = {
    t: frozenset(PAYLOAD_KEY.values()) - {PAYLOAD_KEY[t]} for t in EntryType
}
_ENVELOPE_KEYS: dict[EntryType, frozenset[str]] = {
    t: EntryEnvelope._KEYS | {PAYLOAD_KEY[t]} for t in EntryType
}


def parse_entry(source: str | bytes | dict) -> EntryEnvelope:
    """Parse one entry document.

    Accepts JSON text or an already-decoded object. Raises MalformedDocument,
    UnknownEntryType, PayloadMismatch, InvalidTimestamp, or InvalidId. Value
    rules (vocabularies, ranges, role requirements) are left to
    validate_structure so the caller can collect them all at once.
    """
    if isinstance(source, (str, bytes)):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise MalformedDocument(f"not valid JSON: {exc}") from exc
    else:
        doc = source
    doc = _require_doc(doc, "entry")

    type_name = doc.get("type")
    if not isinstance(type_name, str):
        raise MalformedDocument("entry is missing a string `type` field")
    entry_type = _ENTRY_TYPE.get(type_name)
    if entry_type is None:
        raise UnknownEntryType(f"unknown entry type {type_name!r}")

    entry_id = doc.get("id")
    check_entry_id(entry_id, entry_type)

    created_at = doc.get("createdAt")
    parse_timestamp(created_at)

    expected_key = PAYLOAD_KEY[entry_type]
    if expected_key not in doc or not _OTHER_PAYLOAD_KEYS[entry_type].isdisjoint(doc):
        payload_keys_present = [k for k in PAYLOAD_KEY.values() if k in doc]
        if expected_key not in payload_keys_present:
            raise PayloadMismatch(
                f"entry type {entry_type.value} requires a {expected_key!r} payload"
                + (f", found {payload_keys_present}" if payload_keys_present else "")
            )
        raise PayloadMismatch(f"multiple payload fields present: {payload_keys_present}")
    payload = PAYLOAD_CLASS[entry_type].from_doc(doc[expected_key])

    consent = doc.get("consent")
    compensation = doc.get("compensation")
    links = doc.get("links")
    integrity = doc.get("integrity")
    context = doc.get("@context")
    if context is not None and not isinstance(context, str):
        raise MalformedDocument("@context must be a string")

    return EntryEnvelope(
        id=entry_id,
        entry_type=entry_type,
        created_at=created_at,
        actor=ActorRef.from_doc(doc.get("actor", {})),
        payload=payload,
        consent=ConsentBlock.from_doc(consent) if consent is not None else None,
        compensation=CompensationBlock.from_doc(compensation) if compensation is not None else None,
        links=LinkSet.from_doc(links) if links is not None else LinkSet(),
        context=context,
        integrity=IntegrityBlock.from_doc(integrity) if integrity is not None else None,
        extensions=_rest(doc, _ENVELOPE_KEYS[entry_type]),
    )


def serialize_entry(entry: EntryEnvelope) -> str:
    """Render the entry in canonical form (sorted keys, canonical numbers).

    For sealed entries this is byte-stable under parse/serialize round trips,
    which is what the append-only file relies on.
    """
    return canonical_json(entry.to_doc())


# ---------------------------------------------------------------------------
# structural validation

@dataclass
class Violation:
    path: str
    rule: str
    message: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.violations

    def add(self, path: str, rule: str, message: str) -> None:
        self.violations.append(Violation(path, rule, message))

    def rules(self) -> set[str]:
        return {v.rule for v in self.violations}

    def summary(self) -> str:
        if not self.violations:
            return "ok"
        return "; ".join(f"{v.path} [{v.rule}] {v.message}" for v in self.violations)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_actor(actor: ActorRef, path: str, report: ValidationReport) -> None:
    if not in_vocab(actor.role, ROLES):
        report.add(f"{path}.role", "actor.role", f"unknown role {actor.role!r}")
    if not actor.pseudonym and not actor.steward_org:
        report.add(path, "actor.identity", "needs a pseudonym or stewardOrg")
    if actor.pseudonym is not None and not isinstance(actor.pseudonym, str):
        report.add(f"{path}.pseudonym", "actor.pseudonym", "must be a string")
    if actor.steward_org is not None and not is_reference_id(actor.steward_org):
        report.add(f"{path}.stewardOrg", "actor.stewardOrg",
                   f"not a ledger id: {actor.steward_org!r}")


def _check_consent(consent: ConsentBlock, report: ValidationReport) -> None:
    if not in_vocab(consent.status, CONSENT_STATUSES):
        report.add("consent.status", "consent.status", f"unknown status {consent.status!r}")
    if consent.retention is not None and not (
        isinstance(consent.retention, str) and _RETENTION_RE.fullmatch(consent.retention)
    ):
        report.add("consent.retention", "consent.retention",
                   f"expected <n>y|<n>m|<n>d, got {consent.retention!r}")
    if consent.reuse_constraints is not None and not _is_str_list(consent.reuse_constraints):
        report.add("consent.reuseConstraints", "consent.reuseConstraints",
                   "must be a list of policy tags")


def _check_compensation(comp: CompensationBlock, report: ValidationReport) -> None:
    if not in_vocab(comp.model, COMPENSATION_MODELS):
        report.add("compensation.model", "compensation.model", f"unknown model {comp.model!r}")
    if comp.amount is not None and (not _is_number(comp.amount) or comp.amount < 0):
        report.add("compensation.amount", "compensation.amount",
                   f"must be a nonnegative number, got {comp.amount!r}")
    if comp.currency is not None and not (
        isinstance(comp.currency, str) and _CURRENCY_RE.fullmatch(comp.currency)
    ):
        report.add("compensation.currency", "compensation.currency",
                   f"expected a 3-letter code, got {comp.currency!r}")
    if comp.model in ("honorarium", "hourly"):
        if not _is_number(comp.amount) or comp.amount <= 0:
            report.add("compensation.amount", "compensation.terms",
                       f"{comp.model} requires amount > 0")
        if not comp.currency:
            report.add("compensation.currency", "compensation.terms",
                       f"{comp.model} requires a currency")


def _check_links(links: LinkSet, report: ValidationReport) -> None:
    for kind, attr in LinkSet._ATTR_FOR_KIND.items():
        for i, target in enumerate(getattr(links, attr)):
            if kind == "evidence":
                if not (is_reference_id(target) or is_uri(target)):
                    report.add(f"links.evidence[{i}]", "links.target",
                               f"not a ledger id or URI: {target!r}")
            elif not is_reference_id(target):
                report.add(f"links.{kind}[{i}]", "links.target",
                           f"not a ledger id: {target!r}")


def _check_nonempty_str(value: Any, path: str, rule: str, report: ValidationReport) -> None:
    if not isinstance(value, str) or not value:
        report.add(path, rule, "must be a nonempty string")


def _check_measurement(m: MeasurementProcedure, report: ValidationReport) -> None:
    path = "test.measurement"
    if not in_vocab(m.runner_kind, RUNNER_KINDS):
        report.add(f"{path}.runnerKind", "measurement.runnerKind",
                   f"unknown runner kind {m.runner_kind!r}")
        return
    if m.runner_kind == "threshold":
        _check_nonempty_str(m.metric_name, f"{path}.metricName", "measurement.metricName", report)
        if m.comparator not in COMPARATORS:
            report.add(f"{path}.comparator", "measurement.comparator",
                       f"expected >= or <=, got {m.comparator!r}")
        if not _is_number(m.bound):
            report.add(f"{path}.bound", "measurement.bound", "must be a finite number")
    elif m.runner_kind == "rubric":
        if not (m.criteria and _is_str_list(m.criteria)):
            report.add(f"{path}.criteria", "measurement.criteria",
                       "must be a nonempty list of strings")
        if not (isinstance(m.scale_max, int) and not isinstance(m.scale_max, bool)
                and m.scale_max >= 1):
            report.add(f"{path}.scaleMax", "measurement.scaleMax", "must be an integer >= 1")
        if m.aggregation != "mean":
            report.add(f"{path}.aggregation", "measurement.aggregation",
                       f"only mean aggregation is defined, got {m.aggregation!r}")
        if not _is_number(m.pass_mean):
            report.add(f"{path}.passMean", "measurement.passMean", "must be a number")
        elif isinstance(m.scale_max, int) and not isinstance(m.scale_max, bool) \
                and not (0 <= m.pass_mean <= m.scale_max):
            report.add(f"{path}.passMean", "measurement.passMean",
                       f"must lie within [0, scaleMax={m.scale_max}]")
        if not (isinstance(m.min_raters, int) and not isinstance(m.min_raters, bool)
                and m.min_raters >= 1):
            report.add(f"{path}.minRaters", "measurement.minRaters", "must be an integer >= 1")


def _check_payload(entry: EntryEnvelope, report: ValidationReport) -> None:
    p = entry.payload
    t = entry.entry_type
    if t is EntryType.CONTRIBUTION:
        if not in_vocab(p.kind, CONTRIBUTION_KINDS):
            report.add("contribution.kind", "contribution.kind", f"unknown kind {p.kind!r}")
        _check_nonempty_str(p.summary, "contribution.summary", "contribution.summary", report)
        if not is_artifact_ref(p.artifact_ref):
            report.add("contribution.artifactRef", "contribution.artifactRef",
                       f"not a hash reference or URI: {p.artifact_ref!r}")
        if p.intended_use is not None and not in_vocab(p.intended_use, INTENDED_USES):
            report.add("contribution.intendedUse", "contribution.intendedUse",
                       f"unknown intended use {p.intended_use!r}")
        if p.representational_metadata is not None:
            tags = entry.consent.scope_tags() if entry.consent else []
            if "identity-markers" not in tags:
                report.add("contribution.representationalMetadata",
                           "contribution.representational-scope",
                           "requires consent scope tag identity-markers")
        if p.recruitment_pathway is not None and not isinstance(p.recruitment_pathway, str):
            report.add("contribution.recruitmentPathway", "contribution.recruitmentPathway",
                       "must be a string")
    elif t is EntryType.CHANGE:
        if not in_vocab(p.change_kind, CHANGE_KINDS):
            report.add("change.changeKind", "change.changeKind",
                       f"unknown change kind {p.change_kind!r}")
        _check_nonempty_str(p.rationale, "change.rationale", "change.rationale", report)
        if not p.changed_artifacts:
            report.add("change.changedArtifacts", "change.changedArtifacts",
                       "must list at least one changed artifact")
        for i, ca in enumerate(p.changed_artifacts):
            if not is_reference_id(ca.artifact_id):
                report.add(f"change.changedArtifacts[{i}].artifactId",
                           "change.artifactId", f"not a ledger id: {ca.artifact_id!r}")
            _check_nonempty_str(ca.version_after, f"change.changedArtifacts[{i}].versionAfter",
                                "change.versionAfter", report)
    elif t is EntryType.ARTIFACT:
        if not is_reference_id(p.artifact_id):
            report.add("artifact.artifactId", "artifact.artifactId",
                       f"not a ledger id: {p.artifact_id!r}")
        if not in_vocab(p.artifact_kind, ARTIFACT_KINDS):
            report.add("artifact.artifactKind", "artifact.artifactKind",
                       f"unknown artifact kind {p.artifact_kind!r}")
        _check_nonempty_str(p.version, "artifact.version", "artifact.version", report)
        if not is_artifact_ref(p.content_ref):
            report.add("artifact.contentRef", "artifact.contentRef",
                       f"not a hash reference or URI: {p.content_ref!r}")
        if p.boundary is not None and not isinstance(p.boundary, str):
            report.add("artifact.boundary", "artifact.boundary", "must be a string")
    elif t is EntryType.TEST:
        _check_nonempty_str(p.topic, "test.topic", "test.topic", report)
        _check_nonempty_str(p.expected_behavior, "test.expectedBehavior",
                            "test.expectedBehavior", report)
        _check_measurement(p.measurement, report)
        for i, ref in enumerate(p.motivated_by):
            if not is_reference_id(ref):
                report.add(f"test.motivatedBy[{i}]", "test.motivatedBy",
                           f"not a ledger id: {ref!r}")
    elif t is EntryType.EVALUATION_RUN:
        if not is_reference_id(p.test_id):
            report.add("run.testId", "run.testId", f"not a ledger id: {p.test_id!r}")
        if not is_reference_id(p.artifact_id):
            report.add("run.artifactId", "run.artifactId", f"not a ledger id: {p.artifact_id!r}")
        _check_nonempty_str(p.version, "run.version", "run.version", report)
        if not in_vocab(p.decision, RUN_DECISIONS):
            report.add("run.decision", "run.decision", f"unknown decision {p.decision!r}")
        if not in_vocab(p.checkpoint, CHECKPOINTS):
            report.add("run.checkpoint", "run.checkpoint",
                       f"unknown checkpoint {p.checkpoint!r}")
        _check_actor(p.evaluator, "run.evaluator", report)
        if p.timestamp is not None and not is_timestamp(p.timestamp):
            report.add("run.timestamp", "run.timestamp",
                       f"not an ISO-8601 UTC timestamp: {p.timestamp!r}")
    elif t is EntryType.VOUCHER:
        _check_nonempty_str(p.capability, "voucher.capability", "voucher.capability", report)
        _check_nonempty_str(p.boundary, "voucher.boundary", "voucher.boundary", report)
        if not in_vocab(p.action, VOUCHER_ACTIONS):
            report.add("voucher.action", "voucher.action", f"unknown action {p.action!r}")
        if p.status not in VOUCHER_STATUSES:
            report.add("voucher.status", "voucher.status", f"unknown status {p.status!r}")
        _check_actor(p.steward, "voucher.steward", report)
        if p.steward.role != "communitySteward":
            report.add("voucher.steward.role", "voucher.steward-role",
                       "vouchers are issued by communityStewards")
        for i, cond in enumerate(p.conditions):
            if not is_reference_id(cond.required_test_id):
                report.add(f"voucher.conditions[{i}].requiredTestId", "voucher.condition-test",
                           f"not a ledger id: {cond.required_test_id!r}")
            if not isinstance(cond.human_in_loop, bool):
                report.add(f"voucher.conditions[{i}].humanInLoop", "voucher.condition-flag",
                           "must be a boolean")
            if not _is_str_list(cond.scope_constraints):
                report.add(f"voucher.conditions[{i}].scopeConstraints",
                           "voucher.condition-scope", "must be a list of tags")
        if p.expiry is not None and not is_timestamp(p.expiry):
            report.add("voucher.expiry", "voucher.expiry",
                       f"not an ISO-8601 UTC timestamp: {p.expiry!r}")
    elif t is EntryType.CREDIT:
        _check_nonempty_str(p.beneficiary, "credit.beneficiary", "credit.beneficiary", report)
        if not _is_number(p.units) or p.units < 0:
            report.add("credit.units", "credit.units",
                       f"must be a nonnegative number, got {p.units!r}")
        ev = p.triggering_event
        if not in_vocab(ev.kind, CREDIT_EVENT_KINDS):
            report.add("credit.triggeringEvent.kind", "credit.event-kind",
                       f"unknown event kind {ev.kind!r}")
        if ev.trigger_id() is None or not is_reference_id(ev.trigger_id()):
            report.add("credit.triggeringEvent", "credit.trigger",
                       "needs an evaluationRunId or changeId ledger id")
        if not is_digest(p.policy_ref):
            report.add("credit.policyRef", "credit.policyRef",
                       f"not a sha256 digest: {p.policy_ref!r}")
    elif t is EntryType.TOMBSTONE:
        if not is_reference_id(p.target_id):
            report.add("tombstone.targetId", "tombstone.targetId",
                       f"not a ledger id: {p.target_id!r}")
        if p.reason not in TOMBSTONE_REASONS:
            report.add("tombstone.reason", "tombstone.reason", f"unknown reason {p.reason!r}")
        _check_actor(p.authorization, "tombstone.authorization", report)
        if p.authorization.role not in ROLES_ALLOWED_TO_REDACT:
            report.add("tombstone.authorization.role", "tombstone.authorization-role",
                       "redaction requires a communitySteward or auditor")
        if not is_digest(p.retained_hash):
            report.add("tombstone.retainedHash", "tombstone.retainedHash",
                       f"not a sha256 digest: {p.retained_hash!r}")


def validate_structure(entry: EntryEnvelope) -> ValidationReport:
    """Single-entry structural validation.

    Collects every violation with a field path and a stable rule id; never
    raises. Cross-entry properties (dangling links, chain integrity, voucher
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
    _check_actor(entry.actor, "actor", report)
    if entry.consent is not None:
        _check_consent(entry.consent, report)
    if entry.compensation is not None:
        _check_compensation(entry.compensation, report)
    _check_links(entry.links, report)
    if entry.entry_type is EntryType.CONTRIBUTION:
        if entry.consent is None:
            report.add("consent", "contribution.consent-required",
                       "contributions must carry a consent block")
        if entry.compensation is None:
            report.add("compensation", "contribution.compensation-required",
                       "contributions must declare compensation (none-declared is explicit)")
    if entry.integrity is not None:
        if not is_digest(entry.integrity.hash):
            report.add("integrity.hash", "integrity.hash",
                       f"not a sha256 digest: {entry.integrity.hash!r}")
        if entry.integrity.prev_hash is not None and not is_digest(entry.integrity.prev_hash):
            report.add("integrity.prevHash", "integrity.prevHash",
                       f"not a sha256 digest: {entry.integrity.prev_hash!r}")
    _check_payload(entry, report)
    return report
