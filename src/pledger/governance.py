"""Capability vouchers, release gates, and participation credits.

Vouchers are steward-issued constraints on a (capability, boundary) pair.
They live as entry lineages: the issuance entry plus revision entries with
ids suffixed `:rev<k>`, each carrying the next status. Gate checks read the
latest revision of every lineage and are pure over a snapshot.

Credits turn measurable ledger events into auditable attribution. Accrual is
deliberately conservative: a quality gate demands the triggering test
actually flipped a suite verdict, a persistence gate demands the test has
been exercised across enough releases, per-beneficiary caps suppress whole
events rather than partially filling them, and creditsFor links make rerun
accrual idempotent.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal
from typing import Any

from .canonical import canonical_json, compute_hash
from .errors import IllegalTransition, InvalidPolicy, UnauthorizedRole, UnknownTest
from .graph import Snapshot
from .harness import detect_regressions, fold_suite
from .model import (
    CREDIT_EVENT_KINDS,
    VOUCHER_TRANSITIONS,
    ActorRef,
    CreditPayload,
    EntryEnvelope,
    EntryType,
    LinkSet,
    TriggeringEvent,
    VoucherPayload,
    _is_number,
    _slug,
    now_stamp,
    parse_timestamp,
)

DEFAULT_ALLOW = "noApplicableVoucher-defaultAllow"


def _in_window(stamp: str, window: tuple[str, str]) -> bool:
    t = parse_timestamp(stamp)
    return parse_timestamp(window[0]) <= t <= parse_timestamp(window[1])


# ---------------------------------------------------------------------------
# voucher lifecycle

def _live_revisions(snapshot: Snapshot, entry_id: str) -> list[EntryEnvelope]:
    return [e for e in snapshot.lineage(entry_id)
            if e.entry_type is EntryType.VOUCHER and e.id not in snapshot.hidden]


def voucher_lineages(snapshot: Snapshot) -> dict[str, list[EntryEnvelope]]:
    """Each voucher lineage's revisions that are not tombstoned, keyed by
    lineage base, in order of each lineage's first such revision."""
    lineages: dict[str, list[EntryEnvelope]] = {}
    for entry in snapshot.by_type[EntryType.VOUCHER]:
        base = snapshot.base_of(entry.id)
        if entry.id not in snapshot.hidden and base not in lineages:
            lineages[base] = _live_revisions(snapshot, entry.id)
    return lineages


def issue_voucher(ledger: Any, payload: Any, *, voucher_id: str | None = None,
                  links: LinkSet | None = None, created_at: str | None = None,
                  signer: Any = None) -> EntryEnvelope:
    """Append a new voucher lineage in status issued.

    The steward must hold the communitySteward role, every condition's
    required test must already be in the ledger, and the initial status must
    be issued; later statuses arrive through transition_voucher.
    """
    if not isinstance(payload, VoucherPayload):
        payload = VoucherPayload.from_doc(payload)
    if payload.steward.role != "communitySteward":
        raise UnauthorizedRole(
            f"vouchers are issued by communitySteward, not {payload.steward.role!r}")
    snapshot = Snapshot.of(ledger)
    for condition in payload.conditions:
        if snapshot.live(condition.required_test_id, EntryType.TEST) is None:
            raise UnknownTest(
                f"voucher condition requires unknown test {condition.required_test_id!r}")
    if payload.status != "issued":
        raise IllegalTransition(
            f"a new voucher lineage starts as issued, got {payload.status!r}")
    if voucher_id is None:
        voucher_id = snapshot.next_id(f"pl:voucher:{_slug(payload.capability)}:")
    entry = EntryEnvelope(
        id=voucher_id,
        entry_type=EntryType.VOUCHER,
        created_at=created_at or now_stamp(),
        actor=payload.steward,
        payload=payload,
        links=links or LinkSet(),
    )
    return ledger.append(entry, signer=signer)


def transition_voucher(ledger: Any, voucher_id: str, new_status: str, *,
                       links: LinkSet | None = None, expiry: str | None = None,
                       created_at: str | None = None,
                       signer: Any = None) -> EntryEnvelope:
    """Append the next revision of a voucher lineage with a new status.

    `voucher_id` may be the issuance id or any revision id. Legality and the
    revision counter follow every revision, tombstoned ones included, as the
    store's own check does; the payload is copied from the latest revision
    that is not tombstoned, so redacted content is never republished.
    Illegal lifecycle moves raise IllegalTransition.
    """
    snapshot = Snapshot.of(ledger)
    base = snapshot.base_of(voucher_id)
    live = _live_revisions(snapshot, voucher_id)
    if not live:
        raise IllegalTransition(f"no voucher lineage {base!r} in ledger")
    current = [e for e in snapshot.lineage(voucher_id)
               if e.entry_type is EntryType.VOUCHER][-1].payload.status
    if new_status not in VOUCHER_TRANSITIONS.get(current, frozenset()):
        raise IllegalTransition(f"voucher {base}: {current} -> {new_status} is not legal")
    payload = copy.deepcopy(live[-1].payload)
    payload.status = new_status
    if expiry is not None:
        payload.expiry = expiry
    entry = EntryEnvelope(
        id=snapshot.next_revision_id(voucher_id),
        entry_type=EntryType.VOUCHER,
        created_at=created_at or now_stamp(),
        actor=payload.steward,
        payload=payload,
        links=links or LinkSet(),
    )
    return ledger.append(entry, signer=signer)


# ---------------------------------------------------------------------------
# gate checks

@dataclass
class GateReason:
    voucher_id: str | None
    reason_kind: str

    def to_doc(self) -> dict:
        return {"voucherId": self.voucher_id, "reasonKind": self.reason_kind}


@dataclass
class GateDecision:
    allowed: bool
    reasons: list[GateReason] = field(default_factory=list)
    evaluated_at: str = ""
    expired_vouchers: list[str] = field(default_factory=list)

    def to_doc(self) -> dict:
        return {
            "allowed": self.allowed,
            "reasons": [r.to_doc() for r in self.reasons],
            "evaluatedAt": self.evaluated_at,
            "expiredVouchers": list(self.expired_vouchers),
        }

    def describe(self) -> str:
        verdict = "allowed" if self.allowed else "denied"
        why = ", ".join(
            f"{r.reason_kind}({r.voucher_id})" if r.voucher_id else r.reason_kind
            for r in self.reasons)
        return f"{verdict}: {why}" if why else verdict


def _latest_run_decision(snapshot: Snapshot, test_id: str, artifact_id: str,
                         version: str) -> str | None:
    decision = None
    for run in snapshot.test_runs.get(test_id, ()):
        p = run.payload
        if p.artifact_id == artifact_id and p.version == version \
                and run.id not in snapshot.hidden:
            decision = p.decision
    return decision


def gate_check(source: Any, capability: str, artifact_id: str, version: str,
               boundary: str, now: str) -> GateDecision:
    """Decide whether a capability may activate inside a boundary.

    Only vouchers whose latest revision is active apply. An active pause
    voucher on the (capability, boundary) pair denies outright; an active
    condition voucher demands that each required test's latest run on the
    gated (or pinned) version passed, with fail/missing reported as
    conditionUnmet and inconclusive as inconclusiveTest. Vouchers past their
    expiry are skipped and reported separately. When nothing applies the gate
    allows by default and says so.
    """
    snapshot = Snapshot.of(source)
    decision = GateDecision(allowed=True, evaluated_at=now)
    now_dt = parse_timestamp(now)
    applicable = 0
    for lineage in voucher_lineages(snapshot).values():
        latest = lineage[-1]
        p = latest.payload
        if p.status != "active" or p.capability != capability or p.boundary != boundary:
            continue
        if p.expiry is not None and now_dt > parse_timestamp(p.expiry):
            decision.expired_vouchers.append(latest.id)
            continue
        applicable += 1
        if p.action == "pause":
            decision.allowed = False
            decision.reasons.append(GateReason(latest.id, "pausedByVoucher"))
        elif p.action == "condition":
            for condition in p.conditions:
                pinned = condition.must_pass_on_version or version
                run = _latest_run_decision(snapshot, condition.required_test_id,
                                           artifact_id, pinned)
                if run == "pass":
                    continue
                decision.allowed = False
                kind = "inconclusiveTest" if run == "inconclusive" else "conditionUnmet"
                decision.reasons.append(GateReason(latest.id, kind))
        # action=authorize applies without blocking
    if applicable == 0:
        decision.reasons.append(GateReason(None, DEFAULT_ALLOW))
    return decision


# ---------------------------------------------------------------------------
# credit policy

@dataclass
class CreditPolicy:
    units_per_event: dict[str, int | float] = field(default_factory=dict)
    cap_per_beneficiary_per_period: int | float = 0
    period_days: int = 365
    quality_gate: bool = True
    persistence_gate_releases: int = 0
    extensions: dict = field(default_factory=dict)

    _KEYS = ("unitsPerEvent", "capPerBeneficiaryPerPeriod", "periodDays",
             "qualityGate", "persistenceGateReleases")

    @classmethod
    def from_doc(cls, doc: Any) -> "CreditPolicy":
        if not isinstance(doc, dict):
            raise InvalidPolicy("policy must be a document")
        units = doc.get("unitsPerEvent", {})
        if not isinstance(units, dict):
            raise InvalidPolicy("unitsPerEvent must be a map")
        policy = cls(
            units_per_event=dict(units),
            cap_per_beneficiary_per_period=doc.get("capPerBeneficiaryPerPeriod", 0),
            period_days=doc.get("periodDays", 365),
            quality_gate=doc.get("qualityGate", True),
            persistence_gate_releases=doc.get("persistenceGateReleases", 0),
            extensions={k: v for k, v in doc.items() if k not in cls._KEYS},
        )
        policy.validate()
        return policy

    def to_doc(self) -> dict:
        doc = {
            "unitsPerEvent": dict(self.units_per_event),
            "capPerBeneficiaryPerPeriod": self.cap_per_beneficiary_per_period,
            "periodDays": self.period_days,
            "qualityGate": self.quality_gate,
            "persistenceGateReleases": self.persistence_gate_releases,
        }
        doc.update(self.extensions)
        return doc

    def validate(self) -> None:
        def _units(value: Any) -> bool:
            return _is_number(value) and math.isfinite(value) and value >= 0

        for kind, units in self.units_per_event.items():
            if kind not in CREDIT_EVENT_KINDS:
                raise InvalidPolicy(f"unknown event kind {kind!r} in unitsPerEvent")
            if not _units(units):
                raise InvalidPolicy(f"units for {kind} must be a nonnegative number")
        if not _units(self.cap_per_beneficiary_per_period):
            raise InvalidPolicy("capPerBeneficiaryPerPeriod must be a nonnegative number")
        if self.units_per_event and self.cap_per_beneficiary_per_period < max(
                self.units_per_event.values()):
            raise InvalidPolicy("cap must cover the largest single event unit")
        if not isinstance(self.period_days, int) or isinstance(self.period_days, bool) \
                or self.period_days < 1:
            raise InvalidPolicy("periodDays must be a positive integer")
        if not isinstance(self.quality_gate, bool):
            raise InvalidPolicy("qualityGate must be a boolean")
        if not isinstance(self.persistence_gate_releases, int) \
                or isinstance(self.persistence_gate_releases, bool) \
                or self.persistence_gate_releases < 0:
            raise InvalidPolicy("persistenceGateReleases must be a nonnegative integer")

    def ref(self) -> str:
        return compute_hash(canonical_json(self.to_doc()).encode("utf-8"))

    def units_for(self, kind: str) -> Decimal:
        return Decimal(str(self.units_per_event.get(kind, 0)))

    @property
    def cap(self) -> Decimal:
        return Decimal(str(self.cap_per_beneficiary_per_period))


# ---------------------------------------------------------------------------
# credit accrual

@dataclass
class _Event:
    kind: str
    anchor_index: int
    anchor_id: str
    anchor_created_at: str
    test_id: str | None
    beneficiaries: list[str]
    run_key: tuple[str, str, str] | None  # (artifactId, version, checkpoint)


@dataclass
class SuppressedEvent:
    kind: str
    trigger_id: str
    reason: str
    beneficiary: str | None = None

    def to_doc(self) -> dict:
        doc = {"eventKind": self.kind, "triggerId": self.trigger_id,
               "reason": self.reason}
        if self.beneficiary is not None:
            doc["beneficiary"] = self.beneficiary
        return doc


@dataclass
class AccrualReport:
    window: tuple[str, str]
    policy_ref: str
    considered: int = 0
    credits: list[EntryEnvelope] = field(default_factory=list)
    suppressed: list[SuppressedEvent] = field(default_factory=list)

    def total_units(self) -> Decimal:
        return sum((Decimal(str(c.payload.units)) for c in self.credits), Decimal(0))

    def to_doc(self) -> dict:
        return {
            "window": {"start": self.window[0], "end": self.window[1]},
            "policyRef": self.policy_ref,
            "consideredEvents": self.considered,
            "creditIds": [c.id for c in self.credits],
            "totalUnits": float(self.total_units()),
            "suppressed": [s.to_doc() for s in self.suppressed],
        }


def _beneficiaries_of(snapshot: Snapshot, contribution_ids: list[str]) -> list[str]:
    """Distinct steward orgs or pseudonyms behind a contribution list,
    first-seen order."""
    names: list[str] = []
    for cid in contribution_ids:
        entry = snapshot.live(cid, EntryType.CONTRIBUTION)
        if entry is None:
            continue
        name = entry.actor.display_name()
        if name and name not in names:
            names.append(name)
    return names


def _suite_flip(snapshot: Snapshot, test_id: str, run_key: tuple[str, str, str]) -> bool:
    """True when removing the test's runs from its suite changes the suite
    verdict. The suite is every run sharing (artifactId, version, checkpoint)."""
    with_test: list[str] = []
    without: list[str] = []
    for run in snapshot.suite_runs.get(run_key, ()):
        if run.id in snapshot.hidden:
            continue
        with_test.append(run.payload.decision)
        if run.payload.test_id != test_id:
            without.append(run.payload.decision)
    return fold_suite(with_test) != fold_suite(without)


def _releases_exercised(snapshot: Snapshot, test_id: str) -> int:
    """Distinct (artifactId, version) pairs the test has a live run on."""
    return len({(r.payload.artifact_id, r.payload.version)
                for r in snapshot.test_runs.get(test_id, ()) if r.id not in snapshot.hidden})


def _candidate_events(snapshot: Snapshot, window: tuple[str, str]) -> list[_Event]:
    hidden = snapshot.hidden
    events: list[_Event] = []

    for regression in detect_regressions(snapshot):
        failing = snapshot.by_id[regression.failing_run_id]
        if not _in_window(failing.created_at, window):
            continue
        test = snapshot.live(regression.test_id, EntryType.TEST)
        motivated = test.payload.motivated_by if test else []
        events.append(_Event(
            kind="regressionDetected",
            anchor_index=snapshot.position[failing.id],
            anchor_id=failing.id,
            anchor_created_at=failing.created_at,
            test_id=regression.test_id,
            beneficiaries=_beneficiaries_of(snapshot, motivated),
            run_key=(failing.payload.artifact_id, failing.payload.version,
                     failing.payload.checkpoint),
        ))

    for change in snapshot.by_type[EntryType.CHANGE]:
        if (change.id in hidden or not change.links.remediates
                or not _in_window(change.created_at, window)):
            continue
        cited = [snapshot.live(cid, EntryType.CONTRIBUTION)
                 for cid in change.links.influenced_by]
        incidents = [c.id for c in cited
                     if c is not None and c.payload.kind == "incidentReport"]
        if incidents:
            events.append(_Event(
                kind="remediationCompleted",
                anchor_index=snapshot.position[change.id],
                anchor_id=change.id,
                anchor_created_at=change.created_at,
                test_id=None,
                beneficiaries=_beneficiaries_of(snapshot, incidents),
                run_key=None,
            ))

    for run in snapshot.by_type[EntryType.EVALUATION_RUN]:
        if (run.id in hidden or run.payload.checkpoint != "scheduledAudit"
                or not _in_window(run.created_at, window)):
            continue
        test = snapshot.live(run.payload.test_id, EntryType.TEST)
        if test is not None and test.payload.motivated_by:
            events.append(_Event(
                kind="scheduledRunDependency",
                anchor_index=snapshot.position[run.id],
                anchor_id=run.id,
                anchor_created_at=run.created_at,
                test_id=test.id,
                beneficiaries=_beneficiaries_of(snapshot, test.payload.motivated_by),
                run_key=(run.payload.artifact_id, run.payload.version,
                         run.payload.checkpoint),
            ))

    events.sort(key=lambda e: (e.anchor_index, e.kind))
    return events


def _credit_id(kind: str, anchor_id: str, beneficiary: str) -> str:
    return f"pl:credit:{kind.lower()}:{_slug(anchor_id)}:{_slug(beneficiary)}"


def compute_accrual(entries: Any, policy: CreditPolicy,
                    window: tuple[str, str]) -> tuple[list[dict], AccrualReport]:
    """Pure accrual core: decide which credits a window earns.

    Returns (credit payload plans, report). Plans carry everything needed to
    mint entries: id, beneficiary, kind, anchor id, units, createdAt. The
    report's credits list is filled by the caller that actually appends.
    """
    policy.validate()
    snapshot = Snapshot.of(entries)
    policy_ref = policy.ref()
    report = AccrualReport(window=window, policy_ref=policy_ref)
    events = _candidate_events(snapshot, window)
    report.considered = len(events)

    already: set[tuple[str, str]] = set()
    credited: dict[str, Decimal] = {}
    for entry in snapshot.by_type[EntryType.CREDIT]:
        if entry.id not in snapshot.hidden:
            for target in entry.links.credits_for:
                already.add((target, entry.payload.beneficiary))
            if _in_window(entry.created_at, window):
                beneficiary = entry.payload.beneficiary
                credited[beneficiary] = credited.get(beneficiary, Decimal(0)) \
                    + Decimal(str(entry.payload.units))

    plans: list[dict] = []
    planned_ids: set[str] = set()
    for event in events:
        units = policy.units_for(event.kind)
        if units == 0:
            report.suppressed.append(SuppressedEvent(event.kind, event.anchor_id,
                                                     "zeroUnits"))
            continue
        if not event.beneficiaries:
            report.suppressed.append(SuppressedEvent(event.kind, event.anchor_id,
                                                     "noBeneficiary"))
            continue
        if policy.quality_gate and event.test_id is not None and event.run_key is not None:
            if not _suite_flip(snapshot, event.test_id, event.run_key):
                report.suppressed.append(SuppressedEvent(event.kind, event.anchor_id,
                                                         "qualityGate"))
                continue
        if policy.persistence_gate_releases > 0 and event.test_id is not None:
            exercised = _releases_exercised(snapshot, event.test_id)
            if exercised < policy.persistence_gate_releases:
                report.suppressed.append(SuppressedEvent(event.kind, event.anchor_id,
                                                         "persistenceGate"))
                continue
        share = (units / len(event.beneficiaries)).quantize(
            Decimal("0.01"), rounding=ROUND_HALF_EVEN)
        if share == 0:
            report.suppressed.append(SuppressedEvent(event.kind, event.anchor_id,
                                                     "zeroUnits"))
            continue
        for beneficiary in event.beneficiaries:
            if (event.anchor_id, beneficiary) in already:
                report.suppressed.append(SuppressedEvent(
                    event.kind, event.anchor_id, "alreadyCredited", beneficiary))
                continue
            total = credited.get(beneficiary, Decimal(0))
            if total + share > policy.cap:
                report.suppressed.append(SuppressedEvent(
                    event.kind, event.anchor_id, "capReached", beneficiary))
                continue
            credit_id = _credit_id(event.kind, event.anchor_id, beneficiary)
            if credit_id in planned_ids:
                report.suppressed.append(SuppressedEvent(
                    event.kind, event.anchor_id, "alreadyCredited", beneficiary))
                continue
            credited[beneficiary] = total + share
            planned_ids.add(credit_id)
            plans.append({
                "id": credit_id,
                "kind": event.kind,
                "anchorId": event.anchor_id,
                "beneficiary": beneficiary,
                "units": share,
                "policyRef": policy_ref,
            })
    return plans, report


def accrue_credits(ledger: Any, policy: CreditPolicy | dict,
                   window: tuple[str, str], *, actor: ActorRef | None = None,
                   created_at: str | None = None,
                   signer: Any = None) -> tuple[list[EntryEnvelope], AccrualReport]:
    """Append one Credit entry per qualifying event share in the window.

    Credits are stamped at the window end by default so reruns are
    deterministic; idempotence comes from creditsFor links, so accruing the
    same window twice appends nothing new.
    """
    if not isinstance(policy, CreditPolicy):
        policy = CreditPolicy.from_doc(policy)
    plans, report = compute_accrual(Snapshot.of(ledger), policy, window)
    recorder = actor or ActorRef(role="maintainer", pseudonym="credit-accrual")
    stamp = created_at or window[1]
    minted: list[EntryEnvelope] = []
    for plan in plans:
        trigger_kwargs = (
            {"change_id": plan["anchorId"]} if plan["kind"] == "remediationCompleted"
            else {"evaluation_run_id": plan["anchorId"]})
        payload = CreditPayload(
            beneficiary=plan["beneficiary"],
            triggering_event=TriggeringEvent(kind=plan["kind"], **trigger_kwargs),
            units=float(plan["units"]),
            policy_ref=plan["policyRef"],
        )
        entry = EntryEnvelope(
            id=plan["id"],
            entry_type=EntryType.CREDIT,
            created_at=stamp,
            actor=recorder,
            payload=payload,
            links=LinkSet(credits_for=[plan["anchorId"]]),
        )
        minted.append(ledger.append(entry, signer=signer))
    report.credits = minted
    return minted, report


# ---------------------------------------------------------------------------
# credit statements

@dataclass
class CreditStatement:
    beneficiary: str
    window: tuple[str, str]
    lines: list[dict] = field(default_factory=list)
    total_units: Decimal = Decimal(0)
    policy_refs: list[str] = field(default_factory=list)

    def to_doc(self) -> dict:
        return {
            "beneficiary": self.beneficiary,
            "window": {"start": self.window[0], "end": self.window[1]},
            "events": list(self.lines),
            "totalUnits": float(self.total_units),
            "policyRefs": list(self.policy_refs),
        }


def credit_report(source: Any, beneficiary: str,
                  window: tuple[str, str]) -> CreditStatement:
    """Aggregate a beneficiary's Credit entries inside a window. Every line
    cites the triggering run or change id."""
    snapshot = Snapshot.of(source)
    statement = CreditStatement(beneficiary=beneficiary, window=window)
    for entry in snapshot.by_type[EntryType.CREDIT]:
        if (entry.id in snapshot.hidden or entry.payload.beneficiary != beneficiary
                or not _in_window(entry.created_at, window)):
            continue
        trigger = entry.payload.triggering_event
        statement.lines.append({
            "creditId": entry.id,
            "eventKind": trigger.kind,
            "triggerId": trigger.trigger_id(),
            "units": entry.payload.units,
            "policyRef": entry.payload.policy_ref,
        })
        statement.total_units += Decimal(str(entry.payload.units))
        if entry.payload.policy_ref not in statement.policy_refs:
            statement.policy_refs.append(entry.payload.policy_ref)
    return statement
