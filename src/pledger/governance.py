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

Only accrual reads run verdicts through `harness`, so its helpers import it
and a gate check or credit report never loads that module.
"""

from __future__ import annotations

from datetime import datetime
from decimal import ROUND_HALF_EVEN, Decimal
from typing import Any

from .canonical import canonical_json, compute_hash
from .errors import IllegalTransition, InvalidPolicy, UnauthorizedRole, UnknownTest
from .graph import Snapshot
from .model import (
    ALWAYS,
    CREDIT_EVENT_KINDS,
    _BOOLEAN,
    _COUNT,
    _UNITS,
    ActorRef,
    CreditPayload,
    EntryEnvelope,
    EntryType,
    LinkSet,
    TriggeringEvent,
    VoucherPayload,
    _slug,
    codec,
    decode_checked,
    now_stamp,
    parse_timestamp,
    record,
    replace,
    wire,
)
from .store import LedgerFile

DEFAULT_ALLOW = "noApplicableVoucher-defaultAllow"


def _bounds(window: tuple[str, str]) -> tuple[datetime, datetime]:
    """A window's two bounds, parsed once; InvalidTimestamp for a malformed one."""
    return parse_timestamp(window[0]), parse_timestamp(window[1])


def _in_window(stamp: str, bounds: tuple[datetime, datetime]) -> bool:
    return bounds[0] <= parse_timestamp(stamp) <= bounds[1]


# ---------------------------------------------------------------------------
# voucher lifecycle

def voucher_lineages(snapshot: Snapshot) -> dict[str, list[EntryEnvelope]]:
    """Each voucher lineage's revisions that are not tombstoned, keyed by
    lineage base, in order of each lineage's first such revision."""
    lineages: dict[str, list[EntryEnvelope]] = {}
    for entry in snapshot.live_of(EntryType.VOUCHER):
        lineages.setdefault(snapshot.base_of(entry.id), []).append(entry)
    return lineages


def voucher_entry(payload: VoucherPayload, voucher_id: str, *,
                  links: LinkSet | None = None, created_at: str | None = None) -> EntryEnvelope:
    """The entry that issues or revises a voucher lineage; UnauthorizedRole
    unless the steward holds the communitySteward role."""
    if payload.steward.role != "communitySteward":
        raise UnauthorizedRole(
            f"vouchers are issued by communitySteward, not {payload.steward.role!r}")
    return EntryEnvelope(
        id=voucher_id,
        entry_type=EntryType.VOUCHER,
        created_at=created_at or now_stamp(),
        actor=payload.steward,
        payload=payload,
        links=links or LinkSet(),
    )


def issue_voucher(ledger: LedgerFile, payload: VoucherPayload, *, voucher_id: str | None = None,
                  links: LinkSet | None = None, created_at: str | None = None) -> EntryEnvelope:
    """Append a new voucher lineage in status issued.

    The entry is `voucher_entry`'s, and every condition's required test must
    already be in the ledger. The status must be issued: the append runs
    `Snapshot.check_voucher`, the one lifecycle rule. Later statuses arrive
    through transition_voucher.
    """
    snapshot = ledger.snapshot
    for condition in payload.conditions:
        if snapshot.live(condition.required_test_id, EntryType.TEST) is None:
            raise UnknownTest(
                f"voucher condition requires unknown test {condition.required_test_id!r}")
    if voucher_id is None:
        voucher_id = snapshot.next_id(f"pl:voucher:{_slug(payload.capability)}:")
    return ledger.append(voucher_entry(payload, voucher_id, links=links, created_at=created_at))


def transition_voucher(ledger: LedgerFile, voucher_id: str, new_status: str, *,
                       links: LinkSet | None = None, expiry: str | None = None,
                       created_at: str | None = None) -> EntryEnvelope:
    """Append the next revision of a voucher lineage with a new status.

    `voucher_id` may be the issuance id or any revision id. The entry is
    `voucher_entry`'s, its payload the latest revision that is not
    tombstoned, with the new status (and `expiry`, when given) replaced, so
    redacted content is never republished. Legality is the append's own check,
    `Snapshot.check_voucher`, run after its structure, id and timestamp
    checks; it and the revision counter follow every revision, tombstoned
    ones included. Illegal lifecycle moves raise IllegalTransition.
    """
    snapshot = ledger.snapshot
    live = voucher_lineages(snapshot).get(snapshot.base_of(voucher_id))
    if not live:
        raise IllegalTransition(
            f"no voucher lineage {snapshot.base_of(voucher_id)!r} in ledger")
    latest = live[-1].payload
    payload = replace(latest, status=new_status,
                      expiry=latest.expiry if expiry is None else expiry)
    return ledger.append(voucher_entry(payload, snapshot.next_revision_id(voucher_id),
                                       links=links, created_at=created_at))


# ---------------------------------------------------------------------------
# gate checks

@record
class GateReason:
    voucher_id: str | None
    reason_kind: str

    def to_doc(self) -> dict:
        return {"voucherId": self.voucher_id, "reasonKind": self.reason_kind}


@record
class GateDecision:
    allowed: bool
    reasons: list[GateReason] = list
    evaluated_at: str = ""
    expired_vouchers: list[str] = list

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
    for run in snapshot.unhidden(snapshot.test_runs.get(test_id, ())):
        p = run.payload
        if p.artifact_id == artifact_id and p.version == version:
            decision = p.decision
    return decision


def gate_check(snapshot: Snapshot, capability: str, artifact_id: str, version: str,
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

@codec("policy")
class CreditPolicy:
    """A credit policy; its canonical hash is each minted Credit's policyRef.
    `from_doc` checks what it decodes: InvalidPolicy names the first fault."""

    units_per_event: dict[str, int | float] = wire("unitsPerEvent", dict, codec=dict, omit=ALWAYS)
    cap_per_beneficiary_per_period: int | float = wire(
        "capPerBeneficiaryPerPeriod", 0, check=(_UNITS[0], "must be a nonnegative number"))
    period_days: int = wire("periodDays", 365, check=(_COUNT[0], "must be a positive integer"))
    quality_gate: bool = wire("qualityGate", True, check=_BOOLEAN)
    persistence_gate_releases: int = wire("persistenceGateReleases", 0, check=(
        lambda value: isinstance(value, int) and not isinstance(value, bool) and value >= 0,
        "must be a nonnegative integer"))
    extensions: dict = dict

    def cross_check(self, where: str, report: Any) -> None:
        """Units are keyed by event kind, and the cap covers the largest."""
        units, cap, valid = self.units_per_event, self.cap_per_beneficiary_per_period, _UNITS[0]
        for kind, value in units.items():
            if kind not in CREDIT_EVENT_KINDS:
                report.add(where, "policy.event-kind",
                           f"unknown event kind {kind!r} in unitsPerEvent")
            elif not valid(value):
                report.add(where, "policy.units", f"units for {kind} must be a nonnegative number")
        if units and all(map(valid, (cap, *units.values()))) and cap < max(units.values()):
            report.add(where, "policy.cap", "cap must cover the largest single event unit")

    def validate(self) -> None:
        """Raise InvalidPolicy for the first rule this policy breaks."""
        decode_checked(None, self, InvalidPolicy)

    def ref(self) -> str:
        return compute_hash(canonical_json(self.to_doc()).encode("utf-8"))

    def units_for(self, kind: str) -> Decimal:
        return Decimal(str(self.units_per_event.get(kind, 0)))

    @property
    def cap(self) -> Decimal:
        return Decimal(str(self.cap_per_beneficiary_per_period))


_decode_policy = CreditPolicy.from_doc
CreditPolicy.from_doc = staticmethod(lambda doc: decode_checked(_decode_policy, doc, InvalidPolicy))


# ---------------------------------------------------------------------------
# credit accrual

@record
class _Event:
    kind: str
    anchor: EntryEnvelope  # the run or change that earns the credit
    test_id: str | None
    beneficiaries: list[str]


@record
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


@record
class AccrualReport:
    window: tuple[str, str]
    policy_ref: str
    considered: int = 0
    credits: list[EntryEnvelope] = list
    suppressed: list[SuppressedEvent] = list

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


def _suite_flip(snapshot: Snapshot, test_id: str, anchor: EntryEnvelope) -> bool:
    """True when removing the test's runs from the anchor run's suite changes
    the suite verdict. The suite is every run sharing the anchor's
    (artifactId, version, checkpoint)."""
    from .harness import fold_suite

    p = anchor.payload
    with_test: list[str] = []
    without: list[str] = []
    for run in snapshot.unhidden(snapshot.suite_runs.get(
            (p.artifact_id, p.version, p.checkpoint), ())):
        with_test.append(run.payload.decision)
        if run.payload.test_id != test_id:
            without.append(run.payload.decision)
    return fold_suite(with_test) != fold_suite(without)


def _releases_exercised(snapshot: Snapshot, test_id: str) -> int:
    """Distinct (artifactId, version) pairs the test has a live run on."""
    return len({(r.payload.artifact_id, r.payload.version)
                for r in snapshot.unhidden(snapshot.test_runs.get(test_id, ()))})


def _candidate_events(snapshot: Snapshot, bounds: tuple[datetime, datetime]) -> list[_Event]:
    from .harness import detect_regressions

    events: list[_Event] = []

    for regression in detect_regressions(snapshot):
        failing = snapshot.by_id[regression.failing_run_id]
        if not _in_window(failing.created_at, bounds):
            continue
        test = snapshot.live(regression.test_id, EntryType.TEST)
        motivated = test.payload.motivated_by if test else []
        events.append(_Event(kind="regressionDetected", anchor=failing,
                             test_id=regression.test_id,
                             beneficiaries=_beneficiaries_of(snapshot, motivated)))

    for change in snapshot.live_of(EntryType.CHANGE):
        if not change.links.remediates or not _in_window(change.created_at, bounds):
            continue
        cited = [snapshot.live(cid, EntryType.CONTRIBUTION)
                 for cid in change.links.influenced_by]
        incidents = [c.id for c in cited
                     if c is not None and c.payload.kind == "incidentReport"]
        if incidents:
            events.append(_Event(kind="remediationCompleted", anchor=change, test_id=None,
                                 beneficiaries=_beneficiaries_of(snapshot, incidents)))

    for run in snapshot.live_of(EntryType.EVALUATION_RUN):
        if run.payload.checkpoint != "scheduledAudit" or not _in_window(run.created_at, bounds):
            continue
        test = snapshot.live(run.payload.test_id, EntryType.TEST)
        if test is not None and test.payload.motivated_by:
            events.append(_Event(
                kind="scheduledRunDependency", anchor=run, test_id=test.id,
                beneficiaries=_beneficiaries_of(snapshot, test.payload.motivated_by)))

    events.sort(key=lambda e: (snapshot.position[e.anchor.id], e.kind))
    return events


def _credit_id(kind: str, anchor_id: str, beneficiary: str) -> str:
    return f"pl:credit:{kind.lower()}:{_slug(anchor_id)}:{_slug(beneficiary)}"


def compute_accrual(snapshot: Snapshot, policy: CreditPolicy,
                    window: tuple[str, str]) -> tuple[list[EntryEnvelope], AccrualReport]:
    """Pure accrual core: decide which credits a window earns.

    Returns (credits, report). The credits are the unsealed Credit entries
    that `accrue_credits` appends, in that order: each is recorded by the
    maintainer pseudonym `credit-accrual`, stamped with the window end and
    linked by creditsFor to the run or change that earns it. The report's
    credits list is filled by the caller that actually appends.
    """
    policy.validate()
    bounds = _bounds(window)
    policy_ref = policy.ref()
    report = AccrualReport(window=window, policy_ref=policy_ref)
    events = _candidate_events(snapshot, bounds)
    report.considered = len(events)

    already: set[tuple[str, str]] = set()
    credited: dict[str, Decimal] = {}
    for entry in snapshot.live_of(EntryType.CREDIT):
        for target in entry.links.credits_for:
            already.add((target, entry.payload.beneficiary))
        if _in_window(entry.created_at, bounds):
            beneficiary = entry.payload.beneficiary
            credited[beneficiary] = credited.get(beneficiary, Decimal(0)) \
                + Decimal(str(entry.payload.units))

    recorder = ActorRef(role="maintainer", pseudonym="credit-accrual")
    credits: list[EntryEnvelope] = []
    planned_ids: set[str] = set()
    for event in events:
        kind, anchor_id = event.kind, event.anchor.id
        units = policy.units_for(kind)
        if units == 0:
            report.suppressed.append(SuppressedEvent(kind, anchor_id, "zeroUnits"))
            continue
        if not event.beneficiaries:
            report.suppressed.append(SuppressedEvent(kind, anchor_id, "noBeneficiary"))
            continue
        # Only run-anchored events name a test; a change anchors none.
        if policy.quality_gate and event.test_id is not None:
            if not _suite_flip(snapshot, event.test_id, event.anchor):
                report.suppressed.append(SuppressedEvent(kind, anchor_id, "qualityGate"))
                continue
        if policy.persistence_gate_releases > 0 and event.test_id is not None:
            exercised = _releases_exercised(snapshot, event.test_id)
            if exercised < policy.persistence_gate_releases:
                report.suppressed.append(SuppressedEvent(kind, anchor_id, "persistenceGate"))
                continue
        share = (units / len(event.beneficiaries)).quantize(
            Decimal("0.01"), rounding=ROUND_HALF_EVEN)
        if share == 0:
            report.suppressed.append(SuppressedEvent(kind, anchor_id, "zeroUnits"))
            continue
        for beneficiary in event.beneficiaries:
            credit_id = _credit_id(kind, anchor_id, beneficiary)
            # Credited before, or its id planned above or held by the ledger
            # (tombstoned or not).
            if (anchor_id, beneficiary) in already or credit_id in planned_ids \
                    or credit_id in snapshot.position:
                report.suppressed.append(SuppressedEvent(
                    kind, anchor_id, "alreadyCredited", beneficiary))
                continue
            total = credited.get(beneficiary, Decimal(0))
            if total + share > policy.cap:
                report.suppressed.append(SuppressedEvent(
                    kind, anchor_id, "capReached", beneficiary))
                continue
            credited[beneficiary] = total + share
            planned_ids.add(credit_id)
            trigger = (TriggeringEvent(kind=kind, change_id=anchor_id)
                       if kind == "remediationCompleted"
                       else TriggeringEvent(kind=kind, evaluation_run_id=anchor_id))
            credits.append(EntryEnvelope(
                id=credit_id,
                entry_type=EntryType.CREDIT,
                created_at=window[1],
                actor=recorder,
                payload=CreditPayload(beneficiary=beneficiary, triggering_event=trigger,
                                      units=float(share), policy_ref=policy_ref),
                links=LinkSet(credits_for=[anchor_id]),
            ))
    return credits, report


def accrue_credits(ledger: LedgerFile, policy: CreditPolicy, window: tuple[str, str], *,
                   created_at: str | None = None) -> tuple[list[EntryEnvelope], AccrualReport]:
    """Append the Credit entries that `compute_accrual` plans, in order.

    Each is stamped `created_at` when given, else the window end, so reruns
    are deterministic; idempotence comes from creditsFor links, so accruing
    the same window twice appends nothing new. A malformed `created_at` is
    refused (InvalidTimestamp) even when nothing would be minted. Returns the
    minted entries and the report, whose credits list they fill.
    """
    credits, report = compute_accrual(ledger.snapshot, policy, window)
    if created_at is not None:
        parse_timestamp(created_at)
        credits = [replace(credit, created_at=created_at) for credit in credits]
    minted = [ledger.append(credit) for credit in credits]
    report.credits = minted
    return minted, report


# ---------------------------------------------------------------------------
# credit statements

@record
class CreditStatement:
    beneficiary: str
    window: tuple[str, str]
    lines: list[dict] = list
    total_units: Decimal = Decimal(0)
    policy_refs: list[str] = list

    def to_doc(self) -> dict:
        return {
            "beneficiary": self.beneficiary,
            "window": {"start": self.window[0], "end": self.window[1]},
            "events": list(self.lines),
            "totalUnits": float(self.total_units),
            "policyRefs": list(self.policy_refs),
        }


def credit_report(snapshot: Snapshot, beneficiary: str,
                  window: tuple[str, str]) -> CreditStatement:
    """Aggregate a beneficiary's Credit entries inside a window. Every line
    cites the triggering run or change id."""
    bounds = _bounds(window)
    statement = CreditStatement(beneficiary=beneficiary, window=window)
    for entry in snapshot.live_of(EntryType.CREDIT):
        if entry.payload.beneficiary != beneficiary or not _in_window(entry.created_at, bounds):
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
