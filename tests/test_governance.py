"""Voucher lifecycle, gate checks, and credit accrual."""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from decimal import Decimal

import pytest
from conftest import (
    make_artifact,
    make_change,
    make_contribution,
    make_run,
    make_test,
    make_tombstone,
    stamp,
)

from pledger.errors import (
    IllegalTransition,
    InvalidPolicy,
    InvalidTimestamp,
    UnknownTest,
    ValidationFailed,
)
from pledger.fixtures import (
    ARTIFACT_ID,
    BOUNDARY,
    CAPABILITY,
    POLICY_DOC,
    STEWARD_ORG,
    VOUCHER_ID,
    WINDOW,
)
from pledger.governance import (
    DEFAULT_ALLOW,
    CreditPolicy,
    accrue_credits,
    compute_accrual,
    credit_report,
    gate_check,
    issue_voucher,
    transition_voucher,
)
from pledger.model import (
    VOUCHER_TRANSITIONS,
    ActorRef,
    CreditPayload,
    EntryEnvelope,
    EntryType,
    LinkSet,
    TriggeringEvent,
    VoucherCondition,
    VoucherPayload,
    replace,
)
from pledger.graph import Snapshot
from pledger.integrity import seal
from pledger.store import LedgerFile, read_entries

STEWARD = ActorRef(role="communitySteward", steward_org="pl:org:gen-steward")

GEN_ARTIFACT = "pl:artifact:gen:sys"
LIFECYCLE_CREDIT_ID = ("pl:credit:regressiondetected:"
                       "pl-run-accessibility-v2-001:pl-org-wedesign-steward")


def voucher_payload(action: str = "pause", *, status: str = "issued",
                    capability: str = "image-generation",
                    boundary: str = "workshop", conditions=(),
                    expiry: str | None = None,
                    steward: ActorRef = STEWARD) -> VoucherPayload:
    return VoucherPayload(
        capability=capability,
        boundary=boundary,
        action=action,
        steward=steward,
        status=status,
        conditions=list(conditions),
        expiry=expiry,
    )


def make_policy(**overrides) -> CreditPolicy:
    doc = {k: (dict(v) if isinstance(v, dict) else v) for k, v in POLICY_DOC.items()}
    doc.update(overrides)
    return CreditPolicy.from_doc(doc)


def units(credit: EntryEnvelope) -> Decimal:
    return Decimal(str(credit.payload.units))


def regression_history(*, orgs=("pl:org:o1",), n_tests: int = 1,
                       motivated=True, checkpoint: str = "postIncident",
                       with_v3_run: bool = False) -> list[EntryEnvelope]:
    """Contributions, then per test its own artifact with a v1 pass and a
    v2 fail, so each suite flips on exactly its own test."""
    entries: list[EntryEnvelope] = []
    contrib_ids: list[str] = []
    for i, org in enumerate(orgs, start=1):
        contrib = make_contribution(i, steward_org=org)
        contrib_ids.append(contrib.id)
        entries.append(contrib)
    for j in range(n_tests):
        artifact = f"pl:artifact:gen:a{j}"
        versions = ("v1", "v2", "v3") if with_v3_run else ("v1", "v2")
        entries.append(make_test(j, motivated_by=contrib_ids if motivated else []))
        for v, version in enumerate(versions):
            entries.append(make_artifact(3 * j + v, artifact_id=artifact,
                                         version=version))
        entries.append(make_run(3 * j, test_id=f"pl:test:gen:{j:03d}",
                                version="v1", artifact_id=artifact,
                                decision="pass", checkpoint=checkpoint,
                                minute=400))
        entries.append(make_run(3 * j + 1, test_id=f"pl:test:gen:{j:03d}",
                                version="v2", artifact_id=artifact,
                                decision="fail", checkpoint=checkpoint,
                                minute=400))
        if with_v3_run:
            entries.append(make_run(3 * j + 2, test_id=f"pl:test:gen:{j:03d}",
                                    version="v3", artifact_id=artifact,
                                    decision="pass", checkpoint=checkpoint,
                                    minute=400))
    return entries


# ---------------------------------------------------------------------------
# voucher lifecycle


def test_issue_voucher_appends_issued_lineage(tmp_path):
    with LedgerFile(tmp_path / "v.pledger") as ledger:
        entry = issue_voucher(
            ledger, voucher_payload(),
            voucher_id="pl:voucher:gen:001",
            links=LinkSet(evidence=["pl:run:gen:000"]),
            created_at=stamp(700),
        )
        assert entry.id == "pl:voucher:gen:001"
        assert entry.entry_type is EntryType.VOUCHER
        assert entry.payload.status == "issued"
        assert entry.actor == STEWARD
        assert entry.created_at == stamp(700)
        assert len(ledger) == 1


def test_issue_voucher_accepts_raw_documents(tmp_path):
    doc = {
        "capability": "image-generation",
        "boundary": "workshop",
        "action": "authorize",
        "steward": {"role": "communitySteward", "stewardOrg": "pl:org:gen-steward"},
        "status": "issued",
    }
    with LedgerFile(tmp_path / "v.pledger") as ledger:
        entry = issue_voucher(ledger, VoucherPayload.from_doc(doc),
                              voucher_id="pl:voucher:gen:001")
        assert entry.payload.action == "authorize"
        assert entry.payload.steward.steward_org == "pl:org:gen-steward"


def test_issue_voucher_requires_community_steward(tmp_path):
    payload = voucher_payload(steward=ActorRef(role="maintainer", pseudonym="M1"))
    with LedgerFile(tmp_path / "v.pledger") as ledger:
        with pytest.raises(ValidationFailed, match=r"\[voucher.steward-role\]"):
            issue_voucher(ledger, payload)
        assert len(ledger) == 0


def test_issue_voucher_condition_requires_known_test(tmp_path):
    conditions = [VoucherCondition(required_test_id="pl:test:gen:000")]
    with LedgerFile(tmp_path / "v.pledger") as ledger:
        with pytest.raises(UnknownTest, match="pl:test:gen:000"):
            issue_voucher(ledger, voucher_payload("condition", conditions=conditions))
        ledger.append(make_test(0))
        entry = issue_voucher(ledger, voucher_payload("condition", conditions=conditions))
        assert entry.payload.conditions[0].required_test_id == "pl:test:gen:000"


def test_issue_voucher_rejects_prestarted_status(tmp_path):
    with LedgerFile(tmp_path / "v.pledger") as ledger:
        with pytest.raises(IllegalTransition, match="issued"):
            issue_voucher(ledger, voucher_payload(status="active"))


def test_issue_voucher_assigns_sequential_ids(tmp_path):
    with LedgerFile(tmp_path / "v.pledger") as ledger:
        first = issue_voucher(ledger, voucher_payload())
        second = issue_voucher(ledger, voucher_payload())
        assert first.id == "pl:voucher:image-generation:001"
        assert second.id == "pl:voucher:image-generation:002"


def test_transition_voucher_walks_revisions(tmp_path):
    with LedgerFile(tmp_path / "v.pledger") as ledger:
        issue_voucher(ledger, voucher_payload(), voucher_id="pl:voucher:gen:001",
                      created_at=stamp(700))
        active = transition_voucher(ledger, "pl:voucher:gen:001", "active",
                                    created_at=stamp(710), expiry=stamp(9000))
        assert active.id == "pl:voucher:gen:001:rev1"
        assert active.payload.status == "active"
        assert active.payload.capability == "image-generation"
        assert active.payload.expiry == stamp(9000)
        assert active.created_at == stamp(710)

        satisfied = transition_voucher(ledger, active.id, "satisfied",
                                       links=LinkSet(evidence=["pl:run:gen:001"]))
        assert satisfied.id == "pl:voucher:gen:001:rev2"
        assert satisfied.payload.expiry == stamp(9000)
        assert satisfied.links.evidence == ["pl:run:gen:001"]


def test_transition_voucher_unknown_lineage(tmp_path):
    with LedgerFile(tmp_path / "v.pledger") as ledger:
        with pytest.raises(IllegalTransition, match="no voucher lineage"):
            transition_voucher(ledger, "pl:voucher:gen:404", "active")


def test_transition_after_the_latest_revision_is_tombstoned(tmp_path):
    # Legality and numbering read every revision, as the store does; the
    # payload comes from the latest revision that is not tombstoned.
    auditor = ActorRef(role="auditor", pseudonym="AUD1")
    with LedgerFile(tmp_path / "v.pledger") as ledger:
        issue_voucher(ledger, voucher_payload(), voucher_id="pl:voucher:gen:001",
                      created_at=stamp(700))
        active = transition_voucher(ledger, "pl:voucher:gen:001", "active",
                                    created_at=stamp(710), expiry=stamp(9000))
        ledger.redact(active.id, "safetyRedaction", auditor, created_at=stamp(720))
        before = len(ledger)
        with pytest.raises(IllegalTransition, match="active -> active"):
            transition_voucher(ledger, "pl:voucher:gen:001", "active")
        assert len(ledger) == before

        satisfied = transition_voucher(ledger, "pl:voucher:gen:001", "satisfied",
                                       created_at=stamp(730))
        assert satisfied.id == "pl:voucher:gen:001:rev2"
        assert satisfied.payload.status == "satisfied"
        assert satisfied.payload.expiry is None  # not copied from the redacted rev1
    assert gate_check(Snapshot(read_entries(tmp_path / "v.pledger")), "image-generation",
                      GEN_ARTIFACT, "v1", "workshop", stamp(800)).allowed


def test_transition_legality_matches_lifecycle_table(tmp_path):
    assert VOUCHER_TRANSITIONS == {
        "issued": frozenset({"active"}),
        "active": frozenset({"satisfied", "revoked", "expired"}),
        "satisfied": frozenset(),
        "revoked": frozenset(),
        "expired": frozenset(),
    }
    walk_to = {
        "issued": (),
        "active": ("active",),
        "satisfied": ("active", "satisfied"),
        "revoked": ("active", "revoked"),
        "expired": ("active", "expired"),
    }
    statuses = ("issued", "active", "satisfied", "revoked", "expired")
    for current, walk in walk_to.items():
        for attempted in statuses:
            path = tmp_path / f"{current}-{attempted}.pledger"
            with LedgerFile(path) as ledger:
                issue_voucher(ledger, voucher_payload(),
                              voucher_id="pl:voucher:gen:001")
                for step in walk:
                    transition_voucher(ledger, "pl:voucher:gen:001", step)
                before = len(ledger)
                legal = attempted in VOUCHER_TRANSITIONS.get(current, frozenset())
                if legal:
                    moved = transition_voucher(ledger, "pl:voucher:gen:001", attempted)
                    assert moved.payload.status == attempted
                    assert len(ledger) == before + 1
                else:
                    with pytest.raises(IllegalTransition):
                        transition_voucher(ledger, "pl:voucher:gen:001", attempted)
                    assert len(ledger) == before


@pytest.mark.parametrize("walk,attempted,message", [
    ((), "satisfied", "issued -> satisfied"),
    ((), "issued", "issued -> issued"),
    (("active", "revoked"), "expired", "revoked -> expired"),
], ids=["issued-to-satisfied", "second-issued", "out-of-terminal"])
def test_transition_voucher_and_a_raw_append_refuse_alike(tmp_path, walk, attempted,
                                                          message):
    # One lifecycle rule: the helper and the store refuse the same revision
    # with the same text.
    with LedgerFile(tmp_path / "v.pledger") as ledger:
        issue_voucher(ledger, voucher_payload(), voucher_id="pl:voucher:gen:001")
        for step in walk:
            transition_voucher(ledger, "pl:voucher:gen:001", step)
        latest = ledger.snapshot.entries[-1]
        revision = EntryEnvelope(
            id=ledger.snapshot.next_revision_id("pl:voucher:gen:001"),
            entry_type=EntryType.VOUCHER,
            created_at=latest.created_at,
            actor=STEWARD,
            payload=replace(latest.payload, status=attempted),
        )
        with pytest.raises(IllegalTransition) as helper:
            transition_voucher(ledger, "pl:voucher:gen:001", attempted,
                               created_at=latest.created_at)
        with pytest.raises(IllegalTransition) as raw:
            ledger.append(revision)
        assert str(helper.value) == str(raw.value) == \
            f"voucher pl:voucher:gen:001: {message} is not legal"
        assert len(ledger) == 1 + len(walk)


def test_a_transition_checks_the_voucher_lifecycle_once(tmp_path, monkeypatch):
    # The append runs the lifecycle rule; the helper does not run it again.
    checked: list[str] = []
    check = Snapshot.check_voucher

    def counting(snapshot, voucher_id, payload):
        checked.append(voucher_id)
        return check(snapshot, voucher_id, payload)

    with LedgerFile(tmp_path / "v.pledger") as ledger:
        issue_voucher(ledger, voucher_payload(), voucher_id="pl:voucher:gen:001")
        monkeypatch.setattr(Snapshot, "check_voucher", counting)
        transition_voucher(ledger, "pl:voucher:gen:001", "active")
    assert checked == ["pl:voucher:gen:001:rev1"]


def test_issue_voucher_and_a_raw_append_refuse_a_first_status_alike(tmp_path):
    # One first-status rule: a new lineage that does not start as issued is
    # refused by the store's check, whichever way the voucher arrives.
    with LedgerFile(tmp_path / "v.pledger") as ledger:
        payload = voucher_payload(status="active")
        with pytest.raises(IllegalTransition) as helper:
            issue_voucher(ledger, payload, voucher_id="pl:voucher:gen:001",
                          created_at=stamp(1))
        with pytest.raises(IllegalTransition) as raw:
            ledger.append(EntryEnvelope(id="pl:voucher:gen:001",
                                        entry_type=EntryType.VOUCHER,
                                        created_at=stamp(1), actor=STEWARD,
                                        payload=payload))
        assert str(helper.value) == str(raw.value) == \
            "voucher lineage pl:voucher:gen:001 must start as issued, got 'active'"
        assert len(ledger) == 0


@pytest.mark.parametrize("field,value", [
    ("capability", "other"), ("boundary", "elsewhere"), ("action", "authorize")])
def test_a_voucher_revision_keeps_its_lineage_capability_boundary_and_action(
        tmp_path, field, value):
    # One revision rule: a revision moves the status, never what the voucher
    # governs, whichever way the revision arrives.
    with LedgerFile(tmp_path / "v.pledger") as ledger:
        issued = issue_voucher(ledger, voucher_payload(), voucher_id="pl:voucher:gen:001",
                               created_at=stamp(1))
        revision = "pl:voucher:gen:001:rev1"
        changed = replace(voucher_payload(status="active"), **{field: value})
        with pytest.raises(IllegalTransition) as helper:
            issue_voucher(ledger, changed, voucher_id=revision, created_at=stamp(2))
        with pytest.raises(IllegalTransition) as raw:
            ledger.append(EntryEnvelope(id=revision, entry_type=EntryType.VOUCHER,
                                        created_at=stamp(2), actor=STEWARD, payload=changed))
        kept = getattr(issued.payload, field)
        assert str(helper.value) == str(raw.value) == \
            f"voucher pl:voucher:gen:001: a revision keeps {field} {kept!r}, got {value!r}"
        assert len(ledger) == 1
        # the same revision with the lineage's own fields appends
        issue_voucher(ledger, voucher_payload(status="active"), voucher_id=revision,
                      created_at=stamp(2))
        assert len(ledger) == 2


# ---------------------------------------------------------------------------
# gate checks


def activated_voucher(ledger, action: str = "pause", *, conditions=(),
                      expiry: str | None = None) -> str:
    """Issue and activate one voucher, returning the active revision id."""
    issued = issue_voucher(ledger, voucher_payload(action, conditions=conditions,
                                                   expiry=expiry),
                           created_at=stamp(600))
    return transition_voucher(ledger, issued.id, "active",
                              created_at=stamp(601)).id


def test_gate_defaults_to_allow_without_vouchers():
    decision = gate_check(Snapshot([make_test(0)]), "image-generation", GEN_ARTIFACT,
                          "v1", "workshop", stamp(100))
    assert decision.allowed is True
    assert decision.evaluated_at == stamp(100)
    assert [(r.voucher_id, r.reason_kind) for r in decision.reasons] == [
        (None, DEFAULT_ALLOW)]
    assert decision.describe() == "allowed: noApplicableVoucher-defaultAllow"
    assert decision.to_doc() == {
        "allowed": True,
        "reasons": [{"voucherId": None, "reasonKind": DEFAULT_ALLOW}],
        "evaluatedAt": stamp(100),
        "expiredVouchers": [],
    }


def test_gate_pause_denies_while_voucher_active(mid_lifecycle):
    _path, ids, entries = mid_lifecycle
    decision = gate_check(Snapshot(entries), CAPABILITY, ARTIFACT_ID, "v2", BOUNDARY,
                          "2025-06-21T00:00:00Z")
    assert decision.allowed is False
    assert [(r.voucher_id, r.reason_kind) for r in decision.reasons] == [
        (ids["voucher_active"], "pausedByVoucher")]
    assert decision.describe() == (
        f"denied: pausedByVoucher({VOUCHER_ID}:rev1)")


def test_gate_allows_again_after_satisfaction(lifecycle):
    _path, _ids, entries = lifecycle
    decision = gate_check(Snapshot(entries), CAPABILITY, ARTIFACT_ID, "v3", BOUNDARY,
                          "2025-06-27T00:00:00Z")
    assert decision.allowed is True
    assert [r.reason_kind for r in decision.reasons] == [DEFAULT_ALLOW]


def test_gate_ignores_vouchers_still_issued(tmp_path):
    with LedgerFile(tmp_path / "v.pledger") as ledger:
        issue_voucher(ledger, voucher_payload())
        decision = gate_check(ledger.snapshot, "image-generation", GEN_ARTIFACT,
                              "v1", "workshop", stamp(100))
    assert decision.allowed is True
    assert [r.reason_kind for r in decision.reasons] == [DEFAULT_ALLOW]


def test_gate_condition_follows_latest_run(tmp_path):
    with LedgerFile(tmp_path / "v.pledger") as ledger:
        ledger.append(make_test(0))
        conditions = [VoucherCondition(required_test_id="pl:test:gen:000")]
        activated_voucher(ledger, "condition", conditions=conditions)

        def outcome():
            return gate_check(ledger.snapshot, "image-generation", GEN_ARTIFACT,
                              "v1", "workshop", stamp(600))

        missing = outcome()
        assert missing.allowed is False
        assert [r.reason_kind for r in missing.reasons] == ["conditionUnmet"]

        ledger.append(make_run(0, test_id="pl:test:gen:000", decision="pass"))
        assert outcome().allowed is True
        assert outcome().reasons == []
        assert outcome().describe() == "allowed"

        ledger.append(make_run(1, test_id="pl:test:gen:000", decision="fail"))
        assert [r.reason_kind for r in outcome().reasons] == ["conditionUnmet"]

        ledger.append(make_run(2, test_id="pl:test:gen:000", decision="pass"))
        assert outcome().allowed is True

        ledger.append(make_run(3, test_id="pl:test:gen:000",
                               decision="inconclusive"))
        final = outcome()
        assert final.allowed is False
        assert [r.reason_kind for r in final.reasons] == ["inconclusiveTest"]


def test_gate_names_the_required_test_of_each_unmet_condition(tmp_path):
    with LedgerFile(tmp_path / "v.pledger") as ledger:
        ledger.append(make_test(0))
        ledger.append(make_test(1))
        ledger.append(make_run(0, test_id="pl:test:gen:001", decision="inconclusive"))
        conditions = [VoucherCondition(required_test_id=f"pl:test:gen:00{i}") for i in (0, 1)]
        voucher = activated_voucher(ledger, "condition", conditions=conditions)
        decision = gate_check(ledger.snapshot, "image-generation", GEN_ARTIFACT,
                              "v1", "workshop", stamp(600))
    unmet, inconclusive = decision.reasons
    assert unmet != inconclusive
    assert decision.to_doc()["reasons"] == [
        {"voucherId": voucher, "reasonKind": "conditionUnmet", "testId": "pl:test:gen:000"},
        {"voucherId": voucher, "reasonKind": "inconclusiveTest", "testId": "pl:test:gen:001"}]
    assert decision.describe() == (f"denied: conditionUnmet({voucher}: pl:test:gen:000), "
                                   f"inconclusiveTest({voucher}: pl:test:gen:001)")


def test_gate_condition_pins_version(tmp_path):
    with LedgerFile(tmp_path / "v.pledger") as ledger:
        ledger.append(make_test(0))
        pinned = [VoucherCondition(required_test_id="pl:test:gen:000",
                                   must_pass_on_version="v1")]
        activated_voucher(ledger, "condition", conditions=pinned)
        ledger.append(make_run(0, test_id="pl:test:gen:000", version="v1",
                               decision="pass"))
        decision = gate_check(ledger.snapshot, "image-generation", GEN_ARTIFACT,
                              "v7", "workshop", stamp(600))
        assert decision.allowed is True

        unpinned = [VoucherCondition(required_test_id="pl:test:gen:000")]
        activated_voucher(ledger, "condition", conditions=unpinned)
        decision = gate_check(ledger.snapshot, "image-generation", GEN_ARTIFACT,
                              "v7", "workshop", stamp(600))
        assert decision.allowed is False
        assert [r.reason_kind for r in decision.reasons] == ["conditionUnmet"]


def test_gate_skips_expired_vouchers(tmp_path):
    with LedgerFile(tmp_path / "v.pledger") as ledger:
        rev = activated_voucher(ledger, "pause", expiry=stamp(1000))
        expired = gate_check(ledger.snapshot, "image-generation", GEN_ARTIFACT,
                             "v1", "workshop", stamp(2000))
        assert expired.allowed is True
        assert expired.expired_vouchers == [rev]
        assert [r.reason_kind for r in expired.reasons] == [DEFAULT_ALLOW]

        at_boundary = gate_check(ledger.snapshot, "image-generation", GEN_ARTIFACT,
                                 "v1", "workshop", stamp(1000))
        assert at_boundary.allowed is False
        assert at_boundary.expired_vouchers == []


def test_gate_matches_capability_and_boundary(tmp_path):
    with LedgerFile(tmp_path / "v.pledger") as ledger:
        activated_voucher(ledger, "pause")
        wrong_boundary = gate_check(ledger.snapshot, "image-generation", GEN_ARTIFACT,
                                    "v1", "plaza", stamp(600))
        wrong_capability = gate_check(ledger.snapshot, "summarization", GEN_ARTIFACT,
                                      "v1", "workshop", stamp(600))
        matching = gate_check(ledger.snapshot, "image-generation", GEN_ARTIFACT,
                              "v1", "workshop", stamp(600))
    assert wrong_boundary.allowed is True
    assert wrong_capability.allowed is True
    assert [r.reason_kind for r in wrong_boundary.reasons] == [DEFAULT_ALLOW]
    assert matching.allowed is False


def test_gate_authorize_applies_without_blocking(tmp_path):
    with LedgerFile(tmp_path / "v.pledger") as ledger:
        activated_voucher(ledger, "authorize")
        decision = gate_check(ledger.snapshot, "image-generation", GEN_ARTIFACT,
                              "v1", "workshop", stamp(600))
    assert decision.allowed is True
    assert decision.reasons == []
    assert decision.describe() == "allowed"


def test_gate_accumulates_reasons_across_vouchers(tmp_path):
    with LedgerFile(tmp_path / "v.pledger") as ledger:
        ledger.append(make_test(0))
        activated_voucher(ledger, "pause")
        activated_voucher(
            ledger, "condition",
            conditions=[VoucherCondition(required_test_id="pl:test:gen:000")])
        decision = gate_check(ledger.snapshot, "image-generation", GEN_ARTIFACT,
                              "v1", "workshop", stamp(600))
    assert decision.allowed is False
    assert sorted(r.reason_kind for r in decision.reasons) == [
        "conditionUnmet", "pausedByVoucher"]
    assert "denied: " in decision.describe()


def test_gate_check_is_pure(tmp_path):
    path = tmp_path / "v.pledger"
    with LedgerFile(path) as ledger:
        activated_voucher(ledger, "pause")
    before = path.read_bytes()
    entries = read_entries(path)
    with LedgerFile(path) as ledger:
        first = gate_check(ledger.snapshot, "image-generation", GEN_ARTIFACT,
                           "v1", "workshop", stamp(600))
        second = gate_check(ledger.snapshot, "image-generation", GEN_ARTIFACT,
                            "v1", "workshop", stamp(600))
    from_list = gate_check(Snapshot(entries), "image-generation", GEN_ARTIFACT,
                           "v1", "workshop", stamp(600))
    assert first.to_doc() == second.to_doc() == from_list.to_doc()
    assert path.read_bytes() == before


# ---------------------------------------------------------------------------
# credit policy


def test_policy_roundtrip_and_ref():
    policy = CreditPolicy.from_doc(POLICY_DOC)
    assert policy.to_doc() == POLICY_DOC
    rendered = json.dumps(POLICY_DOC, sort_keys=True, separators=(",", ":"),
                          ensure_ascii=False)
    assert policy.ref() == "sha256:" + hashlib.sha256(rendered.encode()).hexdigest()
    assert policy.ref() == \
        "sha256:3ba3f80e39d433938f721c5d0fbc7b36229cee8021633c9049f2b76a96f949da"


def test_policy_defaults_and_extensions():
    policy = CreditPolicy.from_doc({})
    assert policy.units_per_event == {}
    assert policy.cap_per_beneficiary_per_period == 0
    assert policy.period_days == 365
    assert policy.quality_gate is True
    assert policy.persistence_gate_releases == 0

    noted = CreditPolicy.from_doc({"note": "pilot"})
    assert noted.extensions == {"note": "pilot"}
    assert noted.to_doc()["note"] == "pilot"
    assert noted.ref() != policy.ref()
    # Frozen digests: a change to the policy codec must keep these bytes.
    assert policy.ref() == \
        "sha256:8e34a5e37cdde4819f460a1495aac898d991476054ad397898716b471f9b723e"
    assert noted.ref() == \
        "sha256:9237b185743506f0ce8909f1ff2810c6066b4fa0fe081ac272ab7e39186e1eda"


@pytest.mark.parametrize("doc", [
    "not-a-document",
    {"unitsPerEvent": 5},
    {"unitsPerEvent": {"somethingElse": 1}},
    {"unitsPerEvent": {"regressionDetected": -1}},
    {"unitsPerEvent": {"regressionDetected": True}},
    {"unitsPerEvent": {"regressionDetected": float("nan")}},
    {"unitsPerEvent": {"regressionDetected": 10}, "capPerBeneficiaryPerPeriod": 5},
    {"capPerBeneficiaryPerPeriod": -1},
    {"periodDays": 0},
    {"periodDays": True},
    {"periodDays": "365"},
    {"qualityGate": "yes"},
    {"persistenceGateReleases": -1},
    {"persistenceGateReleases": True},
])
def test_policy_validation_rejects(doc):
    with pytest.raises(InvalidPolicy):
        CreditPolicy.from_doc(doc)


def test_policy_units_and_cap_are_exact_decimals():
    policy = make_policy(unitsPerEvent={"regressionDetected": 0.1,
                                        "remediationCompleted": 0})
    assert policy.units_for("regressionDetected") == Decimal("0.1")
    assert policy.units_for("remediationCompleted") == Decimal("0")
    assert policy.units_for("scheduledRunDependency") == Decimal("0")
    assert policy.cap == Decimal("100")


# ---------------------------------------------------------------------------
# accrual on the lifecycle fixture


def test_lifecycle_mints_one_regression_credit(lifecycle):
    _path, ids, entries = lifecycle
    credits = [e for e in entries if e.entry_type is EntryType.CREDIT]
    assert [c.id for c in credits] == [LIFECYCLE_CREDIT_ID]
    credit = credits[0]
    assert credit.payload.beneficiary == STEWARD_ORG
    assert credit.payload.units == 10.0
    assert credit.payload.policy_ref == CreditPolicy.from_doc(POLICY_DOC).ref()
    assert credit.payload.triggering_event.kind == "regressionDetected"
    assert credit.payload.triggering_event.evaluation_run_id == ids["run_v2"]
    assert credit.payload.triggering_event.trigger_id() == ids["run_v2"]
    assert credit.links.credits_for == [ids["run_v2"]]
    assert credit.created_at == WINDOW[1]


def test_lifecycle_accrual_event_census(lifecycle):
    _path, ids, entries = lifecycle
    plans, report = compute_accrual(Snapshot(entries), CreditPolicy.from_doc(POLICY_DOC),
                                    WINDOW)
    assert plans == []
    assert report.considered == 2
    assert [(s.kind, s.reason, s.beneficiary) for s in report.suppressed] == [
        ("regressionDetected", "alreadyCredited", STEWARD_ORG),
        ("scheduledRunDependency", "zeroUnits", None),
    ]
    assert all(s.trigger_id == ids["run_v2"] for s in report.suppressed)
    assert report.policy_ref == CreditPolicy.from_doc(POLICY_DOC).ref()


def test_accrue_rerun_is_idempotent(lifecycle, tmp_path):
    source, _ids, _entries = lifecycle
    path = tmp_path / "copy.pledger"
    shutil.copy(source, path)
    with LedgerFile(path) as ledger:
        before = len(ledger)
        minted, report = accrue_credits(ledger, CreditPolicy.from_doc(POLICY_DOC), WINDOW)
        assert minted == []
        assert len(ledger) == before
    assert report.total_units() == Decimal(0)
    assert report.to_doc()["creditIds"] == []
    assert "alreadyCredited" in {s.reason for s in report.suppressed}


def test_mid_lifecycle_accrues_same_credit(mid_lifecycle, tmp_path):
    source, _ids, _entries = mid_lifecycle
    path = tmp_path / "copy.pledger"
    shutil.copy(source, path)
    with LedgerFile(path) as ledger:
        minted, report = accrue_credits(ledger, CreditPolicy.from_doc(POLICY_DOC), WINDOW)
        assert [m.id for m in minted] == [LIFECYCLE_CREDIT_ID]
        assert minted[0].payload.units == 10.0
        assert report.considered == 2
        assert len(ledger) == 11


# ---------------------------------------------------------------------------
# accrual gates and suppressions


def test_quality_gate_requires_suite_flip():
    entries = regression_history()
    noisy = entries + [make_run(9, test_id="pl:test:gen:009", version="v2",
                                artifact_id="pl:artifact:gen:a0",
                                decision="fail", checkpoint="postIncident")]
    policy = make_policy()

    plans, report = compute_accrual(Snapshot(entries), policy, WINDOW)
    assert [p.payload.triggering_event.kind for p in plans] == ["regressionDetected"]

    plans, report = compute_accrual(Snapshot(noisy), policy, WINDOW)
    assert plans == []
    assert [s.reason for s in report.suppressed] == ["qualityGate"]

    relaxed = make_policy(qualityGate=False)
    plans, _report = compute_accrual(Snapshot(noisy), relaxed, WINDOW)
    assert [p.payload.beneficiary for p in plans] == ["pl:org:o1"]


def test_persistence_gate_counts_exercised_releases():
    policy = make_policy(persistenceGateReleases=3)

    plans, report = compute_accrual(Snapshot(regression_history()), policy, WINDOW)
    assert plans == []
    assert [s.reason for s in report.suppressed] == ["persistenceGate"]

    plans, report = compute_accrual(Snapshot(regression_history(with_v3_run=True)),
                                    policy, WINDOW)
    assert [p.payload.triggering_event.kind for p in plans] == ["regressionDetected"]
    assert report.suppressed == []


def test_zero_unit_events_are_suppressed():
    entries = regression_history()
    plans, report = compute_accrual(Snapshot(entries), make_policy(
        unitsPerEvent={"regressionDetected": 0}), WINDOW)
    assert plans == []
    assert [s.reason for s in report.suppressed] == ["zeroUnits"]

    rounded, report = compute_accrual(Snapshot(entries), make_policy(
        unitsPerEvent={"regressionDetected": 0.004}), WINDOW)
    assert rounded == []
    assert [s.reason for s in report.suppressed] == ["zeroUnits"]


def test_missing_beneficiaries_are_suppressed():
    unmotivated = regression_history(motivated=False)
    plans, report = compute_accrual(Snapshot(unmotivated), make_policy(), WINDOW)
    assert plans == []
    assert [s.reason for s in report.suppressed] == ["noBeneficiary"]

    entries = regression_history()
    dangling = [e for e in entries if e.entry_type is not EntryType.CONTRIBUTION]
    plans, report = compute_accrual(Snapshot(dangling), make_policy(), WINDOW)
    assert [s.reason for s in report.suppressed] == ["noBeneficiary"]

    redacted = entries + [make_tombstone("pl:contrib:gen:0001")]
    plans, report = compute_accrual(Snapshot(redacted), make_policy(), WINDOW)
    assert [s.reason for s in report.suppressed] == ["noBeneficiary"]


def test_beneficiary_falls_back_to_pseudonym():
    entries = regression_history(orgs=(None,))
    plans, _report = compute_accrual(Snapshot(entries), make_policy(), WINDOW)
    assert [p.payload.beneficiary for p in plans] == ["P1"]
    assert plans[0].id == "pl:credit:regressiondetected:pl-run-gen-001:p1"


def test_shares_split_with_bankers_rounding():
    entries = regression_history(orgs=("pl:org:o1", "pl:org:o2"))

    plans, _ = compute_accrual(Snapshot(entries), make_policy(
        unitsPerEvent={"regressionDetected": 0.05}), WINDOW)
    assert [(p.payload.beneficiary, units(p)) for p in plans] == [
        ("pl:org:o1", Decimal("0.02")), ("pl:org:o2", Decimal("0.02"))]

    plans, _ = compute_accrual(Snapshot(entries), make_policy(
        unitsPerEvent={"regressionDetected": 0.15}), WINDOW)
    assert [units(p) for p in plans] == [Decimal("0.08"), Decimal("0.08")]

    three = regression_history(orgs=("pl:org:o1", "pl:org:o2", "pl:org:o3"))
    plans, _ = compute_accrual(Snapshot(three), make_policy(), WINDOW)
    assert [units(p) for p in plans] == [Decimal("3.33")] * 3


def test_slug_collisions_never_double_mint():
    entries = regression_history(orgs=("pl:org:O1", "pl:org:o1"))
    plans, report = compute_accrual(Snapshot(entries), make_policy(), WINDOW)
    assert [p.payload.beneficiary for p in plans] == ["pl:org:O1"]
    assert [(s.reason, s.beneficiary) for s in report.suppressed] == [
        ("alreadyCredited", "pl:org:o1")]


def test_cap_suppresses_whole_events():
    entries = regression_history(n_tests=20)
    plans, report = compute_accrual(Snapshot(entries), make_policy(), WINDOW)
    assert len(plans) == 10
    assert sum(map(units, plans)) == Decimal("100")
    capped = [s for s in report.suppressed if s.reason == "capReached"]
    assert len(capped) == 10
    assert {s.beneficiary for s in capped} == {"pl:org:o1"}
    assert report.considered == 20
    failing_runs = [e.id for e in entries
                    if e.entry_type is EntryType.EVALUATION_RUN
                    and e.payload.decision == "fail"]
    assert [p.payload.triggering_event.trigger_id() for p in plans] == failing_runs[:10]


def test_prior_window_credits_count_toward_cap():
    entries = regression_history()
    prior = EntryEnvelope(
        id="pl:credit:regressiondetected:earlier:pl-org-o1",
        entry_type=EntryType.CREDIT,
        created_at=stamp(50),
        actor=ActorRef(role="maintainer", pseudonym="credit-accrual"),
        payload=CreditPayload(
            beneficiary="pl:org:o1",
            triggering_event=TriggeringEvent(
                kind="regressionDetected", evaluation_run_id="pl:run:gen:900"),
            units=95,
            policy_ref="sha256:" + "0" * 64,
        ),
        links=LinkSet(credits_for=["pl:run:gen:900"]),
    )
    plans, report = compute_accrual(Snapshot(entries + [prior]), make_policy(), WINDOW)
    assert plans == []
    assert [(s.reason, s.beneficiary) for s in report.suppressed] == [
        ("capReached", "pl:org:o1")]

    outside = EntryEnvelope(
        id=prior.id, entry_type=EntryType.CREDIT,
        created_at="2025-04-01T00:00:00Z", actor=prior.actor,
        payload=prior.payload, links=prior.links)
    plans, _report = compute_accrual(Snapshot(entries + [outside]), make_policy(), WINDOW)
    assert len(plans) == 1


def test_a_held_credit_id_is_already_credited_before_the_cap_is_read():
    # The ledger holds the id the failing run's credit would take, under a
    # credit that also fills the cap: the id decides, so the reason is
    # alreadyCredited, not capReached.
    entries = regression_history()
    held = EntryEnvelope(
        id="pl:credit:regressiondetected:pl-run-gen-001:pl-org-o1",
        entry_type=EntryType.CREDIT,
        created_at=stamp(50),
        actor=ActorRef(role="maintainer", pseudonym="credit-accrual"),
        payload=CreditPayload(
            beneficiary="pl:org:o1",
            triggering_event=TriggeringEvent(
                kind="regressionDetected", evaluation_run_id="pl:run:gen:900"),
            units=100,
            policy_ref="sha256:" + "0" * 64,
        ),
        links=LinkSet(credits_for=["pl:run:gen:900"]),
    )
    plans, report = compute_accrual(Snapshot(entries + [held]), make_policy(), WINDOW)
    assert plans == []
    assert [(s.reason, s.trigger_id, s.beneficiary) for s in report.suppressed] == [
        ("alreadyCredited", "pl:run:gen:001", "pl:org:o1")]


@pytest.mark.parametrize("window", [("garbage", WINDOW[1]), (WINDOW[0], "garbage")])
def test_a_malformed_window_bound_is_refused_on_an_empty_ledger(window):
    # Each bound is parsed once, before any entry is compared with it.
    policy = CreditPolicy.from_doc(POLICY_DOC)
    with pytest.raises(InvalidTimestamp):
        compute_accrual(Snapshot(), policy, window)
    with pytest.raises(InvalidTimestamp):
        credit_report(Snapshot(), STEWARD_ORG, window)


def test_window_bounds_are_inclusive_on_the_anchor():
    entries = regression_history()
    failing = next(e for e in entries
                   if e.entry_type is EntryType.EVALUATION_RUN
                   and e.payload.decision == "fail")
    closing = (WINDOW[0], failing.created_at)
    plans, _ = compute_accrual(Snapshot(entries), make_policy(), closing)
    assert len(plans) == 1

    early = (WINDOW[0], stamp(400))
    plans, report = compute_accrual(Snapshot(entries), make_policy(), early)
    assert plans == []
    assert report.considered == 0
    assert report.suppressed == []


# ---------------------------------------------------------------------------
# the other two event kinds


def test_remediation_completed_credits_incident_reporters(tmp_path):
    incident = make_contribution(1, kind="incidentReport",
                                 steward_org="pl:org:o1")
    bystander = make_contribution(2, kind="prompt", steward_org="pl:org:o2")
    fix = make_change(0, influenced_by=[incident.id, bystander.id])
    fix.links.remediates.append("pl:run:gen:000")
    policy = make_policy(unitsPerEvent={"remediationCompleted": 4})

    plans, report = compute_accrual(Snapshot([incident, bystander, fix]), policy, WINDOW)
    assert [(p.payload.triggering_event.kind, p.payload.beneficiary, units(p),
             p.payload.triggering_event.trigger_id()) for p in plans] == [
        ("remediationCompleted", "pl:org:o1", Decimal("4.00"), fix.id)]
    assert report.considered == 1

    unlinked = make_change(1, influenced_by=[bystander.id])
    unlinked.links.remediates.append("pl:run:gen:000")
    plans, report = compute_accrual(Snapshot([incident, bystander, unlinked]), policy, WINDOW)
    assert plans == []
    assert report.considered == 0

    with LedgerFile(tmp_path / "v.pledger") as ledger:
        for entry in (incident, bystander, fix):
            ledger.append(entry)
        minted, _report = accrue_credits(ledger, policy, WINDOW)
    assert minted[0].payload.triggering_event.change_id == fix.id
    assert minted[0].payload.triggering_event.evaluation_run_id is None
    assert minted[0].payload.triggering_event.trigger_id() == fix.id


def test_scheduled_run_dependency_passes_only_quality_gate_off():
    contrib = make_contribution(1, steward_org="pl:org:o1")
    test = make_test(0, motivated_by=[contrib.id])
    audit = make_run(0, test_id=test.id, decision="pass",
                     checkpoint="scheduledAudit")
    policy = make_policy(unitsPerEvent={"scheduledRunDependency": 2})

    plans, report = compute_accrual(Snapshot([contrib, test, audit]), policy, WINDOW)
    assert plans == []
    assert [s.reason for s in report.suppressed] == ["qualityGate"]

    relaxed = make_policy(unitsPerEvent={"scheduledRunDependency": 2},
                          qualityGate=False)
    plans, _ = compute_accrual(Snapshot([contrib, test, audit]), relaxed, WINDOW)
    assert [(p.payload.triggering_event.kind, units(p)) for p in plans] == [
        ("scheduledRunDependency", Decimal("2.00"))]

    off_schedule = make_run(1, test_id=test.id, decision="pass",
                            checkpoint="postIncident")
    plans, report = compute_accrual(Snapshot([contrib, test, off_schedule]), relaxed, WINDOW)
    assert plans == []
    assert report.considered == 0


# ---------------------------------------------------------------------------
# minting, statements, and accounting invariants


def test_accrue_credits_appends_and_reports(tmp_path):
    with LedgerFile(tmp_path / "v.pledger") as ledger:
        for entry in regression_history():
            ledger.append(entry)
        minted, report = accrue_credits(ledger, make_policy(), WINDOW,
                                        created_at=stamp(800))
        assert len(minted) == 1
        assert minted[0].created_at == stamp(800)
        assert report.credits == minted
        assert report.total_units() == Decimal("10")
        assert minted[0].id in ledger.snapshot.by_id

        doc = report.to_doc()
        assert doc["window"] == {"start": WINDOW[0], "end": WINDOW[1]}
        assert doc["creditIds"] == [minted[0].id]
        assert doc["totalUnits"] == 10.0
        assert doc["suppressed"] == []


@pytest.mark.parametrize("created_at", [None, stamp(800)])
def test_accrue_credits_appends_exactly_the_planned_entries(tmp_path, created_at):
    policy = make_policy(unitsPerEvent={"regressionDetected": 5})
    with LedgerFile(tmp_path / "v.pledger") as ledger:
        for entry in regression_history(orgs=("pl:org:o1", "pl:org:o2"), n_tests=3):
            ledger.append(entry)
        planned, _report = compute_accrual(ledger.snapshot, policy, WINDOW)
        prev = ledger.snapshot.head_hash
        minted, _report = accrue_credits(ledger, policy, WINDOW, created_at=created_at)
        assert ledger.snapshot.entries[-len(minted):] == minted
    assert len(planned) == 6
    for plan, credit in zip(planned, minted, strict=True):
        if created_at is not None:
            plan = replace(plan, created_at=created_at)
        assert credit == seal(plan, prev)
        prev = credit.integrity.hash


def test_accrue_credits_default_recorder(tmp_path):
    with LedgerFile(tmp_path / "v.pledger") as ledger:
        for entry in regression_history():
            ledger.append(entry)
        minted, _report = accrue_credits(ledger, make_policy(), WINDOW)
    assert minted[0].actor.role == "maintainer"
    assert minted[0].actor.pseudonym == "credit-accrual"
    assert minted[0].created_at == WINDOW[1]


def test_credit_report_statement(lifecycle):
    _path, ids, entries = lifecycle
    statement = credit_report(Snapshot(entries), STEWARD_ORG, WINDOW)
    policy_ref = CreditPolicy.from_doc(POLICY_DOC).ref()
    assert statement.lines == [{
        "creditId": LIFECYCLE_CREDIT_ID,
        "eventKind": "regressionDetected",
        "triggerId": ids["run_v2"],
        "units": 10.0,
        "policyRef": policy_ref,
    }]
    assert statement.total_units == Decimal("10")
    assert statement.policy_refs == [policy_ref]
    doc = statement.to_doc()
    assert doc["beneficiary"] == STEWARD_ORG
    assert doc["totalUnits"] == 10.0

    assert credit_report(Snapshot(entries), "pl:org:someone-else", WINDOW).lines == []
    early = credit_report(Snapshot(entries), STEWARD_ORG,
                          ("2025-05-01T00:00:00Z", "2025-06-29T00:00:00Z"))
    assert early.lines == []
    assert early.total_units == Decimal(0)


def test_accrual_invariants_hold_on_random_histories():
    """Caps, id uniqueness, and rerun idempotence across randomized ledgers."""
    orgs = ("pl:org:o1", "pl:org:o2", "pl:org:o3")
    decisions = ("pass", "fail", "inconclusive")
    for seed in range(20):
        rng = random.Random(8000 + seed)
        entries: list[EntryEnvelope] = []
        contribs = []
        for i, org in enumerate(orgs, start=1):
            contrib = make_contribution(i, steward_org=org)
            contribs.append(contrib.id)
            entries.append(contrib)
        run_index = 0
        for j in range(rng.randint(1, 5)):
            artifact = f"pl:artifact:gen:a{j}"
            motivated = [c for c in contribs if rng.random() < 0.6]
            entries.append(make_test(j, motivated_by=motivated))
            entries.append(make_change(j, versions=("v1", "v2", "v3"),
                                       artifact_id=artifact))
            for _ in range(rng.randint(0, 4)):
                entries.append(make_run(
                    run_index, test_id=f"pl:test:gen:{j:03d}",
                    version=rng.choice(("v1", "v2", "v3")),
                    artifact_id=artifact,
                    decision=rng.choice(decisions),
                    checkpoint=rng.choice(("scheduledAudit", "postIncident"))))
                run_index += 1
        policy = make_policy(
            unitsPerEvent={"regressionDetected": rng.choice((0, 5, 10)),
                           "scheduledRunDependency": rng.choice((0, 2))},
            capPerBeneficiaryPerPeriod=rng.choice((10, 100)),
            persistenceGateReleases=rng.choice((0, 2)),
            qualityGate=rng.random() < 0.5,
        )
        plans, report = compute_accrual(Snapshot(entries), policy, WINDOW)

        ids = [p.id for p in plans]
        assert len(ids) == len(set(ids))
        assert all(p.id.startswith("pl:credit:") for p in plans)
        totals: dict[str, Decimal] = {}
        for plan in plans:
            totals[plan.payload.beneficiary] = (
                totals.get(plan.payload.beneficiary, Decimal(0)) + units(plan))
        assert all(total <= policy.cap for total in totals.values())
        if report.considered == 0:
            assert plans == [] and report.suppressed == []

        replans, _ = compute_accrual(Snapshot(entries + plans), policy, WINDOW)
        assert replans == []
