"""Every reader on one awkward entry list.

The list declares one version twice with the first declaration tombstoned,
and tombstones a contribution, a run, a credit, a test and a voucher
revision. Its ids are unique, as in every ledger that opens. Each reader's
answer is pinned, so a change to which entries a reader sees (live ones or
every entry) shows up here.
"""

from __future__ import annotations

import pytest
from conftest import (
    make_artifact,
    make_change,
    make_contribution,
    make_run,
    make_test,
    make_tombstone,
    sealed_chain,
    stamp,
)

from pledger.evidence import audit_corpus, build_export, check_export_conformance, \
    flag_consent_violations
from pledger.governance import CreditPolicy, compute_accrual, credit_report, gate_check
from pledger.graph import Snapshot, build_graph, linkage_completeness
from pledger.harness import RegressionEvent, detect_regressions, run_suite, verify_replay
from pledger.model import (
    ActorRef,
    CreditPayload,
    EntryEnvelope,
    EntryType,
    LinkSet,
    TriggeringEvent,
    VoucherCondition,
    VoucherPayload,
    replace,
    serialize_entry,
)
from pledger.query import evaluate, parse_query
from pledger.store import LedgerFile

STEWARD = ActorRef(role="communitySteward", steward_org="pl:org:gen-steward")
SYS = "pl:artifact:gen:sys"
WINDOW = (stamp(0), stamp(2000))
ZERO_REF = "sha256:" + "0" * 64
POLICY = {"unitsPerEvent": {"regressionDetected": 10, "remediationCompleted": 6,
                            "scheduledRunDependency": 1},
          "capPerBeneficiaryPerPeriod": 100}


def _run(j: int, test_id: str, version: str, decision: str, value: float,
         **kwargs) -> EntryEnvelope:
    run = make_run(j, test_id=test_id, version=version, decision=decision, **kwargs)
    run.payload.raw_results = {"value": value}
    return run


def _voucher(entry_id: str, minute: int, status: str, action: str = "pause",
             conditions=()) -> EntryEnvelope:
    return EntryEnvelope(
        id=entry_id, entry_type=EntryType.VOUCHER, created_at=stamp(minute), actor=STEWARD,
        payload=VoucherPayload(capability="image-generation", boundary="workshop",
                               action=action, steward=STEWARD, status=status,
                               conditions=list(conditions)))


def _credit(entry_id: str, minute: int, beneficiary: str, run_id: str) -> EntryEnvelope:
    return EntryEnvelope(
        id=entry_id, entry_type=EntryType.CREDIT, created_at=stamp(minute),
        actor=ActorRef(role="maintainer", pseudonym="credit-accrual"),
        payload=CreditPayload(beneficiary=beneficiary,
                              triggering_event=TriggeringEvent(
                                  kind="regressionDetected", evaluation_run_id=run_id),
                              units=10, policy_ref=ZERO_REF),
        links=LinkSet(credits_for=[run_id]))


def awkward_entries() -> list[EntryEnvelope]:
    c1 = make_contribution(1, kind="incidentReport", steward_org="pl:org:a",
                           links=LinkSet(influences=["pl:change:gen:001"]))
    c2 = make_contribution(2, steward_org="pl:org:b", intended_use="evaluation-only")
    c3 = make_contribution(3, kind="incidentReport", steward_org="pl:org:c")
    c4 = make_contribution(4, steward_org="pl:org:d")
    c2_withdrawn = replace(c2, id="pl:contrib:gen:0002:rev1", created_at=stamp(10))
    c2_withdrawn.consent = replace(c2.consent, status="withdrawn")

    t0 = make_test(0, motivated_by=[c1.id, c3.id], links=LinkSet(motivates=[c1.id, c3.id]))
    t1 = make_test(1, motivated_by=[c2.id], topic="noise")
    t2 = make_test(2, motivated_by=[c4.id], topic="shade")

    v1 = make_artifact(1, version="v1")
    v2 = make_artifact(2, version="v2")
    v2_again = replace(make_artifact(3, version="v2"), id=f"{SYS}:v2b")
    v3 = make_artifact(4, version="v3")
    deployment = make_artifact(5, artifact_id="pl:artifact:gen:deploy", version="d1",
                               artifact_kind="extension:deployment")
    v3.links = LinkSet(deployed_as=[deployment.id])

    runs = [
        _run(1, t0.id, "v1", "pass", 0.1),
        _run(2, t0.id, "v2", "fail", 0.5),
        _run(3, t0.id, "v3", "pass", 0.1),
        _run(4, t2.id, "v1", "pass", 0.1),
        _run(5, t2.id, "v2", "fail", 0.5),
        _run(6, t1.id, "v1", "pass", 0.1),
        _run(7, t2.id, "v3", "pass", 0.5),  # stored pass, recomputes fail
        _run(8, t2.id, "v3", "fail", 0.5, checkpoint="preDeploymentGate"),
    ]

    ch1 = make_change(1, influenced_by=[c1.id, c3.id], uses_test=[t0.id], versions=("v2",))
    ch1.links.remediates = [runs[1].id]
    ch2 = make_change(2, influenced_by=[c2.id], versions=("v3",))
    ch2.payload.change_kind = "dataset"
    ch3 = make_change(3, influenced_by=[c4.id, "pl:contrib:gen:0404"], versions=("v9",))

    vouchers = [
        _voucher("pl:voucher:gen:001", 600, "issued"),
        _voucher("pl:voucher:gen:001:rev1", 601, "active"),
        _voucher("pl:voucher:gen:001:rev2", 602, "revoked"),
        _voucher("pl:voucher:gen:002", 603, "issued", "condition",
                 [VoucherCondition(required_test_id=t0.id)]),
        _voucher("pl:voucher:gen:002:rev1", 604, "active", "condition",
                 [VoucherCondition(required_test_id=t0.id)]),
    ]
    credits = [_credit("pl:credit:gen:001", 700, "pl:org:a", runs[1].id),
               _credit("pl:credit:gen:002", 701, "pl:org:d", runs[4].id)]

    entries = [c1, c2, c3, c4, c2_withdrawn, t0, t1, t2, v1, v2, v2_again, v3, deployment,
               *runs, ch1, ch2, ch3, *vouchers, *credits]
    hide = [c3.id, runs[4].id, credits[1].id, t1.id, vouchers[2].id, v2.id]
    return entries + [make_tombstone(target, minute=900 + k) for k, target in enumerate(hide)]


def test_the_governance_readers():
    entries = awkward_entries()
    pause = gate_check(Snapshot(entries), "image-generation", SYS, "v3", "workshop", stamp(1000))
    assert pause.to_doc() == EXPECTED_GATE
    assert credit_report(Snapshot(entries), "pl:org:a", WINDOW).to_doc() == EXPECTED_CREDIT_A
    assert credit_report(Snapshot(entries), "pl:org:d", WINDOW).to_doc() == EXPECTED_CREDIT_D
    plans, report = compute_accrual(Snapshot(entries), CreditPolicy.from_doc(POLICY), WINDOW)
    assert [plan.to_doc() for plan in plans] == EXPECTED_PLANS
    assert report.to_doc() == EXPECTED_ACCRUAL


def test_the_harness_readers(tmp_path):
    entries = awkward_entries()
    events = detect_regressions(Snapshot(entries))
    assert events == EXPECTED_REGRESSIONS
    assert verify_replay(Snapshot(entries)) == EXPECTED_REPLAY
    path = tmp_path / "awkward.pledger"
    path.write_text("".join(serialize_entry(e) + "\n" for e in sealed_chain(entries)),
                    "utf-8")
    with LedgerFile(path) as ledger:
        suite = run_suite(ledger, "preDeploymentGate", SYS, "v2",
                          {"pl:test:gen:000": {"value": 0.1}},
                          ActorRef(role="evaluator", pseudonym="E2"), created_at=stamp(1000))
        evaluated = [run.links.evaluates for run in suite.runs]
    assert suite.to_doc() == EXPECTED_SUITE
    assert evaluated == [[f"{SYS}:v2b"]] * len(suite.runs)


def test_the_evidence_graph_and_query_readers():
    entries = awkward_entries()
    assert flag_consent_violations(Snapshot(entries)) == EXPECTED_CONSENT
    assert audit_corpus(Snapshot(entries)).to_doc() == EXPECTED_AUDIT
    assert linkage_completeness(build_graph(Snapshot(entries))).to_doc() == EXPECTED_LINKAGE
    export = build_export(Snapshot(entries), SYS, "v3", now=stamp(1000))
    assert [doc["id"] for doc in export["entries"]] == EXPECTED_EXPORT_IDS
    assert export["activeVouchers"] == EXPECTED_EXPORT_VOUCHERS
    assert check_export_conformance(export).to_doc() == EXPECTED_CONFORMANCE
    table = evaluate(parse_query(
        "MATCH (r:EvaluationRun)-[:USES_TEST]->(t:Test) "
        "RETURN r.id, r.decision, t.id, t.topic;"), build_graph(Snapshot(entries)))
    assert table.rows == EXPECTED_QUERY_ROWS
    changes = evaluate(parse_query("MATCH (c:Change) RETURN c.id, c.type, c.rationale;"),
                       build_graph(Snapshot(entries)))
    assert changes.rows == EXPECTED_CHANGE_ROWS


def test_the_payload_view():
    # A reader sees a tombstoned payload only through `hidden`: each target
    # names the first Tombstone covering it, and the live views omit it.
    snapshot = Snapshot(awkward_entries())
    covers = {target: (tomb.id, tomb.payload.reason, tomb.payload.retained_hash)
              for target, tomb in snapshot.hidden.items()}
    assert covers == EXPECTED_COVERS
    for target in EXPECTED_COVERS:
        entry_type = snapshot.by_id[target].entry_type
        assert snapshot.live(target, entry_type) is None
        assert target not in {e.id for e in snapshot.live_of(entry_type)}
    # A later tombstone on the same target leaves the first one in place.
    again = replace(make_tombstone("pl:contrib:gen:0003", minute=990), id="pl:tomb:again")
    again.payload.reason = "legalHold"
    snapshot.add(again)
    assert snapshot.hidden["pl:contrib:gen:0003"].id == "pl:tomb:contrib:gen:0003"
    assert snapshot.hidden["pl:contrib:gen:0003"].payload.reason == "safetyRedaction"


# ---------------------------------------------------------------------------
# the pinned answers

# tombstoned target -> (the first Tombstone naming it, its reason, its retainedHash)
EXPECTED_COVERS = {
    target: (tomb, "safetyRedaction", ZERO_REF)
    for target, tomb in [("pl:contrib:gen:0003", "pl:tomb:contrib:gen:0003"),
                         ("pl:run:gen:005", "pl:tomb:run:gen:005"),
                         ("pl:credit:gen:002", "pl:tomb:credit:gen:002"),
                         ("pl:test:gen:001", "pl:tomb:test:gen:001"),
                         ("pl:voucher:gen:001:rev2", "pl:tomb:voucher:gen:001:rev2"),
                         ("pl:artifact:gen:sys:v2", "pl:tomb:artifact:gen:sys:v2")]
}

EXPECTED_GATE = (
    {"allowed": False,
     "reasons": [{"voucherId": "pl:voucher:gen:001:rev1", "reasonKind": "pausedByVoucher"}],
     "evaluatedAt": "2025-05-02T04:40:00Z",
     "expiredVouchers": []}
)
EXPECTED_CREDIT_A = (
    {"beneficiary": "pl:org:a",
     "window": {"start": "2025-05-01T12:00:00Z", "end": "2025-05-02T21:20:00Z"},
     "events": [{"creditId": "pl:credit:gen:001",
                 "eventKind": "regressionDetected",
                 "triggerId": "pl:run:gen:002",
                 "units": 10,
                 "policyRef": ZERO_REF}],
     "totalUnits": 10.0,
     "policyRefs": [ZERO_REF]}
)
EXPECTED_CREDIT_D = (
    {"beneficiary": "pl:org:d",
     "window": {"start": "2025-05-01T12:00:00Z", "end": "2025-05-02T21:20:00Z"},
     "events": [],
     "totalUnits": 0.0,
     "policyRefs": []}
)
EXPECTED_PLANS = (
    [{"id": "pl:credit:remediationcompleted:pl-change-gen-001:pl-org-a",
      "type": "Credit",
      "createdAt": "2025-05-02T21:20:00Z",
      "actor": {"role": "maintainer", "pseudonym": "credit-accrual"},
      "credit": {
          "beneficiary": "pl:org:a",
          "triggeringEvent": {"kind": "remediationCompleted",
                              "changeId": "pl:change:gen:001"},
          "units": 6.0,
          "policyRef":
              "sha256:0d6c737abd91c8d18cc6c45d1aaea608d7e1ba8e970ce3d73f56f8d80eebd315"},
      "links": {"creditsFor": ["pl:change:gen:001"]}}]
)
EXPECTED_ACCRUAL = (
    {"window": {"start": "2025-05-01T12:00:00Z", "end": "2025-05-02T21:20:00Z"},
     "policyRef": "sha256:0d6c737abd91c8d18cc6c45d1aaea608d7e1ba8e970ce3d73f56f8d80eebd315",
     "consideredEvents": 7,
     "creditIds": [],
     "totalUnits": 0.0,
     "suppressed": [{"eventKind": "scheduledRunDependency",
                     "triggerId": "pl:run:gen:001",
                     "reason": "qualityGate"},
                    {"eventKind": "regressionDetected",
                     "triggerId": "pl:run:gen:002",
                     "reason": "alreadyCredited",
                     "beneficiary": "pl:org:a"},
                    {"eventKind": "scheduledRunDependency",
                     "triggerId": "pl:run:gen:002",
                     "reason": "alreadyCredited",
                     "beneficiary": "pl:org:a"},
                    {"eventKind": "scheduledRunDependency",
                     "triggerId": "pl:run:gen:003",
                     "reason": "qualityGate"},
                    {"eventKind": "scheduledRunDependency",
                     "triggerId": "pl:run:gen:004",
                     "reason": "qualityGate"},
                    {"eventKind": "scheduledRunDependency",
                     "triggerId": "pl:run:gen:007",
                     "reason": "qualityGate"}]}
)
EXPECTED_REGRESSIONS = (
    [RegressionEvent(test_id="pl:test:gen:000",
                     artifact_id="pl:artifact:gen:sys",
                     from_version="v1",
                     to_version="v2",
                     prior_passing_run_id="pl:run:gen:001",
                     failing_run_id="pl:run:gen:002")]
)
EXPECTED_REPLAY = (
    [("pl:run:gen:007", "pass", "fail")]
)
EXPECTED_SUITE = (
    {"artifactId": "pl:artifact:gen:sys",
     "version": "v2",
     "checkpoint": "preDeploymentGate",
     "verdict": "anyInconclusive",
     "decisions": {"pl:test:gen:000": "pass", "pl:test:gen:002": "inconclusive"},
     "missing": ["pl:test:gen:002"],
     "runIds": ["pl:run:gen:v2:001", "pl:run:gen:v2:002"]}
)
EXPECTED_CONSENT = (
    [{"changeId": "pl:change:gen:002",
      "contributionId": "pl:contrib:gen:0002",
      "violation": "withdrawnConsent"},
     {"changeId": "pl:change:gen:002",
      "contributionId": "pl:contrib:gen:0002",
      "violation": "intendedUseViolation"}]
)
EXPECTED_AUDIT = (
    {"columns": ["recruitmentPathway",
                 "rolesAndIntermediaries",
                 "consentPrivacyScope",
                 "compensationTerms",
                 "explicitInfluenceLinks"],
     "rows": [{"case": "gen",
               "recruitmentPathway": "NotSpecified",
               "rolesAndIntermediaries": "Reported",
               "consentPrivacyScope": "Partial",
               "compensationTerms": "Partial",
               "explicitInfluenceLinks": "Reported"}]}
)
EXPECTED_LINKAGE = (
    {"totalChanges": 3,
     "changesWithContribution": 3,
     "changesWithTest": 2,
     "changesFullyLinked": 2,
     "testsWithRun": 3,
     "completenessRatio": "2/3",
     "completenessRatioDecimal": 0.6666666666666666,
     "dangling": [{"entryId": "pl:change:gen:003", "target": "pl:contrib:gen:0404"}]}
)
EXPECTED_EXPORT_IDS = (
    ["pl:contrib:gen:0001",
     "pl:contrib:gen:0002",
     "pl:contrib:gen:0003",
     "pl:contrib:gen:0004",
     "pl:contrib:gen:0002:rev1",
     "pl:test:gen:000",
     "pl:test:gen:001",
     "pl:test:gen:002",
     "pl:artifact:gen:sys:v1",
     "pl:artifact:gen:sys:v2",
     "pl:artifact:gen:sys:v3",
     "pl:artifact:gen:deploy:d1",
     "pl:run:gen:001",
     "pl:run:gen:002",
     "pl:run:gen:003",
     "pl:run:gen:004",
     "pl:run:gen:005",
     "pl:run:gen:006",
     "pl:run:gen:007",
     "pl:run:gen:008",
     "pl:change:gen:001",
     "pl:change:gen:002",
     "pl:change:gen:003",
     "pl:voucher:gen:002",
     "pl:voucher:gen:002:rev1",
     "pl:credit:gen:001",
     "pl:credit:gen:002",
     "pl:tomb:contrib:gen:0003",
     "pl:tomb:run:gen:005",
     "pl:tomb:credit:gen:002",
     "pl:tomb:test:gen:001",
     "pl:tomb:artifact:gen:sys:v2"]
)
EXPECTED_EXPORT_VOUCHERS = (
    [{"voucherId": "pl:voucher:gen:002",
      "latestEntryId": "pl:voucher:gen:002:rev1",
      "status": "active",
      "gate": {"allowed": False,
               "reasons": [{"voucherId": "pl:voucher:gen:001:rev1",
                            "reasonKind": "pausedByVoucher"}],
               "evaluatedAt": "2025-05-02T04:40:00Z",
               "expiredVouchers": []}}]
)
EXPECTED_CONFORMANCE = (
    {"clauseResults": {"a-evidenceFields": {"pass": True, "details": []},
                       "b-traceabilityLinks": {"pass": False,
                                               "details": ["pl:change:gen:003: no linked "
                                                           "versioned test"]},
                       "c-testsAndRuns": {"pass": True, "details": []},
                       "d-activeVouchers": {"pass": True, "details": []}},
     "overall": "materialNonConformance"}
)
EXPECTED_QUERY_ROWS = (
    [("pl:run:gen:001", "pass", "pl:test:gen:000", "glare"),
     ("pl:run:gen:002", "fail", "pl:test:gen:000", "glare"),
     ("pl:run:gen:003", "pass", "pl:test:gen:000", "glare"),
     ("pl:run:gen:004", "pass", "pl:test:gen:002", "shade"),
     ("pl:run:gen:005", "", "pl:test:gen:002", "shade"),
     ("pl:run:gen:006", "pass", "pl:test:gen:001", ""),
     ("pl:run:gen:007", "pass", "pl:test:gen:002", "shade"),
     ("pl:run:gen:008", "fail", "pl:test:gen:002", "shade")]
)
EXPECTED_CHANGE_ROWS = (
    [("pl:change:gen:001", "Change", "Adjustment 1."),
     ("pl:change:gen:002", "Change", "Adjustment 2."),
     ("pl:change:gen:003", "Change", "Adjustment 3.")]
)
