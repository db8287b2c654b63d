"""Shared example data: a canonical sample entry and a full lifecycle ledger.

The sample contribution is the package's reference document: it parses, it
validates clean, and its canonical bytes and sealed digest are frozen in the
test suite as regression anchors.

build_lifecycle writes a complete governance story to disk: a workshop
contribution motivates a test, an image generator passes at v1 and is
deployed, v2 regresses on a scheduled audit, a steward pauses the capability,
a remediation change ships v3, the test passes again, the voucher is
satisfied, and credit accrues to the contributors' steward.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, Iterator

from .evidence import COLUMNS
from .governance import CreditPolicy, accrue_credits, issue_voucher, transition_voucher
from .harness import run_suite
from .model import (
    ActorRef,
    ArtifactPayload,
    ChangedArtifact,
    ChangePayload,
    EntryEnvelope,
    EntryType,
    LinkSet,
    MeasurementProcedure,
    TestPayload,
    VoucherPayload,
    parse_entry,
)
from .store import LedgerFile

SAMPLE_SUMMARY = "Accessible waterfront park with ramps and diverse seating."
SAMPLE_ARTIFACT_REF = (
    "artifact:prompt:sha256:" + hashlib.sha256(SAMPLE_SUMMARY.encode("utf-8")).hexdigest()
)


def sample_contribution_doc() -> dict:
    """The reference contribution document, unsealed."""
    return {
        "id": "pl:contrib:wedesign:prompt:001",
        "type": "Contribution",
        "createdAt": "2025-05-10T14:30:00Z",
        "actor": {"role": "resident", "pseudonym": "P12"},
        "consent": {"status": "granted", "scope": "research+design", "retention": "3y"},
        "compensation": {"model": "honorarium", "amount": 50, "currency": "CAD"},
        "contribution": {
            "kind": "prompt",
            "summary": SAMPLE_SUMMARY,
            "artifactRef": SAMPLE_ARTIFACT_REF,
        },
        "links": {
            "influences": ["pl:test:accessibility:001"],
            "evidence": ["pl:evidence:workshoplog:001"],
        },
    }


# Lifecycle fixture constants. Tests and the command-line walkthrough share
# these so expectations stay in one place.
ARTIFACT_ID = "pl:artifact:consult:imagegen"
DEPLOYMENT_ID = "pl:artifact:consult:deployment"
CAPABILITY = "image-generation"
BOUNDARY = "consultation_workflow"
CONTRIBUTION_ID = "pl:contrib:wedesign:prompt:001"
TEST_ID = "pl:test:accessibility:001"
VOUCHER_ID = "pl:voucher:consult:imagegen-pause:001"
STEWARD_ORG = "pl:org:wedesign-steward"
WINDOW = ("2025-05-01T00:00:00Z", "2025-06-30T00:00:00Z")
POLICY_DOC = {
    "unitsPerEvent": {
        "regressionDetected": 10,
        "remediationCompleted": 0,
        "scheduledRunDependency": 0,
    },
    "capPerBeneficiaryPerPeriod": 100,
    "periodDays": 365,
    "qualityGate": True,
    "persistenceGateReleases": 0,
}

# Entry count once the pause voucher is active but remediation has not
# shipped: contribution, change, test, artifact v1, passing run, deployment,
# artifact v2, failing run, voucher, activation.
STAGE_PAUSED = 10

# Table of published per-case evidence codings used by the audit walkthrough,
# each case's levels in the order of evidence.COLUMNS.
CASE_CODINGS: list[dict[str, Any]] = [
    {"case": case, "codings": dict(zip(COLUMNS, levels))} for case, *levels in (
        ("AIAI / Mid-Space / LIVS", "Reported", "Partial", "Partial", "NotSpecified", "Partial"),
        ("EVADIA+", "Partial", "Partial", "Partial", "NotSpecified", "NotSpecified"),
        ("AI-EDI-Space / Street Review",
         "Reported", "Partial", "Partial", "NotSpecified", "Partial"),
        ("WeDesign+", "Reported", "Partial", "Partial", "Reported", "Partial"),
    )
]


def build_lifecycle(path: str | Path, stop_after: int | None = None) -> dict[str, str]:
    """Write the lifecycle ledger to `path` and return the ids by stage name.

    `stop_after` caps the entry count (STAGE_PAUSED stops right after the
    pause voucher goes active, mid-remediation). As for every writer, the
    file and its directory are made by the first append, so `stop_after=0`
    on a new path creates nothing.
    """
    ids: dict[str, str] = {}
    with LedgerFile(path) as ledger:
        stages = _lifecycle_stages(ledger)
        # A stage appends only when it is asked for, so the cap is checked first.
        while stop_after is None or len(ledger) < stop_after:
            stage = next(stages, None)
            if stage is None:
                break
            ids[stage[0]] = stage[1]
    return ids


def _lifecycle_stages(ledger: LedgerFile) -> Iterator[tuple[str, str]]:
    """Append the lifecycle's stages in order, yielding each stage's name
    and the id it appended."""
    evaluator = ActorRef(role="evaluator", pseudonym="E1")

    def artifact(version: str, created_at: str) -> str:
        return ledger.append(EntryEnvelope(
            id=f"{ARTIFACT_ID}:{version}",
            entry_type=EntryType.ARTIFACT,
            created_at=created_at,
            actor=ActorRef(role="maintainer", pseudonym="M1"),
            payload=ArtifactPayload(
                artifact_id=ARTIFACT_ID,
                artifact_kind="model",
                version=version,
                content_ref="artifact:model:sha256:"
                + hashlib.sha256(f"imagegen-{version}".encode("utf-8")).hexdigest(),
            ),
            links=LinkSet(deployed_as=[DEPLOYMENT_ID]),
        )).id

    # The ledger holds one live test at every stage, so each suite records one run.
    def run(version: str, scores: list, checkpoint: str, created_at: str) -> str:
        return run_suite(ledger, checkpoint, ARTIFACT_ID, version, {TEST_ID: {"scores": scores}},
                         evaluator, created_at=created_at).runs[0].id

    # The sample contribution, made by a steward-represented resident for
    # evaluation only.
    contribution = parse_entry(sample_contribution_doc())
    contribution.actor.steward_org = STEWARD_ORG
    contribution.payload.intended_use = "evaluation-only"
    yield "contribution", ledger.append(contribution).id

    yield "change_initial", ledger.append(EntryEnvelope(
        id="pl:change:consult:accessibility:001",
        entry_type=EntryType.CHANGE,
        created_at="2025-05-12T09:00:00Z",
        actor=ActorRef(role="maintainer", pseudonym="M1"),
        payload=ChangePayload(
            change_kind="guardrail",
            rationale="Add accessibility guardrails suggested in the workshop.",
            changed_artifacts=[ChangedArtifact(artifact_id=ARTIFACT_ID, version_after="v1")],
        ),
        links=LinkSet(influenced_by=[CONTRIBUTION_ID], uses_test=[TEST_ID]),
    )).id

    yield "test", ledger.append(EntryEnvelope(
        id=TEST_ID,
        entry_type=EntryType.TEST,
        created_at="2025-05-12T10:00:00Z",
        actor=ActorRef(role="evaluator", pseudonym="E1"),
        payload=TestPayload(
            topic="accessibility",
            expected_behavior="Generated park scenes keep ramps and step-free paths.",
            measurement=MeasurementProcedure(
                runner_kind="rubric",
                criteria=["ramps", "continuous-paths"],
                scale_max=5,
                aggregation="mean",
                pass_mean=4,
                min_raters=3,
            ),
            input_spec={"promptSet": "accessibility-v1"},
            motivated_by=[CONTRIBUTION_ID],
        ),
        links=LinkSet(motivates=[CONTRIBUTION_ID]),
    )).id

    yield "artifact_v1", artifact("v1", "2025-05-15T08:00:00Z")
    yield "run_v1", run("v1", [[5, 4], [4, 4], [4, 5]], "preDeploymentGate",
                        "2025-05-15T09:30:00Z")

    yield "deployment", ledger.append(EntryEnvelope(
        id=DEPLOYMENT_ID,
        entry_type=EntryType.ARTIFACT,
        created_at="2025-05-16T08:00:00Z",
        actor=ActorRef(role="deployer", pseudonym="D1"),
        payload=ArtifactPayload(
            artifact_id=DEPLOYMENT_ID,
            artifact_kind="extension:deployment",
            version="v1",
            content_ref="https://consult.example/deployments/2025-05-16",
            boundary=BOUNDARY,
        ),
    )).id

    yield "artifact_v2", artifact("v2", "2025-06-18T08:00:00Z")
    run_v2 = run("v2", [[3, 2], [2, 3], [3, 3]], "scheduledAudit", "2025-06-20T10:00:00Z")
    yield "run_v2", run_v2
    yield "voucher", issue_voucher(
        ledger,
        VoucherPayload(
            capability=CAPABILITY,
            boundary=BOUNDARY,
            action="pause",
            steward=ActorRef(role="communitySteward", steward_org=STEWARD_ORG),
            status="issued",
        ),
        voucher_id=VOUCHER_ID,
        links=LinkSet(evidence=[run_v2]),
        created_at="2025-06-20T12:00:00Z",
    ).id
    yield "voucher_active", transition_voucher(
        ledger, VOUCHER_ID, "active", created_at="2025-06-20T12:30:00Z").id

    yield "change_remediation", ledger.append(EntryEnvelope(
        id="pl:change:consult:remediation:001",
        entry_type=EntryType.CHANGE,
        created_at="2025-06-22T09:00:00Z",
        actor=ActorRef(role="maintainer", pseudonym="M1"),
        payload=ChangePayload(
            change_kind="promptLibrary",
            rationale="Rework prompt templates so accessibility cues persist.",
            changed_artifacts=[ChangedArtifact(
                artifact_id=ARTIFACT_ID, version_after="v3", version_before="v2")],
        ),
        links=LinkSet(influenced_by=[CONTRIBUTION_ID], uses_test=[TEST_ID],
                      remediates=["pl:run:accessibility:v2:001"]),
    )).id

    yield "artifact_v3", artifact("v3", "2025-06-25T08:00:00Z")
    yield "run_v3", run("v3", [[5, 4], [4, 5], [5, 5]], "postIncident", "2025-06-26T09:00:00Z")

    yield "voucher_satisfied", transition_voucher(
        ledger, VOUCHER_ID, "satisfied",
        links=LinkSet(evidence=["pl:run:accessibility:v3:001"]),
        created_at="2025-06-26T10:00:00Z",
    ).id

    minted, _report = accrue_credits(ledger, CreditPolicy.from_doc(POLICY_DOC), WINDOW)
    for index, credit in enumerate(minted):
        yield "credit" if index == 0 else f"credit_{index}", credit.id
