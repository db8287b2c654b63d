"""Test execution and regression detection.

The harness never runs models. Callers bring raw results (a metric value,
rater scores, or an external attestation); the harness turns them into a
pass/fail/inconclusive decision through the test's measurement procedure,
records the run against a declared artifact version, and scans run histories
for regressions. Decisions are pure functions of (measurement, rawResults),
so every stored decision can be recomputed bit for bit.
"""

from __future__ import annotations

from typing import Any, Iterable

from .canonical import canonical_bytes
from .errors import (
    ShapeMismatch,
    UnknownArtifactVersion,
    UnknownContribution,
    WrongKind,
)
from .graph import Snapshot
from .model import (
    RUN_DECISIONS,
    ActorRef,
    EntryEnvelope,
    EntryType,
    EvaluationRunPayload,
    LinkSet,
    MeasurementProcedure,
    TestPayload,
    _is_number,
    _slug,
    now_stamp,
    record,
    replace,
)
from .store import LedgerFile

# rawResults marker for a run that never produced data; decides inconclusive.
MISSING_RESULTS = {"reason": "missingResults"}


# ---------------------------------------------------------------------------
# decisions

def decide(measurement: MeasurementProcedure, raw_results: Any) -> str:
    """Map raw results to a decision under a measurement procedure.

    Pure and deterministic. Threshold comparisons are inclusive; rubric means
    are exact rational arithmetic over every score, inconclusive below
    minRaters; externalRecordOnly copies the attestation's decision. A results
    document equal to MISSING_RESULTS records an evaluation that never
    produced data and decides inconclusive for every runner kind.
    """
    if raw_results == MISSING_RESULTS:
        return "inconclusive"
    if not isinstance(raw_results, dict):
        raise ShapeMismatch("rawResults must be a document")

    kind = measurement.runner_kind
    if kind == "threshold":
        value = raw_results.get("value")
        if not _is_number(value):
            raise ShapeMismatch("threshold rawResults need a numeric value field")
        if measurement.comparator == ">=":
            return "pass" if value >= measurement.bound else "fail"
        return "pass" if value <= measurement.bound else "fail"

    if kind == "rubric":
        scores = raw_results.get("scores")
        if not isinstance(scores, list) or not scores:
            raise ShapeMismatch("rubric rawResults need a nonempty scores list")
        width = len(measurement.criteria or [])
        for row in scores:
            if not isinstance(row, list) or (width and len(row) != width):
                raise ShapeMismatch(
                    f"each rater must score all {width} criteria")
            for value in row:
                if not _is_number(value) or not 0 <= value <= measurement.scale_max:
                    raise ShapeMismatch(
                        f"scores must be numbers in [0, {measurement.scale_max}]")
        if len(scores) < measurement.min_raters:
            return "inconclusive"
        from fractions import Fraction

        flat = [v for row in scores for v in row]
        mean = Fraction(sum(Fraction(v) for v in flat), len(flat))
        return "pass" if mean >= Fraction(measurement.pass_mean) else "fail"

    if kind == "externalRecordOnly":
        attestation = raw_results.get("attestation")
        if not isinstance(attestation, dict):
            raise ShapeMismatch("externalRecordOnly rawResults need an attestation")
        decision = attestation.get("decision")
        if decision not in RUN_DECISIONS:
            raise ShapeMismatch(f"attestation decision must be one of "
                                f"{sorted(RUN_DECISIONS)}, got {decision!r}")
        return decision

    raise ShapeMismatch(f"no decision procedure for runner kind {kind!r}")


def fold_suite(decisions: Iterable[str]) -> str:
    """Aggregate run decisions: anyFail beats anyInconclusive beats allPass.
    An empty suite is vacuously allPass."""
    verdict = "allPass"
    for decision in decisions:
        if decision == "fail":
            return "anyFail"
        if decision == "inconclusive":
            verdict = "anyInconclusive"
    return verdict


# ---------------------------------------------------------------------------
# recording runs

@record
class SuiteReport:
    artifact_id: str
    version: str
    checkpoint: str
    verdict: str
    runs: list[EntryEnvelope] = list
    decisions: dict[str, str] = dict
    missing: list[str] = list

    def to_doc(self) -> dict:
        return {
            "artifactId": self.artifact_id,
            "version": self.version,
            "checkpoint": self.checkpoint,
            "verdict": self.verdict,
            "decisions": dict(self.decisions),
            "missing": list(self.missing),
            "runIds": [r.id for r in self.runs],
        }


def run_suite(ledger: LedgerFile, checkpoint: str, artifact_id: str, version: str,
              results: dict[str, dict], evaluator: ActorRef, *,
              created_at: str | None = None) -> SuiteReport:
    """Run every live test in the ledger against one artifact version.

    `results` maps test ids to raw results documents. A live test with no
    entry in the bundle still gets a run, recorded inconclusive with the
    MISSING_RESULTS marker. Each run carries usesTest and evaluates links,
    the decision `decide` computes, and unattestedByHarness for an
    externalRecordOnly test. The suite verdict is the fold over decisions.
    Raises UnknownArtifactVersion unless the version is declared. Every test
    is decided, and its results rendered, before the first append, so results
    that one test refuses (ShapeMismatch) or that have no canonical form
    (NonCanonicalizableNumber, MalformedDocument) leave the ledger as it was.
    """
    snapshot = ledger.snapshot
    artifact_entry = snapshot.declaration(artifact_id, version)
    if artifact_entry is None:
        raise UnknownArtifactVersion(f"no declared version {version!r} of {artifact_id!r}")
    stamp = created_at or now_stamp()
    report = SuiteReport(artifact_id=artifact_id, version=version,
                         checkpoint=checkpoint, verdict="allPass")
    decided = []
    for test in snapshot.live_of(EntryType.TEST):
        raw = results.get(test.id)
        if raw is None:
            raw = dict(MISSING_RESULTS)
            report.missing.append(test.id)
        decided.append((test, raw, decide(test.payload.measurement, raw)))
    for _test, raw, _decision in decided:
        canonical_bytes(raw)
    for test, raw, decision in decided:
        external = test.payload.measurement.runner_kind == "externalRecordOnly"
        report.runs.append(ledger.append(EntryEnvelope(
            id=snapshot.next_id(f"pl:run:{_slug(test.id.split(':')[2])}:{_slug(version)}:"),
            entry_type=EntryType.EVALUATION_RUN,
            created_at=stamp,
            actor=evaluator,
            payload=EvaluationRunPayload(
                test_id=test.id, artifact_id=artifact_id, version=version,
                decision=decision, checkpoint=checkpoint, evaluator=evaluator,
                raw_results=raw, timestamp=stamp,
                unattested_by_harness=True if external else None),
            links=LinkSet(uses_test=[test.id], evaluates=[artifact_entry.id]),
        )))
        report.decisions[test.id] = decision
    report.verdict = fold_suite(report.decisions.values())
    return report


# ---------------------------------------------------------------------------
# regressions

@record
class RegressionEvent:
    test_id: str
    artifact_id: str
    from_version: str
    to_version: str
    prior_passing_run_id: str
    failing_run_id: str


def detect_regressions(snapshot: Snapshot) -> list[RegressionEvent]:
    """Pass-to-fail transitions between consecutive evaluated versions.

    For each (test, artifact) pair, runs are ordered by the declaration order
    of the version they evaluated, then by ledger position; every adjacent
    pair whose decisions read pass then fail on strictly increasing versions
    is a regression. Runs on undeclared versions cannot be ordered and are
    skipped, as are redacted runs. Events come back in failing-run ledger
    order.
    """
    # A version ranks by the ledger position of its first live declaration.
    version_order = {key: snapshot.position[declared.id] for key in snapshot.versions
                     if (declared := snapshot.declaration(*key)) is not None}

    groups: dict[tuple[str, str], list[tuple[int, EntryEnvelope]]] = {}
    for entry in snapshot.live_of(EntryType.EVALUATION_RUN):
        p = entry.payload
        rank = version_order.get((p.artifact_id, p.version))
        if rank is not None:
            groups.setdefault((p.test_id, p.artifact_id), []).append((rank, entry))

    events: list[RegressionEvent] = []
    for (test_id, artifact_id), runs in groups.items():
        runs.sort(key=lambda item: item[0])  # stable: ledger order within a version
        for (prior_rank, prior), (rank, later) in zip(runs, runs[1:]):
            if (prior.payload.decision == "pass" and later.payload.decision == "fail"
                    and rank > prior_rank):
                events.append(RegressionEvent(
                    test_id=test_id,
                    artifact_id=artifact_id,
                    from_version=prior.payload.version,
                    to_version=later.payload.version,
                    prior_passing_run_id=prior.id,
                    failing_run_id=later.id,
                ))
    events.sort(key=lambda event: snapshot.position[event.failing_run_id])
    return events


def verify_replay(snapshot: Snapshot) -> list[tuple[str, str, str]]:
    """Recompute every stored run decision from its test's measurement and
    the stored raw results. Returns (runId, stored, recomputed) mismatches;
    empty means the ledger replays exactly. Runs whose test is missing or
    redacted cannot be replayed and are skipped."""
    mismatches: list[tuple[str, str, str]] = []
    for entry in snapshot.live_of(EntryType.EVALUATION_RUN):
        test = snapshot.live(entry.payload.test_id, EntryType.TEST)
        if test is None:
            continue
        try:
            recomputed = decide(test.payload.measurement, entry.payload.raw_results)
        except ShapeMismatch:
            recomputed = "<shape mismatch>"
        if recomputed != entry.payload.decision:
            mismatches.append((entry.id, entry.payload.decision, recomputed))
    return mismatches


# ---------------------------------------------------------------------------
# incident triage

def triage_incident(ledger: LedgerFile, incident_contribution_id: str, draft: TestPayload, *,
                    test_id: str | None = None, actor: ActorRef | None = None,
                    created_at: str | None = None) -> EntryEnvelope:
    """Turn an incident-report contribution into an appended Test entry.

    The new test's payload is `draft` with the incident id added to its
    motivatedBy list, built by `replace` so `draft` itself is never changed,
    and the entry declares a motivates link back to the incident, which the
    graph stores as the edge incident -> test. The id defaults to the next
    `pl:test:<topic>:` number and the actor to the maintainer pseudonym
    `triage`. Raises UnknownContribution unless the incident is a live
    contribution, WrongKind unless it is an incidentReport.
    """
    snapshot = ledger.snapshot
    incident = snapshot.live(incident_contribution_id, EntryType.CONTRIBUTION)
    if incident is None:
        raise UnknownContribution(
            f"no contribution {incident_contribution_id!r} in ledger")
    if incident.payload.kind != "incidentReport":
        raise WrongKind(
            f"cannot triage a {incident.payload.kind!r} contribution; "
            f"expected incidentReport")

    payload = (draft if incident.id in draft.motivated_by
               else replace(draft, motivated_by=[*draft.motivated_by, incident.id]))
    if test_id is None:
        test_id = snapshot.next_id(f"pl:test:{_slug(draft.topic)}:")
    entry = EntryEnvelope(
        id=test_id,
        entry_type=EntryType.TEST,
        created_at=created_at or now_stamp(),
        actor=actor or ActorRef(role="maintainer", pseudonym="triage"),
        payload=payload,
        links=LinkSet(motivates=[incident.id]),
    )
    return ledger.append(entry)
