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

from .errors import (
    ShapeMismatch,
    UnknownArtifactVersion,
    UnknownContribution,
    UnknownTest,
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
)

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

def _find_test(snapshot: Snapshot, test_id: str) -> EntryEnvelope:
    entry = snapshot.by_id.get(test_id)
    if entry is None or entry.entry_type is not EntryType.TEST:
        raise UnknownTest(f"no test {test_id!r} in ledger")
    if snapshot.live(test_id, EntryType.TEST) is None:
        raise UnknownTest(f"test {test_id} has been redacted")
    return entry


def _find_artifact_version(snapshot: Snapshot, artifact_id: str,
                           version: str) -> EntryEnvelope:
    entry = snapshot.declaration(artifact_id, version)
    if entry is None:
        raise UnknownArtifactVersion(f"no declared version {version!r} of {artifact_id!r}")
    return entry


def _append_run(ledger: Any, test: EntryEnvelope, artifact_entry: EntryEnvelope,
                raw_results: dict, evaluator: ActorRef, checkpoint: str,
                created_at: str) -> EntryEnvelope:
    """Append the run of `test` on `artifact_entry`, decided by `decide`."""
    payload = EvaluationRunPayload(
        test_id=test.id,
        artifact_id=artifact_entry.payload.artifact_id,
        version=artifact_entry.payload.version,
        decision=decide(test.payload.measurement, raw_results),
        checkpoint=checkpoint,
        evaluator=evaluator,
        raw_results=raw_results,
        timestamp=created_at,
        unattested_by_harness=(
            True if test.payload.measurement.runner_kind == "externalRecordOnly"
            else None),
    )
    entry = EntryEnvelope(
        id=Snapshot.of(ledger).next_id(
            f"pl:run:{_slug(test.id.split(':')[2])}:{_slug(payload.version)}:"),
        entry_type=EntryType.EVALUATION_RUN,
        created_at=created_at,
        actor=evaluator,
        payload=payload,
        links=LinkSet(uses_test=[test.id], evaluates=[artifact_entry.id]),
    )
    return ledger.append(entry)


def run_test(ledger: Any, test_id: str, artifact_id: str, version: str,
             raw_results: dict, evaluator: ActorRef, checkpoint: str, *,
             created_at: str | None = None) -> EntryEnvelope:
    """Record one evaluation of a test against a declared artifact version.

    The appended run carries usesTest and evaluates links and a decision
    computed by `decide`. Raises UnknownTest / UnknownArtifactVersion when
    either side is missing, ShapeMismatch when the raw results do not fit the
    test's runner kind.
    """
    snapshot = Snapshot.of(ledger)
    test = _find_test(snapshot, test_id)
    artifact_entry = _find_artifact_version(snapshot, artifact_id, version)
    return _append_run(ledger, test, artifact_entry, raw_results, evaluator,
                       checkpoint, created_at or now_stamp())


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


def run_suite(ledger: Any, checkpoint: str, artifact_id: str, version: str,
              results: dict[str, dict], evaluator: ActorRef, *,
              created_at: str | None = None) -> SuiteReport:
    """Run every live test in the ledger against one artifact version.

    `results` maps test ids to raw results documents. A live test with no
    entry in the bundle still gets a run, recorded inconclusive with the
    MISSING_RESULTS marker. The suite verdict is the fold over decisions.
    """
    snapshot = Snapshot.of(ledger)
    artifact_entry = _find_artifact_version(snapshot, artifact_id, version)
    stamp = created_at or now_stamp()
    report = SuiteReport(artifact_id=artifact_id, version=version,
                         checkpoint=checkpoint, verdict="allPass")
    # Taken before the first append: the loop grows a live snapshot.
    tests = snapshot.live_of(EntryType.TEST)
    for test in tests:
        raw = results.get(test.id)
        if raw is None:
            raw = dict(MISSING_RESULTS)
            report.missing.append(test.id)
        run = _append_run(ledger, test, artifact_entry, raw, evaluator, checkpoint, stamp)
        report.runs.append(run)
        report.decisions[test.id] = run.payload.decision
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

    def to_doc(self) -> dict:
        return {
            "testId": self.test_id,
            "artifactId": self.artifact_id,
            "fromVersion": self.from_version,
            "toVersion": self.to_version,
            "priorPassingRunId": self.prior_passing_run_id,
            "failingRunId": self.failing_run_id,
        }


def detect_regressions(source: Any) -> list[RegressionEvent]:
    """Pass-to-fail transitions between consecutive evaluated versions.

    For each (test, artifact) pair, runs are ordered by the declaration order
    of the version they evaluated, then by ledger position; every adjacent
    pair whose decisions read pass then fail on strictly increasing versions
    is a regression. Runs on undeclared versions cannot be ordered and are
    skipped, as are redacted runs. Events come back in failing-run ledger
    order.
    """
    snapshot = Snapshot.of(source)
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


def verify_replay(source: Any) -> list[tuple[str, str, str]]:
    """Recompute every stored run decision from its test's measurement and
    the stored raw results. Returns (runId, stored, recomputed) mismatches;
    empty means the ledger replays exactly. Runs whose test is missing or
    redacted cannot be replayed and are skipped."""
    snapshot = Snapshot.of(source)
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

def triage_incident(ledger: Any, incident_contribution_id: str, draft: TestPayload, *,
                    test_id: str | None = None, actor: ActorRef | None = None,
                    created_at: str | None = None) -> EntryEnvelope:
    """Turn an incident-report contribution into an appended Test entry.

    The new test's payload is `draft` itself, with the incident id added to
    its motivatedBy list, and the entry declares a motivates link back to the
    incident, which the graph stores as the edge incident -> test. The id
    defaults to the next `pl:test:<topic>:` number and the actor to the
    maintainer pseudonym `triage`. Raises UnknownContribution unless the
    incident is a live contribution, WrongKind unless it is an incidentReport.
    """
    snapshot = Snapshot.of(ledger)
    incident = snapshot.live(incident_contribution_id, EntryType.CONTRIBUTION)
    if incident is None:
        raise UnknownContribution(
            f"no contribution {incident_contribution_id!r} in ledger")
    if incident.payload.kind != "incidentReport":
        raise WrongKind(
            f"cannot triage a {incident.payload.kind!r} contribution; "
            f"expected incidentReport")

    if incident.id not in draft.motivated_by:
        draft.motivated_by.append(incident.id)

    if test_id is None:
        test_id = snapshot.next_id(f"pl:test:{_slug(draft.topic)}:")
    entry = EntryEnvelope(
        id=test_id,
        entry_type=EntryType.TEST,
        created_at=created_at or now_stamp(),
        actor=actor or ActorRef(role="maintainer", pseudonym="triage"),
        payload=draft,
        links=LinkSet(motivates=[incident.id]),
    )
    return ledger.append(entry)
