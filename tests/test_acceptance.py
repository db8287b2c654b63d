"""End-to-end acceptance checks, one per release criterion.

Each test prints a single labelled pass/fail line so a full run reads as a
checklist. The expected values are frozen here or in tests/data and were
produced by independent oracles (hashlib + json.dumps for digests, exhaustive
assignment enumeration for queries, hand computation for credits).
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
import time
from contextlib import contextmanager
from decimal import Decimal
from pathlib import Path

import pytest
from conftest import (
    brute_force_rows,
    make_artifact,
    make_contribution,
    make_run,
    make_test,
    random_graph_entries,
    random_query,
    sealed_chain,
    stamp,
    stored_lines,
)

from pledger.canonical import canonical_bytes, canonical_json, compute_hash
from pledger.evidence import (
    CONFORMANCE_CLAUSES,
    CoverageLevel,
    build_export,
    case_matrix,
    check_export_conformance,
)
from pledger.fixtures import (
    ARTIFACT_ID,
    BOUNDARY,
    CAPABILITY,
    CASE_CODINGS,
    CONTRIBUTION_ID,
    DEPLOYMENT_ID,
    POLICY_DOC,
    STAGE_PAUSED,
    TEST_ID,
    VOUCHER_ID,
    WINDOW,
    build_lifecycle,
    sample_contribution_doc,
)
from pledger.governance import CreditPolicy, compute_accrual, gate_check
from pledger.graph import Snapshot, build_graph
from pledger.harness import detect_regressions
from pledger.integrity import verify_chain
from pledger.model import (
    ActorRef,
    EntryEnvelope,
    EntryType,
    VoucherCondition,
    VoucherPayload,
    parse_entry,
    replace,
    validate_structure,
)
from pledger.query import evaluate, parse_query, run_query
from pledger.store import read_entries

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "sample_golden.json").read_text())

FROZEN_SAMPLE_DIGEST = \
    "sha256:ae98a6ee0a3a7af52cc83260bd1b565a62c8c80ed7c9ddbf905b19f90ac5e131"

ATTRIBUTION_QUERY = '''MATCH (c:Contribution)-[:MOTIVATES]->(t:Test)
MATCH (t)<-[:USES_TEST]-(r:EvaluationRun)-[:EVALUATES]->(a:Artifact)
MATCH (a)-[:DEPLOYED_AS]->(d:Deployment)
WHERE t.topic = "accessibility" AND r.decision = "fail"
  AND d.boundary = "consultation_workflow"
RETURN c.id, t.id, r.artifact_version, r.timestamp, d.id;'''


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


# ---------------------------------------------------------------------------
# 1. lifecycle replay


def test_c1_lifecycle_replay(tmp_path):
    with criterion("criterion 1 (lifecycle replay)"):
        started = time.monotonic()

        mid_path = tmp_path / "mid.pledger"
        full_path = tmp_path / "full.pledger"
        build_lifecycle(mid_path, stop_after=STAGE_PAUSED)
        build_lifecycle(full_path)
        mid = read_entries(mid_path)
        full = read_entries(full_path)

        paused = gate_check(Snapshot(mid), CAPABILITY, ARTIFACT_ID, "v2", BOUNDARY,
                            "2025-06-21T00:00:00Z")
        assert not paused.allowed
        assert [(r.reason_kind, r.voucher_id) for r in paused.reasons] \
            == [("pausedByVoucher", f"{VOUCHER_ID}:rev1")]

        remediated = gate_check(Snapshot(full), CAPABILITY, ARTIFACT_ID, "v3", BOUNDARY,
                                "2025-06-27T00:00:00Z")
        assert remediated.allowed

        events = detect_regressions(Snapshot(full))
        assert [(e.test_id, e.artifact_id, e.from_version, e.to_version)
                for e in events] == [(TEST_ID, ARTIFACT_ID, "v1", "v2")]

        credits = [e for e in full if e.entry_type is EntryType.CREDIT]
        assert len(credits) == 1
        assert Decimal(str(credits[0].payload.units)) == Decimal("10.00")

        policy = CreditPolicy.from_doc(POLICY_DOC)
        plans, _report = compute_accrual(Snapshot(mid), policy, WINDOW)
        assert [(p.id, Decimal(str(p.payload.units))) for p in plans] \
            == [(credits[0].id, Decimal("10.00"))]
        replans, _report = compute_accrual(Snapshot(full), policy, WINDOW)
        assert replans == []

        assert time.monotonic() - started < 1.0


LIFECYCLE_PIN = json.loads(
    (Path(__file__).parent / "data" / "lifecycle_pin.json").read_text("utf-8"))


@pytest.mark.parametrize("stage", ["full", "STAGE_PAUSED"])
def test_lifecycle_bytes_are_pinned(stage, tmp_path):
    """The worked example's file digest, `.head` and returned ids, in order,
    for the full ledger and the one that stops once the pause is active."""
    path = tmp_path / "lifecycle.pledger"
    ids = build_lifecycle(path, stop_after=STAGE_PAUSED if stage == "STAGE_PAUSED" else None)
    pin = LIFECYCLE_PIN[stage]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == pin["sha256"]
    assert (tmp_path / "lifecycle.pledger.head").read_text("utf-8") == pin["head"]
    assert list(ids.items()) == list(pin["ids"].items())


# ---------------------------------------------------------------------------
# 2. attribution query


def test_c2_attribution_query(lifecycle):
    with criterion("criterion 2 (attribution query)"):
        _path, _ids, entries = lifecycle
        table = run_query(ATTRIBUTION_QUERY, build_graph(Snapshot(entries)))
        assert table.columns == ["c.id", "t.id", "r.artifact_version",
                                 "r.timestamp", "d.id"]
        assert table.rows == [(
            CONTRIBUTION_ID, TEST_ID, "v2", "2025-06-20T10:00:00Z",
            DEPLOYMENT_ID)]

        mismatches = 0
        for seed in range(100):
            rng = random.Random(41_000 + seed)
            graph_entries = random_graph_entries(rng)
            ast = parse_query(random_query(rng, graph_entries))
            got = evaluate(ast, build_graph(Snapshot(graph_entries))).rows
            if got != brute_force_rows(ast, graph_entries):
                mismatches += 1
        assert mismatches == 0


# ---------------------------------------------------------------------------
# 3. tamper detection

_MUTATION_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


def _hundred_entry_chain() -> list[EntryEnvelope]:
    entries: list[EntryEnvelope] = []
    for i in range(1, 26):
        entries.append(make_contribution(i))
    for j in range(25):
        entries.append(make_test(j))
    for j in range(25):
        entries.append(make_run(j, test_id=f"pl:test:gen:{j:03d}",
                                decision=("pass", "fail", "inconclusive")[j % 3]))
    for j in range(25):
        entries.append(make_artifact(j, version=f"v{j}"))
    assert len(entries) == 100
    return sealed_chain(entries)


def _mutate_once(rng: random.Random, entry: EntryEnvelope) -> EntryEnvelope | None:
    """One accepted single-byte content mutation, or None to redraw.

    The mutation must leave a parseable entry whose canonical content
    differs, otherwise the parse layer rather than the chain would reject it.
    """
    content = canonical_json(replace(entry, integrity=None).to_doc())
    pos = rng.randrange(len(content))
    if not content[pos].isalnum():
        return None
    replacement = rng.choice(_MUTATION_ALPHABET)
    if replacement == content[pos]:
        return None
    mutated_text = content[:pos] + replacement + content[pos + 1:]
    try:
        doc = json.loads(mutated_text)
    except ValueError:
        return None
    if not isinstance(doc, dict):
        return None
    doc["integrity"] = entry.to_doc()["integrity"]
    try:
        mutant = parse_entry(doc)
    except Exception:
        return None
    if canonical_json(replace(mutant, integrity=None).to_doc()) == content:
        return None
    return mutant


def test_c3_tamper_detection():
    with criterion("criterion 3 (tamper detection)"):
        chain = _hundred_entry_chain()
        lines = stored_lines(chain)
        assert verify_chain(chain, lines)[0].valid

        started = time.monotonic()
        rng = random.Random(1789)
        detected = 0
        while detected < 1000:
            index = rng.randrange(len(chain))
            mutant = _mutate_once(rng, chain[index])
            if mutant is None:
                continue
            verdict, _ = verify_chain(chain[:index] + [mutant] + chain[index + 1:],
                                      lines[:index] + stored_lines([mutant]) + lines[index + 1:])
            assert not verdict.valid
            assert verdict.first_broken_index == index
            detected += 1
        assert time.monotonic() - started < 10.0

        assert verify_chain(chain, lines)[0].valid


# ---------------------------------------------------------------------------
# 4. corpus coverage matrix

_EXPECTED_CELLS = {
    "AIAI / Mid-Space / LIVS": {
        "recruitmentPathway": CoverageLevel.REPORTED,
        "rolesAndIntermediaries": CoverageLevel.PARTIAL,
        "consentPrivacyScope": CoverageLevel.PARTIAL,
        "compensationTerms": CoverageLevel.NOT_SPECIFIED,
        "explicitInfluenceLinks": CoverageLevel.PARTIAL,
    },
    "EVADIA+": {
        "recruitmentPathway": CoverageLevel.PARTIAL,
        "rolesAndIntermediaries": CoverageLevel.PARTIAL,
        "consentPrivacyScope": CoverageLevel.PARTIAL,
        "compensationTerms": CoverageLevel.NOT_SPECIFIED,
        "explicitInfluenceLinks": CoverageLevel.NOT_SPECIFIED,
    },
    "AI-EDI-Space / Street Review": {
        "recruitmentPathway": CoverageLevel.REPORTED,
        "rolesAndIntermediaries": CoverageLevel.PARTIAL,
        "consentPrivacyScope": CoverageLevel.PARTIAL,
        "compensationTerms": CoverageLevel.NOT_SPECIFIED,
        "explicitInfluenceLinks": CoverageLevel.PARTIAL,
    },
    "WeDesign+": {
        "recruitmentPathway": CoverageLevel.REPORTED,
        "rolesAndIntermediaries": CoverageLevel.PARTIAL,
        "consentPrivacyScope": CoverageLevel.PARTIAL,
        "compensationTerms": CoverageLevel.REPORTED,
        "explicitInfluenceLinks": CoverageLevel.PARTIAL,
    },
}


def test_c4_corpus_matrix():
    with criterion("criterion 4 (corpus coverage matrix)"):
        matrix = case_matrix(CASE_CODINGS)
        assert [case for case, _row in matrix.rows] == list(_EXPECTED_CELLS)
        cells = dict(matrix.rows)
        checked = 0
        for case, columns in _EXPECTED_CELLS.items():
            for column, level in columns.items():
                assert cells[case][column] is level, (case, column)
                checked += 1
        assert checked == 20


# ---------------------------------------------------------------------------
# 5. sample entry round-trip


def test_c5_sample_entry_round_trip():
    with criterion("criterion 5 (sample entry round-trip)"):
        doc = sample_contribution_doc()
        entry = parse_entry(doc)
        assert validate_structure(entry).violations == []

        blob = canonical_bytes(entry.to_doc())
        assert blob == GOLDEN["canonical"].encode("utf-8")

        # independent serialization oracle: the sample uses only str/int/bool
        assert blob == json.dumps(doc, sort_keys=True, separators=(",", ":"),
                                  ensure_ascii=False).encode("utf-8")

        assert compute_hash(blob) == FROZEN_SAMPLE_DIGEST
        assert GOLDEN["digest"] == FROZEN_SAMPLE_DIGEST
        assert "sha256:" + hashlib.sha256(blob).hexdigest() == FROZEN_SAMPLE_DIGEST


# ---------------------------------------------------------------------------
# 6. credit anti-gaming

_ANTI_GAMING_POLICY = {
    "unitsPerEvent": {"regressionDetected": 10, "remediationCompleted": 0,
                      "scheduledRunDependency": 5},
    "capPerBeneficiaryPerPeriod": 100,
    "periodDays": 365,
    "qualityGate": True,
    "persistenceGateReleases": 0,
}

REDUNDANT_ORG = "pl:org:redundant"


def _redundant_test_history(rng: random.Random) -> list[EntryEnvelope]:
    """A history where test 0 is shadowed run-for-run by test 1.

    Every run of test 0 is mirrored by a run of test 1 with the same
    decision on the same artifact version and checkpoint, so removing test 0
    can never flip a suite verdict. Test 2 runs independently.
    """
    entries = [
        make_contribution(1, steward_org=REDUNDANT_ORG),
        make_contribution(2, steward_org="pl:org:other"),
        make_test(0, motivated_by=["pl:contrib:gen:0001"]),
        make_test(1, motivated_by=["pl:contrib:gen:0002"]),
        make_test(2, motivated_by=["pl:contrib:gen:0002"]),
    ]
    versions = [f"v{v}" for v in range(1, rng.randint(3, 5))]
    for offset, version in enumerate(versions):
        entries.append(make_artifact(offset, version=version))
    j = 0
    for version in versions:
        checkpoint = rng.choice(("scheduledAudit", "postIncident"))
        decision = rng.choice(("pass", "fail", "inconclusive"))
        if rng.random() < 0.8:
            entries.append(make_run(j, test_id="pl:test:gen:000",
                                    version=version, decision=decision,
                                    checkpoint=checkpoint))
            entries.append(make_run(j + 1, test_id="pl:test:gen:001",
                                    version=version, decision=decision,
                                    checkpoint=checkpoint))
            j += 2
        if rng.random() < 0.6:
            entries.append(make_run(
                j, test_id="pl:test:gen:002", version=version,
                decision=rng.choice(("pass", "fail", "inconclusive")),
                checkpoint=rng.choice(("scheduledAudit", "postIncident"))))
            j += 1
    return entries


def test_c6_credit_anti_gaming():
    with criterion("criterion 6 (credit anti-gaming)"):
        policy = CreditPolicy.from_doc(_ANTI_GAMING_POLICY)
        window = ("2025-05-01T00:00:00Z", "2025-07-01T00:00:00Z")
        total_minted = 0
        for seed in range(1000):
            rng = random.Random(60_000 + seed)
            entries = _redundant_test_history(rng)
            plans, report = compute_accrual(Snapshot(entries), policy, window)

            assert all(p.payload.beneficiary != REDUNDANT_ORG for p in plans)

            totals: dict[str, Decimal] = {}
            for plan in plans:
                beneficiary = plan.payload.beneficiary
                totals[beneficiary] = (totals.get(beneficiary, Decimal(0))
                                       + Decimal(str(plan.payload.units)))
            assert all(total <= policy.cap for total in totals.values())

            total_minted += len(plans)
            if seed % 25 == 0:
                replans, _ = compute_accrual(Snapshot(entries + plans), policy, window)
                assert replans == []

        # the generator must actually exercise minting for the property
        # to mean anything
        assert total_minted > 0


# ---------------------------------------------------------------------------
# 7. export conformance defect isolation


def _with_defect(export: dict, defect: str) -> dict:
    doc = copy.deepcopy(export)
    if defect == "a-evidenceFields":
        contribution = next(e for e in doc["entries"]
                            if e["type"] == "Contribution")
        del contribution["compensation"]
    elif defect == "b-traceabilityLinks":
        change = next(e for e in doc["entries"] if e["type"] == "Change")
        del change["links"]["influencedBy"]
    elif defect == "c-testsAndRuns":
        doc["entries"] = [e for e in doc["entries"]
                          if e["type"] != "EvaluationRun"]
    elif defect == "d-activeVouchers":
        doc["activeVouchers"] = []
    else:
        raise AssertionError(defect)
    return doc


def test_c7_export_conformance(lifecycle, mid_lifecycle):
    with criterion("criterion 7 (export conformance)"):
        _path, _ids, full = lifecycle
        _path2, _ids2, mid = mid_lifecycle

        assert check_export_conformance(
            build_export(Snapshot(full), ARTIFACT_ID, "v2")).ok()

        base = build_export(Snapshot(mid), ARTIFACT_ID, "v2")
        report = check_export_conformance(base)
        assert report.ok()
        assert tuple(report.clause_results) == CONFORMANCE_CLAUSES

        for defect in CONFORMANCE_CLAUSES:
            verdict = check_export_conformance(_with_defect(base, defect))
            failed = [clause for clause, result
                      in verdict.clause_results.items() if not result.passed]
            assert failed == [defect]
            assert verdict.overall == "materialNonConformance"


# ---------------------------------------------------------------------------
# 8. gate monotonicity

_GATE_STEWARD = ActorRef(role="communitySteward", steward_org="pl:org:gen-steward")
_GATE_CAPS = ("image-generation", "scene-ranking")
_GATE_BOUNDS = ("consultation_workflow", "workshop")


def _voucher_entry(entry_id: str, minute: int, capability: str, boundary: str,
                   action: str, status: str, conditions=(), expiry=None):
    return EntryEnvelope(
        id=entry_id, entry_type=EntryType.VOUCHER, created_at=stamp(minute),
        actor=_GATE_STEWARD,
        payload=VoucherPayload(
            capability=capability, boundary=boundary, action=action,
            steward=_GATE_STEWARD, status=status,
            conditions=list(conditions), expiry=expiry))


def _random_gate_scenario(rng: random.Random):
    entries = [make_test(0), make_test(1)]
    j = 0
    for version in ("v1", "v2"):
        for t in range(2):
            if rng.random() < 0.7:
                entries.append(make_run(
                    j, test_id=f"pl:test:gen:{t:03d}", version=version,
                    decision=rng.choice(("pass", "fail", "inconclusive"))))
                j += 1

    active_lineages = []
    for k in range(rng.randrange(4)):
        base = f"pl:voucher:gen:{k:03d}"
        capability = rng.choice(_GATE_CAPS)
        boundary = rng.choice(_GATE_BOUNDS)
        action = rng.choice(("pause", "condition", "authorize"))
        conditions = []
        if action == "condition":
            conditions = [VoucherCondition(
                required_test_id="pl:test:gen:000",
                must_pass_on_version=rng.choice((None, "v1", "v2")))]
        expiry = rng.choice((None, None, None,
                             "2025-05-01T11:00:00Z", "2026-01-01T00:00:00Z"))
        statuses = ["issued"]
        if rng.random() < 0.8:
            statuses.append("active")
            if rng.random() < 0.4:
                statuses.append(rng.choice(("satisfied", "revoked", "expired")))
        for rev, status in enumerate(statuses):
            entry_id = base if rev == 0 else f"{base}:rev{rev}"
            entries.append(_voucher_entry(
                entry_id, 600 + 10 * k + rev, capability, boundary, action,
                status, conditions, expiry))
        if statuses[-1] == "active":
            active_lineages.append(
                (base, len(statuses) - 1, capability, boundary, action,
                 conditions, expiry))
    return entries, active_lineages


def test_c8_gate_monotonicity():
    with criterion("criterion 8 (gate monotonicity)"):
        now = "2025-05-02T00:00:00Z"
        artifact = "pl:artifact:gen:sys"
        violations = 0
        for seed in range(10_000):
            rng = random.Random(90_000 + seed)
            entries, active_lineages = _random_gate_scenario(rng)
            capability = rng.choice(_GATE_CAPS)
            boundary = rng.choice(_GATE_BOUNDS)
            version = rng.choice(("v1", "v2"))
            base = gate_check(Snapshot(entries), capability, artifact, version,
                              boundary, now)

            # adding a pause voucher never flips a denial to an allow
            extra_base = "pl:voucher:gen:extra"
            extra = [_voucher_entry(extra_base, 700, rng.choice(_GATE_CAPS),
                                    rng.choice(_GATE_BOUNDS), "pause", "issued")]
            if rng.random() < 0.8:
                extra.append(_voucher_entry(
                    f"{extra_base}:rev1", 701, extra[0].payload.capability,
                    extra[0].payload.boundary, "pause", "active"))
            stricter = gate_check(Snapshot(entries + extra), capability, artifact,
                                  version, boundary, now)
            if not base.allowed and stricter.allowed:
                violations += 1

            # retiring an active voucher never flips an allow to a denial
            if active_lineages:
                lineage = rng.choice(active_lineages)
                base_id, last_rev, cap, bound, action, conditions, expiry = lineage
                retired = _voucher_entry(
                    f"{base_id}:rev{last_rev + 1}", 702, cap, bound, action,
                    rng.choice(("satisfied", "revoked")), conditions, expiry)
                looser = gate_check(Snapshot(entries + [retired]), capability, artifact,
                                    version, boundary, now)
                if base.allowed and not looser.allowed:
                    violations += 1

        assert violations == 0
