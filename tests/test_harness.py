"""Decision procedures, suite runs, regression scans, and incident triage."""

from __future__ import annotations

import copy
import random

import pytest

from conftest import (
    make_artifact,
    make_contribution,
    make_run,
    make_test,
    make_tombstone,
    stamp,
)
from pledger.errors import (
    DuplicateId,
    ShapeMismatch,
    UnknownArtifactVersion,
    UnknownContribution,
    WrongKind,
)
from pledger.harness import (
    MISSING_RESULTS,
    decide,
    detect_regressions,
    fold_suite,
    run_suite,
    triage_incident,
    verify_replay,
)
from pledger import model
from pledger.graph import Snapshot
from pledger.model import ActorRef, MeasurementProcedure
from pledger.store import LedgerFile, verify_file

EVALUATOR = ActorRef(role="evaluator", pseudonym="E1")

THRESHOLD_UP = MeasurementProcedure(
    runner_kind="threshold", metric_name="coverage", comparator=">=", bound=0.8)
THRESHOLD_DOWN = MeasurementProcedure(
    runner_kind="threshold", metric_name="glareScore", comparator="<=", bound=0.2)
RUBRIC = MeasurementProcedure(
    runner_kind="rubric", criteria=["ramps", "continuous-paths"], scale_max=5,
    aggregation="mean", pass_mean=4, min_raters=3)
EXTERNAL = MeasurementProcedure(runner_kind="externalRecordOnly")


# -- decide -----------------------------------------------------------------------

@pytest.mark.parametrize("value,expected", [
    (0.8, "pass"),   # bounds are inclusive
    (0.80001, "pass"),
    (0.79999, "fail"),
    (1, "pass"),
    (0, "fail"),
])
def test_threshold_at_least(value, expected):
    assert decide(THRESHOLD_UP, {"value": value}) == expected


@pytest.mark.parametrize("value,expected", [
    (0.2, "pass"),
    (0.19, "pass"),
    (0.21, "fail"),
])
def test_threshold_at_most(value, expected):
    assert decide(THRESHOLD_DOWN, {"value": value}) == expected


@pytest.mark.parametrize("raw", [
    {},
    {"value": "high"},
    {"value": True},
    {"value": None},
    ["not", "a", "doc"],
    "0.9",
])
def test_threshold_shape_mismatches(raw):
    with pytest.raises(ShapeMismatch):
        decide(THRESHOLD_UP, raw)


def test_rubric_mean_is_exact():
    assert decide(RUBRIC, {"scores": [[5, 4], [4, 4], [3, 4]]}) == "pass"  # mean 4
    assert decide(RUBRIC, {"scores": [[4, 4], [4, 4], [4, 3]]}) == "fail"  # 23/6
    assert decide(RUBRIC, {"scores": [[4, 4], [4, 4], [4, 4]]}) == "pass"
    assert decide(RUBRIC, {"scores": [[5, 5], [5, 5], [5, 5]]}) == "pass"
    assert decide(RUBRIC, {"scores": [[0, 0], [0, 0], [0, 0]]}) == "fail"


def test_rubric_below_min_raters_is_inconclusive():
    assert decide(RUBRIC, {"scores": [[5, 5], [5, 5]]}) == "inconclusive"
    assert decide(RUBRIC, {"scores": [[5, 5], [5, 5], [5, 5], [0, 0]]}) == "fail"


def test_rubric_is_permutation_invariant():
    rng = random.Random(11)
    for _ in range(50):
        scores = [[rng.randint(0, 5) for _ in range(2)] for _ in range(rng.randint(3, 6))]
        shuffled = [list(row) for row in scores]
        rng.shuffle(shuffled)
        assert decide(RUBRIC, {"scores": scores}) == \
            decide(RUBRIC, {"scores": shuffled})


@pytest.mark.parametrize("raw", [
    {"scores": []},
    {"scores": "high"},
    {"scores": [[5, 4], [4]]},          # ragged
    {"scores": [[5, 6], [4, 4], [4, 4]]},   # above scaleMax
    {"scores": [[5, -1], [4, 4], [4, 4]]},  # below zero
    {"scores": [[5, "4"], [4, 4], [4, 4]]},
    {"scores": [5, 4, 4]},              # rows must be lists
])
def test_rubric_shape_mismatches(raw):
    with pytest.raises(ShapeMismatch):
        decide(RUBRIC, raw)


@pytest.mark.parametrize("decision", ["pass", "fail", "inconclusive"])
def test_external_attestation_is_copied(decision):
    raw = {"attestation": {"decision": decision, "reportUri": "https://x.example/r"}}
    assert decide(EXTERNAL, raw) == decision


@pytest.mark.parametrize("raw", [
    {},
    {"attestation": "passed"},
    {"attestation": {"decision": "maybe"}},
    {"attestation": {}},
])
def test_external_shape_mismatches(raw):
    with pytest.raises(ShapeMismatch):
        decide(EXTERNAL, raw)


def test_missing_results_marker_is_inconclusive_for_every_kind():
    for measurement in (THRESHOLD_UP, THRESHOLD_DOWN, RUBRIC, EXTERNAL):
        assert decide(measurement, MISSING_RESULTS) == "inconclusive"
        assert decide(measurement, dict(MISSING_RESULTS)) == "inconclusive"


def test_unknown_runner_kind_is_a_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        decide(MeasurementProcedure(runner_kind="vibes"), {"value": 1})


# -- fold_suite ---------------------------------------------------------------------

def test_fold_suite_table():
    assert fold_suite([]) == "allPass"
    assert fold_suite(["pass", "pass"]) == "allPass"
    assert fold_suite(["pass", "inconclusive"]) == "anyInconclusive"
    assert fold_suite(["inconclusive", "fail", "pass"]) == "anyFail"
    assert fold_suite(iter(["fail"])) == "anyFail"


def test_fold_suite_matches_naive_rule():
    rng = random.Random(7)
    for _ in range(200):
        decisions = [rng.choice(("pass", "fail", "inconclusive"))
                     for _ in range(rng.randrange(6))]
        if "fail" in decisions:
            expected = "anyFail"
        elif "inconclusive" in decisions:
            expected = "anyInconclusive"
        else:
            expected = "allPass"
        assert fold_suite(decisions) == expected


# -- run_suite -------------------------------------------------------------------------

@pytest.fixture
def bench(tmp_path):
    """A ledger holding one threshold test and versions v1/v2 of one artifact."""
    led = LedgerFile(tmp_path / "bench.pledger")
    test = led.append(make_test(0))
    v1 = led.append(make_artifact(1, version="v1"))
    v2 = led.append(make_artifact(2, version="v2"))
    yield led, test, v1, v2
    led.close()


def test_run_suite_records_each_run_as_decided(bench):
    led, test, v1, _ = bench
    first = run_suite(led, "preDeploymentGate", "pl:artifact:gen:sys", "v1",
                      {test.id: {"value": 0.1}}, EVALUATOR, created_at=stamp(600))
    run, = first.runs
    assert run.id == "pl:run:gen:v1:001"
    assert run.payload.decision == "pass"
    assert run.payload.artifact_id == "pl:artifact:gen:sys"
    assert run.payload.version == "v1"
    assert run.payload.timestamp == stamp(600)
    assert run.links.uses_test == [test.id]
    assert run.links.evaluates == [v1.id]
    assert led.get(run.id).payload.raw_results == {"value": 0.1}

    # a second suite on the same version takes the next number
    second = run_suite(led, "scheduledAudit", "pl:artifact:gen:sys", "v1",
                       {test.id: {"value": 0.5}}, EVALUATOR, created_at=stamp(601))
    assert [r.id for r in second.runs] == ["pl:run:gen:v1:002"]
    assert second.runs[0].payload.decision == "fail"


def test_run_suite_flags_only_external_attestations(bench):
    led, test, _, _ = bench
    external = led.append(make_test(5, measurement=EXTERNAL))
    report = run_suite(led, "scheduledAudit", "pl:artifact:gen:sys", "v1",
                       {test.id: {"value": 0.1},
                        external.id: {"attestation": {"decision": "pass"}}},
                       EVALUATOR, created_at=stamp(610))
    assert report.decisions == {test.id: "pass", external.id: "pass"}
    stored = {r.payload.test_id: led.get(r.id).to_doc()["run"] for r in report.runs}
    assert stored[external.id]["unattestedByHarness"] is True
    assert "unattestedByHarness" not in stored[test.id]


def test_run_suite_covers_every_live_test(bench):
    led, threshold_test, _, _ = bench
    rubric_test = led.append(make_test(1, measurement=RUBRIC))
    before = len(led)

    report = run_suite(led, "scheduledAudit", "pl:artifact:gen:sys", "v1",
                       {threshold_test.id: {"value": 0.05}}, EVALUATOR,
                       created_at=stamp(700))
    assert report.verdict == "anyInconclusive"
    assert report.missing == [rubric_test.id]
    assert report.decisions == {
        threshold_test.id: "pass", rubric_test.id: "inconclusive"}
    assert len(led) == before + 2
    assert len(report.runs) == 2
    assert all(r.payload.checkpoint == "scheduledAudit" for r in report.runs)
    assert all(r.created_at == stamp(700) for r in report.runs)

    missing_run = led.get(report.runs[1].id)
    assert missing_run.payload.raw_results == MISSING_RESULTS

    doc = report.to_doc()
    assert doc["verdict"] == "anyInconclusive"
    assert doc["missing"] == [rubric_test.id]
    assert doc["runIds"] == [r.id for r in report.runs]


def test_run_suite_verdicts(bench):
    led, test, _, _ = bench
    passing = run_suite(led, "scheduledAudit", "pl:artifact:gen:sys", "v1",
                        {test.id: {"value": 0.1}}, EVALUATOR, created_at=stamp(710))
    assert passing.verdict == "allPass"
    failing = run_suite(led, "scheduledAudit", "pl:artifact:gen:sys", "v2",
                        {test.id: {"value": 0.9}}, EVALUATOR, created_at=stamp(711))
    assert failing.verdict == "anyFail"


def test_run_suite_skips_redacted_tests(bench):
    led, test, _, _ = bench
    led.append(make_tombstone(test.id))
    report = run_suite(led, "scheduledAudit", "pl:artifact:gen:sys", "v1",
                       {}, EVALUATOR, created_at=stamp(720))
    assert report.runs == []
    assert report.verdict == "allPass"


def test_run_suite_needs_declared_version(bench):
    led, _, _, _ = bench
    with pytest.raises(UnknownArtifactVersion):
        run_suite(led, "scheduledAudit", "pl:artifact:gen:sys", "v9",
                  {}, EVALUATOR)


# -- replay ----------------------------------------------------------------------------

def test_verify_replay_on_intact_ledger(lifecycle):
    _, _, entries = lifecycle
    assert verify_replay(Snapshot(entries)) == []


def test_verify_replay_catches_tampered_decisions(lifecycle):
    _, ids, entries = lifecycle
    tampered = copy.deepcopy(entries)
    victim = next(e for e in tampered if e.id == ids["run_v2"])
    victim.payload.decision = "pass"
    mismatches = verify_replay(Snapshot(tampered))
    assert mismatches == [(ids["run_v2"], "pass", "fail")]


def test_verify_replay_reports_results_that_no_longer_fit_the_test(lifecycle):
    _, ids, entries = lifecycle
    tampered = copy.deepcopy(entries)
    victim = next(e for e in tampered if e.id == ids["run_v2"])
    victim.payload.raw_results = {"value": 0.5}
    assert verify_replay(Snapshot(tampered)) == [(ids["run_v2"], "fail", "<shape mismatch>")]


def test_verify_replay_skips_runs_without_a_live_test(lifecycle):
    _, ids, entries = lifecycle
    entries = copy.deepcopy(entries)
    entries.append(make_tombstone("pl:test:accessibility:001"))
    assert verify_replay(Snapshot(entries)) == []


def test_verify_replay_empty_ledger():
    assert verify_replay(Snapshot()) == []


# -- regressions -------------------------------------------------------------------------

def test_detect_regressions_on_lifecycle(lifecycle):
    _, ids, entries = lifecycle
    events = detect_regressions(Snapshot(entries))
    assert len(events) == 1
    event = events[0]
    assert event.test_id == "pl:test:accessibility:001"
    assert event.artifact_id == "pl:artifact:consult:imagegen"
    assert event.from_version == "v1"
    assert event.to_version == "v2"
    assert event.prior_passing_run_id == ids["run_v1"]
    assert event.failing_run_id == ids["run_v2"]


def test_regressions_follow_declaration_order_not_spelling():
    entries = [
        make_test(0),
        make_artifact(1, version="v10"),
        make_artifact(2, version="v2"),
        make_run(1, test_id="pl:test:gen:000", version="v10", decision="pass"),
        make_run(2, test_id="pl:test:gen:000", version="v2", decision="fail"),
    ]
    events = detect_regressions(Snapshot(entries))
    assert [(e.from_version, e.to_version) for e in events] == [("v10", "v2")]

    # Reversed declaration order reads the same runs as fail-then-pass.
    swapped = [entries[0], entries[2], entries[1], entries[3], entries[4]]
    assert detect_regressions(Snapshot(swapped)) == []


def test_regressions_skip_undeclared_versions_and_redacted_runs():
    entries = [
        make_test(0),
        make_artifact(1, version="v1"),
        make_run(1, test_id="pl:test:gen:000", version="v1", decision="pass"),
        make_run(2, test_id="pl:test:gen:000", version="v99", decision="fail"),
    ]
    assert detect_regressions(Snapshot(entries)) == []

    declared = entries[:2] + [
        make_artifact(2, version="v2"),
        entries[2],
        make_run(3, test_id="pl:test:gen:000", version="v2", decision="fail"),
    ]
    assert len(detect_regressions(Snapshot(declared))) == 1
    assert detect_regressions(Snapshot(declared + [make_tombstone("pl:run:gen:003")])) == []


def test_regressions_same_version_rerun_is_not_a_regression():
    entries = [
        make_test(0),
        make_artifact(1, version="v1"),
        make_run(1, test_id="pl:test:gen:000", version="v1", decision="pass"),
        make_run(2, test_id="pl:test:gen:000", version="v1", decision="fail"),
    ]
    assert detect_regressions(Snapshot(entries)) == []


def test_regressions_match_quadratic_oracle_and_interleaving():
    rng = random.Random(23)
    for _ in range(40):
        versions = [f"v{k}" for k in range(1, rng.randint(3, 6))]
        entries = [make_test(0), make_test(1)]
        for k, v in enumerate(versions):
            entries.append(make_artifact(k + 1, version=v))
        run_specs = []
        for j in range(rng.randint(2, 10)):
            run_specs.append((
                rng.choice(("pl:test:gen:000", "pl:test:gen:001")),
                rng.choice(versions + ["v99"]),
                rng.choice(("pass", "fail", "inconclusive")),
            ))
        runs = [make_run(j + 1, test_id=t, version=v, decision=d)
                for j, (t, v, d) in enumerate(run_specs)]
        entries += runs

        rank = {v: i for i, v in enumerate(versions)}
        expected = []
        for test_id in ("pl:test:gen:000", "pl:test:gen:001"):
            history = [(rank[v], j, r) for j, (t, v, d), r in
                       ((j, spec, run) for j, (spec, run) in
                        enumerate(zip(run_specs, runs)))
                       if t == test_id and v in rank]
            history.sort(key=lambda item: (item[0], item[1]))
            for (ra, _, a), (rb, jb, b) in zip(history, history[1:]):
                if (a.payload.decision == "pass" and b.payload.decision == "fail"
                        and rb > ra):
                    expected.append((jb, a.id, b.id))
        expected.sort()
        got = detect_regressions(Snapshot(entries))
        assert [(e.prior_passing_run_id, e.failing_run_id) for e in got] == \
            [(a, b) for _, a, b in expected]

        # Interleaving the two tests' histories differently cannot change
        # events, as long as each history keeps its own order.
        split = {"pl:test:gen:000": [], "pl:test:gen:001": []}
        for (t, _, _), run in zip(run_specs, runs):
            split[t].append(run)
        merged: list = []
        queues = [q for q in split.values() if q]
        while queues:
            queue = rng.choice(queues)
            merged.append(queue.pop(0))
            if not queue:
                queues.remove(queue)
        reshuffled = detect_regressions(Snapshot(entries[:2 + len(versions)] + merged))
        assert {(e.prior_passing_run_id, e.failing_run_id) for e in reshuffled} == \
            {(a, b) for _, a, b in expected}


# -- incident triage ------------------------------------------------------------------------

def test_triage_incident_appends_motivated_test(tmp_path):
    with LedgerFile(tmp_path / "triage.pledger") as led:
        incident = led.append(make_contribution(1, kind="incidentReport"))
        draft = model.TestPayload(
            topic="seating comfort",
            expected_behavior="Benches keep backs and armrests.",
            measurement=MeasurementProcedure(
                runner_kind="threshold", metric_name="benchScore",
                comparator=">=", bound=0.5),
        )
        test = triage_incident(led, incident.id, draft, created_at=stamp(650))

        assert test.id == "pl:test:seating-comfort:001"
        assert incident.id in test.payload.motivated_by
        assert test.links.motivates == [incident.id]
        assert verify_file(led.path)[0].valid

        again = triage_incident(led, incident.id, copy.deepcopy(draft),
                                created_at=stamp(651))
        assert again.id == "pl:test:seating-comfort:002"


def test_triage_incident_leaves_the_draft_as_it_was(tmp_path):
    with LedgerFile(tmp_path / "triage.pledger") as led:
        incident = led.append(make_contribution(1, kind="incidentReport"))
        draft = model.TestPayload(
            topic="shade", expected_behavior="Canopies shade the benches.",
            measurement=MeasurementProcedure(runner_kind="externalRecordOnly"))
        before = copy.deepcopy(draft)
        test = triage_incident(led, incident.id, draft, created_at=stamp(650))
        assert test.payload.motivated_by == [incident.id]
        assert draft == before

        # a refused append, here a taken id, leaves it as it was too
        with pytest.raises(DuplicateId):
            triage_incident(led, incident.id, draft, test_id=test.id,
                            created_at=stamp(651))
        assert draft == before and draft.motivated_by == []


def test_triage_incident_rejections(tmp_path):
    with LedgerFile(tmp_path / "triage.pledger") as led:
        prompt = led.append(make_contribution(1))
        draft = model.TestPayload(
            topic="shade", expected_behavior="x",
            measurement=MeasurementProcedure(runner_kind="externalRecordOnly"))
        with pytest.raises(WrongKind):
            triage_incident(led, prompt.id, draft)
        with pytest.raises(UnknownContribution):
            triage_incident(led, "pl:contrib:gen:9999", draft)
        incident = led.append(make_contribution(2, kind="incidentReport"))
        led.append(make_tombstone(incident.id))
        with pytest.raises(UnknownContribution):
            triage_incident(led, incident.id, draft)
