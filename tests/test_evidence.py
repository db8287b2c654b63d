"""Evidence coverage coding, exports, and conformance clauses."""

from __future__ import annotations

import argparse
import random

import pytest
from conftest import (
    make_artifact,
    make_change,
    make_contribution,
    make_run,
    make_test,
    make_tombstone,
    oracle_edges,
    random_graph_entries,
    stamp,
)

from pledger.cli import _emit
from pledger.errors import MalformedExport, WrongEntryType
from pledger.evidence import (
    COLUMNS,
    CONFORMANCE_CLAUSES,
    CoverageLevel,
    audit_contribution,
    audit_corpus,
    build_export,
    case_matrix,
    check_export_conformance,
    flag_consent_violations,
)
from pledger.fixtures import (
    ARTIFACT_ID,
    CASE_CODINGS,
    CONTRIBUTION_ID,
    VOUCHER_ID,
)
from pledger import evidence as evidence_mod
from pledger.graph import INFLUENCE_STEPS, Snapshot, build_graph
from pledger.model import (
    ActorRef,
    CompensationBlock,
    ConsentBlock,
    EntryType,
    lineage_base,
    replace,
)

LIFECYCLE_ROW = {
    "recruitmentPathway": CoverageLevel.NOT_SPECIFIED,
    "rolesAndIntermediaries": CoverageLevel.REPORTED,
    "consentPrivacyScope": CoverageLevel.PARTIAL,
    "compensationTerms": CoverageLevel.REPORTED,
    "explicitInfluenceLinks": CoverageLevel.REPORTED,
}


def contribution_with(**tweaks):
    """A baseline generated contribution with selected blocks overridden."""
    entry = make_contribution(tweaks.pop("i", 1),
                              steward_org=tweaks.pop("steward_org", None))
    for name, value in tweaks.items():
        if name in ("consent", "compensation", "actor", "links"):
            setattr(entry, name, value)
        else:
            setattr(entry.payload, name, value)
    return entry


def coded(entry):
    """The entry's codings in a snapshot of that entry alone."""
    return audit_contribution(entry, Snapshot([entry]))


# ---------------------------------------------------------------------------
# coverage levels


def test_coverage_levels_are_ordered():
    order = (CoverageLevel.NOT_SPECIFIED, CoverageLevel.PARTIAL,
             CoverageLevel.REPORTED)
    assert [level.rank for level in order] == [0, 1, 2]
    assert [level.value for level in order] == [
        "NotSpecified", "Partial", "Reported"]


@pytest.mark.parametrize("raw,expected", [
    (CoverageLevel.PARTIAL, CoverageLevel.PARTIAL),
    ("Reported", CoverageLevel.REPORTED),
    ("reported", CoverageLevel.REPORTED),
    ("Not specified", CoverageLevel.NOT_SPECIFIED),
    ("not  specified", CoverageLevel.NOT_SPECIFIED),
    ("PARTIAL", CoverageLevel.PARTIAL),
    ("unheard-of", CoverageLevel.NOT_SPECIFIED),
    (None, CoverageLevel.NOT_SPECIFIED),
    (3, CoverageLevel.NOT_SPECIFIED),
])
def test_coverage_level_parse(raw, expected):
    assert CoverageLevel.parse(raw) is expected


# ---------------------------------------------------------------------------
# per-contribution coding


def test_lifecycle_contribution_codings(lifecycle):
    _path, _ids, entries = lifecycle
    graph = build_graph(Snapshot(entries))
    contribution = next(e for e in entries if e.id == CONTRIBUTION_ID)
    assert audit_contribution(contribution, graph) == LIFECYCLE_ROW

    test = next(e for e in entries if e.entry_type is EntryType.TEST)
    with pytest.raises(WrongEntryType, match=test.id):
        coded(test)


def test_recruitment_coding():
    reported = contribution_with(recruitment_pathway="library workshop series")
    blank = contribution_with(recruitment_pathway="   ")
    absent = contribution_with()
    assert coded(reported)["recruitmentPathway"] is CoverageLevel.REPORTED
    assert coded(blank)["recruitmentPathway"] is CoverageLevel.NOT_SPECIFIED
    assert coded(absent)["recruitmentPathway"] is CoverageLevel.NOT_SPECIFIED


def test_roles_coding():
    bare = contribution_with()
    stewarded = contribution_with(steward_org="pl:org:x")
    facilitated = contribution_with(
        actor=ActorRef(role="facilitator", pseudonym="F1"))
    unroled = contribution_with(actor=ActorRef(role="", pseudonym="P1"))
    assert coded(bare)["rolesAndIntermediaries"] is CoverageLevel.PARTIAL
    assert coded(stewarded)["rolesAndIntermediaries"] is CoverageLevel.REPORTED
    assert coded(facilitated)["rolesAndIntermediaries"] is CoverageLevel.REPORTED
    assert coded(unroled)["rolesAndIntermediaries"] is CoverageLevel.NOT_SPECIFIED


def test_consent_coding():
    absent = contribution_with(consent=None)
    bare = contribution_with(consent=ConsentBlock(status="granted"))
    partial = contribution_with(
        consent=ConsentBlock(status="granted", scope="research", retention="2y"))
    complete = contribution_with(
        consent=ConsentBlock(status="granted", scope="research", retention="2y",
                             reuse_constraints=["no-training"]))
    empty_constraints = contribution_with(
        consent=ConsentBlock(status="granted", scope="research", retention="2y",
                             reuse_constraints=[]))
    assert coded(absent)["consentPrivacyScope"] is CoverageLevel.NOT_SPECIFIED
    assert coded(bare)["consentPrivacyScope"] is CoverageLevel.PARTIAL
    assert coded(partial)["consentPrivacyScope"] is CoverageLevel.PARTIAL
    assert coded(complete)["consentPrivacyScope"] is CoverageLevel.REPORTED
    assert coded(empty_constraints)["consentPrivacyScope"] is CoverageLevel.REPORTED


@pytest.mark.parametrize("compensation,expected", [
    (None, CoverageLevel.NOT_SPECIFIED),
    (CompensationBlock(model=""), CoverageLevel.NOT_SPECIFIED),
    (CompensationBlock(model="none-declared"), CoverageLevel.PARTIAL),
    (CompensationBlock(model="honorarium"), CoverageLevel.PARTIAL),
    (CompensationBlock(model="honorarium", amount=0, currency="CAD"),
     CoverageLevel.PARTIAL),
    (CompensationBlock(model="honorarium", amount=50), CoverageLevel.PARTIAL),
    (CompensationBlock(model="honorarium", amount=True, currency="CAD"),
     CoverageLevel.PARTIAL),
    (CompensationBlock(model="honorarium", amount=50, currency="CAD"),
     CoverageLevel.REPORTED),
    (CompensationBlock(model="hourly", amount=22.5, currency="EUR"),
     CoverageLevel.REPORTED),
    (CompensationBlock(model="extension:revshare"), CoverageLevel.REPORTED),
])
def test_compensation_coding(compensation, expected):
    entry = contribution_with(compensation=compensation)
    assert coded(entry)["compensationTerms"] is expected


def _naive_influence(entries, contribution) -> CoverageLevel:
    """The influence cell by a plain search over the raw links: Reported when
    some sequence of influence steps leads from the contribution to a Change
    or Test entry, else Partial when it declares an influence."""
    types = {e.id: e.entry_type for e in entries}
    successors: dict[str, set[str]] = {}
    for kind, along in INFLUENCE_STEPS:
        for source, target in oracle_edges(entries, kind):
            start, end = (source, target) if along else (target, source)
            successors.setdefault(start, set()).add(end)
    seen, frontier = {contribution.id}, [contribution.id]
    while frontier:
        for succ in successors.get(frontier.pop(), ()):
            if succ in seen or succ not in types:
                continue
            if types[succ] in (EntryType.CHANGE, EntryType.TEST):
                return CoverageLevel.REPORTED
            seen.add(succ)
            frontier.append(succ)
    if contribution.links.influences:
        return CoverageLevel.PARTIAL
    return CoverageLevel.NOT_SPECIFIED


def test_influence_coding_matches_a_naive_search_on_random_graphs():
    coded = dict.fromkeys(CoverageLevel, 0)
    for seed in range(300):
        rng = random.Random(seed)
        entries = random_graph_entries(rng)
        rng.choice(entries).links.influences.append("pl:test:gen:9999")  # dangling
        rng.choice(entries).links.uses_test.append("pl:run:gen:9999")  # dangling
        for target in rng.sample(entries, rng.randint(0, 2)):
            entries.append(make_tombstone(target.id, minute=900 + len(entries)))
        graph = build_graph(Snapshot(entries))
        for entry in entries:
            if entry.entry_type is EntryType.CONTRIBUTION:
                level = audit_contribution(entry, graph)["explicitInfluenceLinks"]
                assert level is _naive_influence(entries, entry), (seed, entry.id)
                coded[level] += 1
    assert min(coded.values()) >= 20, coded


def test_influence_coding_resolves_through_the_graph():
    linked = make_contribution(1)
    linked.links.influences.append("pl:test:gen:000")
    hop = make_contribution(2)
    hop.links.influences.append(linked.id)
    dangling = make_contribution(3)
    dangling.links.influences.append("pl:test:gen:404")
    silent = make_contribution(4)
    passive = make_contribution(5)
    passive.links.influenced_by.append(linked.id)
    graph = build_graph(Snapshot([linked, hop, dangling, silent, passive, make_test(0)]))

    assert audit_contribution(linked, graph)["explicitInfluenceLinks"] \
        is CoverageLevel.REPORTED
    assert audit_contribution(hop, graph)["explicitInfluenceLinks"] \
        is CoverageLevel.REPORTED
    assert audit_contribution(dangling, graph)["explicitInfluenceLinks"] \
        is CoverageLevel.PARTIAL
    assert audit_contribution(silent, graph)["explicitInfluenceLinks"] \
        is CoverageLevel.NOT_SPECIFIED
    # influencedBy alone names what shaped the contribution, not what it shaped
    assert audit_contribution(passive, graph)["explicitInfluenceLinks"] \
        is CoverageLevel.NOT_SPECIFIED


# ---------------------------------------------------------------------------
# corpus matrices


def test_document_mode_formats_codings_verbatim():
    matrix = case_matrix(CASE_CODINGS)
    assert matrix.columns == COLUMNS
    assert [name for name, _ in matrix.rows] == [c["case"] for c in CASE_CODINGS]
    cells = dict(matrix.rows)
    for case in CASE_CODINGS:
        for column in COLUMNS:
            assert cells[case["case"]][column].value == \
                case["codings"][column]

    doc = matrix.to_doc()
    assert doc["columns"] == list(COLUMNS)
    assert doc["rows"][0]["case"] == CASE_CODINGS[0]["case"]


def test_document_mode_defaults_missing_columns():
    matrix = case_matrix([{"case": "thin", "codings": {
        "recruitmentPathway": "Reported"}}])
    row = matrix.rows[0][1]
    assert row["recruitmentPathway"] is CoverageLevel.REPORTED
    assert all(row[c] is CoverageLevel.NOT_SPECIFIED
               for c in COLUMNS if c != "recruitmentPathway")


def test_ledger_mode_groups_by_id_segment(lifecycle):
    _path, _ids, entries = lifecycle
    matrix = audit_corpus(Snapshot(entries))
    assert [name for name, _ in matrix.rows] == ["wedesign"]
    assert matrix.rows[0][1] == LIFECYCLE_ROW


def test_ledger_mode_takes_the_best_level_per_column():
    recruited = contribution_with(i=1, recruitment_pathway="street outreach",
                                  consent=None)
    consented = contribution_with(
        i=2, steward_org="pl:org:x",
        consent=ConsentBlock(status="granted", scope="research",
                             retention="2y", reuse_constraints=[]))
    matrix = audit_corpus(Snapshot([recruited, consented]))
    assert [name for name, _ in matrix.rows] == ["gen"]
    assert matrix.rows[0][1] == {
        "recruitmentPathway": CoverageLevel.REPORTED,
        "rolesAndIntermediaries": CoverageLevel.REPORTED,
        "consentPrivacyScope": CoverageLevel.REPORTED,
        "compensationTerms": CoverageLevel.PARTIAL,
        "explicitInfluenceLinks": CoverageLevel.NOT_SPECIFIED,
    }

    redacted = audit_corpus(Snapshot([recruited, consented, make_tombstone(recruited.id)]))
    assert redacted.rows[0][1]["recruitmentPathway"] is CoverageLevel.NOT_SPECIFIED


def test_ledger_mode_keeps_first_seen_group_order():
    second = replace(make_contribution(2), id="pl:contrib:aaa:0002")
    first = replace(make_contribution(1), id="pl:contrib:zzz:0001")
    matrix = audit_corpus(Snapshot([first, second]))
    assert [name for name, _ in matrix.rows] == ["zzz", "aaa"]


def test_ledger_mode_matches_columnwise_maximum_oracle():
    """Aggregation equals the per-column maximum of per-entry codings."""
    consents = (None,
                ConsentBlock(status="granted"),
                ConsentBlock(status="granted", scope="s", retention="1y",
                             reuse_constraints=[]))
    compensations = (None,
                     CompensationBlock(model="none-declared"),
                     CompensationBlock(model="honorarium", amount=10,
                                       currency="CAD"))
    for seed in range(10):
        rng = random.Random(8100 + seed)
        entries = [make_test(0)]
        for i in range(1, rng.randint(3, 9)):
            entry = contribution_with(
                i=i,
                steward_org=rng.choice((None, "pl:org:x")),
                recruitment_pathway=rng.choice((None, "workshop")),
                consent=rng.choice(consents),
                compensation=rng.choice(compensations),
            )
            entry.id = f"pl:contrib:g{i % 3}:{i:04d}"
            if rng.random() < 0.5:
                entry.links.influences.append(
                    rng.choice(("pl:test:gen:000", "pl:missing:x:1")))
            entries.append(entry)
        graph = build_graph(Snapshot(entries))
        matrix = audit_corpus(graph)
        expected: dict[str, dict[str, CoverageLevel]] = {}
        for entry in entries[1:]:
            row = expected.setdefault(
                entry.id.split(":")[2],
                {c: CoverageLevel.NOT_SPECIFIED for c in COLUMNS})
            for column, level in audit_contribution(entry, graph).items():
                if level.rank > row[column].rank:
                    row[column] = level
        assert dict(matrix.rows) == expected


def test_matrix_renders(capsys):
    table = case_matrix([{"case": "WeDesign+",
                          "codings": {c: "Reported" for c in COLUMNS}}]).table()
    assert table.render_text() == (
        "case       recruitmentPathway  rolesAndIntermediaries  "
        "consentPrivacyScope  compensationTerms  explicitInfluenceLinks\n"
        "---------  ------------------  ----------------------  "
        "-------------------  -----------------  ----------------------\n"
        "WeDesign+  Reported            Reported                "
        "Reported             Reported           Reported\n"
    )
    _emit(argparse.Namespace(format="csv"), None, None, table=table)
    assert capsys.readouterr().out == (
        "case,recruitmentPathway,rolesAndIntermediaries,consentPrivacyScope,"
        "compensationTerms,explicitInfluenceLinks\r\n"
        "WeDesign+,Reported,Reported,Reported,Reported,Reported\r\n"
    )


# ---------------------------------------------------------------------------
# consent violations


def test_withdrawn_consent_flags_only_later_changes():
    original = make_contribution(1)
    withdrawn = replace(
        original,
        id=f"{original.id}:rev1",
        created_at=stamp(30),
        consent=ConsentBlock(status="withdrawn", scope="research",
                             retention="2y"),
    )
    before = make_change(0, influenced_by=[original.id])
    after = make_change(1, influenced_by=[original.id])
    violations = flag_consent_violations(Snapshot([original, before, withdrawn, after]))
    assert violations == [{
        "changeId": after.id,
        "contributionId": original.id,
        "violation": "withdrawnConsent",
    }]

    via_revision = make_change(2, influenced_by=[withdrawn.id])
    violations = flag_consent_violations(Snapshot([original, withdrawn, via_revision]))
    assert [v["violation"] for v in violations] == ["withdrawnConsent"]


def test_evaluation_only_contributions_block_training_changes():
    guarded = make_contribution(1, intended_use="evaluation-only")
    harvest = make_change(0, influenced_by=[guarded.id])
    harvest.payload.change_kind = "dataset"
    adapted = make_change(1, influenced_by=[guarded.id])
    adapted.payload.change_kind = "adapter"
    benign = make_change(2, influenced_by=[guarded.id])

    violations = flag_consent_violations(Snapshot([guarded, harvest, adapted, benign]))
    assert violations == [
        {"changeId": harvest.id, "contributionId": guarded.id,
         "violation": "intendedUseViolation"},
        {"changeId": adapted.id, "contributionId": guarded.id,
         "violation": "intendedUseViolation"},
    ]

    unrestricted = make_contribution(2)
    open_change = make_change(3, influenced_by=[unrestricted.id])
    open_change.payload.change_kind = "dataset"
    assert flag_consent_violations(Snapshot([unrestricted, open_change])) == []


def test_both_violation_rules_can_fire_together():
    guarded = make_contribution(1, intended_use="evaluation-only")
    guarded.consent = ConsentBlock(status="withdrawn")
    change = make_change(0, influenced_by=[guarded.id])
    change.payload.change_kind = "dataset"
    violations = flag_consent_violations(Snapshot([guarded, change]))
    assert sorted(v["violation"] for v in violations) == [
        "intendedUseViolation", "withdrawnConsent"]


def test_consent_violations_skip_redacted_changes():
    guarded = make_contribution(1)
    guarded.consent = ConsentBlock(status="withdrawn")
    change = make_change(0, influenced_by=[guarded.id])
    entries = [guarded, change, make_tombstone(change.id)]
    assert flag_consent_violations(Snapshot(entries)) == []


# ---------------------------------------------------------------------------
# release exports


def test_lifecycle_export_is_a_full_closure(lifecycle):
    _path, _ids, entries = lifecycle
    export = build_export(Snapshot(entries), ARTIFACT_ID, "v2")
    assert export["release"] == {"artifactId": ARTIFACT_ID, "version": "v2"}
    assert [doc["id"] for doc in export["entries"]] == [e.id for e in entries]
    assert export["headDigest"] == entries[-1].integrity.hash
    assert export["activeVouchers"] == []


def test_mid_lifecycle_export_discloses_the_pause(mid_lifecycle):
    _path, ids, entries = mid_lifecycle
    export = build_export(Snapshot(entries), ARTIFACT_ID, "v2")
    assert len(export["activeVouchers"]) == 1
    record = export["activeVouchers"][0]
    assert record["voucherId"] == VOUCHER_ID
    assert record["latestEntryId"] == ids["voucher_active"]
    assert record["status"] == "active"
    assert record["gate"]["allowed"] is False
    assert record["gate"]["reasons"][0]["reasonKind"] == "pausedByVoucher"
    assert record["gate"]["evaluatedAt"] == entries[-1].created_at


def test_export_excludes_unreachable_entries():
    contrib = make_contribution(1)
    test = make_test(0, motivated_by=[contrib.id])
    run = make_run(0, test_id=test.id, version="v1")
    artifact = make_artifact(0, version="v1")
    stray = make_artifact(1, artifact_id="pl:artifact:gen:island", version="v1")
    entries = [contrib, test, run, artifact, stray]

    export = build_export(Snapshot(entries), "pl:artifact:gen:sys", "v1")
    included = [doc["id"] for doc in export["entries"]]
    assert included == [contrib.id, test.id, run.id, artifact.id]

    isolated = build_export(Snapshot(entries), "pl:artifact:gen:island", "v1")
    assert [doc["id"] for doc in isolated["entries"]] == [stray.id]
    assert isolated["headDigest"] == ""


def test_export_pulls_lineages_and_tombstones():
    contrib = make_contribution(1)
    revision = replace(contrib, id=f"{contrib.id}:rev1", created_at=stamp(30))
    test = make_test(0, motivated_by=[contrib.id])
    run = make_run(0, test_id=test.id, version="v1")
    artifact = make_artifact(0, version="v1")
    tomb = make_tombstone(contrib.id)
    entries = [contrib, revision, test, run, artifact, tomb]
    export = build_export(Snapshot(entries), "pl:artifact:gen:sys", "v1")
    assert {doc["id"] for doc in export["entries"]} == {e.id for e in entries}


def _naive_closure(entries, artifact_id: str, version: str) -> list[str]:
    """The export's entries by plain scans: an undirected walk over every
    declared link and payload reference between known ids, plus lineages."""
    snapshot = Snapshot(entries)
    known = {e.id for e in entries}
    neighbours: dict[str, set[str]] = {i: set() for i in known}
    for e in entries:
        targets = [t for _, t in e.links.iter_links()]
        for t in targets + evidence_mod._payload_references(e, snapshot):
            if t in known:
                neighbours[e.id].add(t)
                neighbours[t].add(e.id)
    start = next(e.id for e in entries if e.entry_type is EntryType.ARTIFACT
                 and (e.payload.artifact_id, e.payload.version) == (artifact_id, version))
    seen, frontier = set(), [start]
    while frontier:
        current = frontier.pop()
        if current not in seen:
            seen.add(current)
            frontier += neighbours[current]
            frontier += [i for i in known
                         if lineage_base(i)[0] == lineage_base(current)[0]]
    return [e.id for e in entries if e.id in seen]


def test_export_closure_matches_a_naive_walk_on_random_ledgers():
    exported = 0
    for seed in range(200):
        rng = random.Random(seed)
        entries = random_graph_entries(rng)
        rng.choice(entries).links.influences.append("pl:contrib:gen:9999")  # dangling
        if rng.random() < 0.5:
            entries.append(replace(
                rng.choice(entries), id=f"{rng.choice(entries).id}:rev1"))
        if rng.random() < 0.5:
            entries.append(make_tombstone(rng.choice(entries).id))
        artifacts = [e for e in entries if e.entry_type is EntryType.ARTIFACT]
        if not artifacts:
            continue
        release = rng.choice(artifacts).payload
        export = build_export(Snapshot(entries), release.artifact_id, release.version)
        assert [doc["id"] for doc in export["entries"]] == \
            _naive_closure(entries, release.artifact_id, release.version), seed
        exported += len(export["entries"]) > 1
    assert exported >= 100


def test_export_now_override_and_chain_head(mid_lifecycle):
    _path, _ids, entries = mid_lifecycle
    export = build_export(Snapshot(entries), ARTIFACT_ID, "v2", now="2025-07-04T00:00:00Z")
    assert export["headDigest"] == entries[-1].integrity.hash == Snapshot(entries).head_hash
    assert export["activeVouchers"][0]["gate"]["evaluatedAt"] == \
        "2025-07-04T00:00:00Z"


def test_export_requires_a_declared_version(lifecycle):
    _path, _ids, entries = lifecycle
    with pytest.raises(MalformedExport, match="v9"):
        build_export(Snapshot(entries), ARTIFACT_ID, "v9")


# ---------------------------------------------------------------------------
# conformance


def test_clause_names_are_stable():
    assert CONFORMANCE_CLAUSES == (
        "a-evidenceFields",
        "b-traceabilityLinks",
        "c-testsAndRuns",
        "d-activeVouchers",
    )


def test_lifecycle_exports_conform(lifecycle, mid_lifecycle):
    for _path, _ids, entries in (lifecycle, mid_lifecycle):
        report = check_export_conformance(
            build_export(Snapshot(entries), ARTIFACT_ID, "v2"))
        assert report.ok()
        assert report.overall == "conformant"
        assert set(report.clause_results) == set(CONFORMANCE_CLAUSES)
        assert all(r.passed and r.details == []
                   for r in report.clause_results.values())
        doc = report.to_doc()
        assert doc["overall"] == "conformant"
        assert doc["clauseResults"]["a-evidenceFields"]["pass"] is True


def contribution_doc_of(export: dict) -> dict:
    return next(d for d in export["entries"] if d["type"] == "Contribution")


def test_each_defect_flips_exactly_one_clause(mid_lifecycle):
    _path, _ids, entries = mid_lifecycle

    def fresh() -> dict:
        return build_export(Snapshot(entries), ARTIFACT_ID, "v2")

    mutations = {
        "a-evidenceFields": lambda e: contribution_doc_of(e).pop("compensation"),
        "b-traceabilityLinks": lambda e: next(
            d for d in e["entries"] if d["type"] == "Change"
        )["links"].pop("influencedBy"),
        "c-testsAndRuns": lambda e: e.update(
            entries=[d for d in e["entries"] if d["type"] != "EvaluationRun"]),
        "d-activeVouchers": lambda e: e.update(activeVouchers=[]),
    }
    for broken_clause, mutate in mutations.items():
        export = fresh()
        mutate(export)
        report = check_export_conformance(export)
        assert not report.ok()
        assert report.overall == "materialNonConformance"
        failed = [name for name, result in report.clause_results.items()
                  if not result.passed]
        assert failed == [broken_clause]
        assert report.clause_results[broken_clause].details


def test_disclosure_without_gate_outcome_fails_d(mid_lifecycle):
    _path, _ids, entries = mid_lifecycle
    export = build_export(Snapshot(entries), ARTIFACT_ID, "v2")
    export["activeVouchers"][0].pop("gate")
    report = check_export_conformance(export)
    assert not report.clause_results["d-activeVouchers"].passed
    assert "without a gate outcome" in \
        report.clause_results["d-activeVouchers"].details[0]


def test_documentation_use_is_exempt_from_clause_a(mid_lifecycle):
    _path, _ids, entries = mid_lifecycle
    export = build_export(Snapshot(entries), ARTIFACT_ID, "v2")
    doc = contribution_doc_of(export)
    doc.pop("compensation")
    doc["contribution"]["intendedUse"] = "documentation"
    report = check_export_conformance(export)
    assert report.clause_results["a-evidenceFields"].passed


@pytest.mark.parametrize("export", [
    "not-a-document",
    {},
    {"release": "v1"},
    {"release": {"artifactId": "pl:artifact:gen:sys"}},
    {"release": {"artifactId": "pl:artifact:gen:sys", "version": "v1"}},
    {"release": {"artifactId": "pl:artifact:gen:sys", "version": "v1"},
     "entries": "nope"},
    {"release": {"artifactId": "pl:artifact:gen:sys", "version": "v1"},
     "entries": [], "activeVouchers": "nope"},
])
def test_malformed_exports_are_rejected(export):
    with pytest.raises(MalformedExport):
        check_export_conformance(export)


def test_conformance_and_ledger_audit_build_one_index(monkeypatch, mid_lifecycle):
    _path, _ids, entries = mid_lifecycle
    export = build_export(Snapshot(entries), ARTIFACT_ID, "v2")
    added: list[str] = []
    graphs: list = []
    add, build = Snapshot.add, evidence_mod.build_graph

    def counting_add(self, entry):
        added.append(entry.id)
        add(self, entry)

    def recording_build(source):
        graphs.append(build(source))
        return graphs[-1]

    monkeypatch.setattr(Snapshot, "add", counting_add)
    monkeypatch.setattr(evidence_mod, "build_graph", recording_build)

    check_export_conformance(export)
    assert added == [doc["id"] for doc in export["entries"]]
    assert graphs == []  # no clause reads an edge

    added.clear()
    snapshot = Snapshot(entries)
    assert len(added) == len(entries)
    audit_corpus(snapshot)
    assert len(added) == len(entries)
    assert len(graphs) == 1 and graphs[0] is snapshot
