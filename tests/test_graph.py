"""Link graph construction, influence tracing, and linkage accounting."""

from __future__ import annotations

import copy
import random
from fractions import Fraction

import pytest

from conftest import (
    make_artifact,
    make_change,
    make_contribution,
    make_run,
    make_test,
    make_tombstone,
    oracle_edges,
    oracle_is_deployment,
    random_envelope,
    random_graph_entries,
    stamp,
)
from pledger import graph as graph_mod
from pledger.errors import UnknownNode, WrongEntryType
from pledger.fixtures import ARTIFACT_ID, CONTRIBUTION_ID, DEPLOYMENT_ID, TEST_ID
from pledger.evidence import check_export_conformance
from pledger.graph import (
    Snapshot,
    TraceResult,
    build_graph,
    change_linkage,
    linkage_completeness,
    trace_influence,
)
from pledger.model import (
    ActorRef,
    ArtifactPayload,
    EntryEnvelope,
    EntryType,
    LinkSet,
    lineage_base,
)
from pledger.query import evaluate_field
from pledger.store import LedgerFile, read_entries

LINK_KINDS = ("influences", "influencedBy", "motivates", "usesTest",
              "evaluates", "remediates", "deployedAs", "evidence")


# -- fixture graph shape -------------------------------------------------------

def test_fixture_edge_orientation(lifecycle):
    _, ids, entries = lifecycle
    graph = build_graph(entries)

    # motivates is declared on the Test but points contribution -> test.
    assert (CONTRIBUTION_ID, TEST_ID) in graph.edge_pairs("motivates")
    assert graph.out(CONTRIBUTION_ID, "motivates") == [TEST_ID]
    assert graph.out(TEST_ID, "motivates") == []

    uses = graph.edge_pairs("usesTest")
    assert (ids["change_initial"], TEST_ID) in uses
    assert (ids["change_remediation"], TEST_ID) in uses
    for run in ("run_v1", "run_v2", "run_v3"):
        assert (ids[run], TEST_ID) in uses

    assert graph.edge_pairs("evaluates") == {
        (ids["run_v1"], f"{ARTIFACT_ID}:v1"),
        (ids["run_v2"], f"{ARTIFACT_ID}:v2"),
        (ids["run_v3"], f"{ARTIFACT_ID}:v3"),
    }
    assert graph.edge_pairs("deployedAs") == {
        (f"{ARTIFACT_ID}:v1", DEPLOYMENT_ID),
        (f"{ARTIFACT_ID}:v2", DEPLOYMENT_ID),
        (f"{ARTIFACT_ID}:v3", DEPLOYMENT_ID),
    }
    assert graph.edge_pairs("remediates") == {
        (ids["change_remediation"], ids["run_v2"])}

    # influences includes the reverse reading of declared influencedBy.
    influences = graph.edge_pairs("influences")
    assert (CONTRIBUTION_ID, TEST_ID) in influences
    assert (CONTRIBUTION_ID, ids["change_initial"]) in influences
    assert (CONTRIBUTION_ID, ids["change_remediation"]) in influences
    assert (TEST_ID, CONTRIBUTION_ID) in graph.edge_pairs("influencedBy")


def test_fixture_edges_match_raw_link_scan(lifecycle):
    _, _, entries = lifecycle
    graph = build_graph(entries)
    for kind in LINK_KINDS:
        assert graph.edge_pairs(kind) == oracle_edges(entries, kind), kind


def test_random_edges_match_raw_link_scan():
    for seed in range(20):
        rng = random.Random(seed)
        entries = [random_envelope(rng, i) for i in range(rng.randint(3, 25))]
        # one id repeated by another random entry: the first occurrence is
        # the node, and both declare edges
        first = rng.choice(entries)
        repeat = random_envelope(rng, len(entries))
        repeat.id = first.id
        entries.insert(rng.randrange(entries.index(first) + 1, len(entries) + 1), repeat)
        graph = build_graph(entries)
        assert graph.nodes[first.id] is first
        assert graph.node(first.id) is first
        assert graph.edges == [(t, k, e.id) if k == "motivates" else (e.id, k, t)
                               for e in entries for k, t in e.links.iter_links()]
        for kind in LINK_KINDS:
            assert graph.edge_pairs(kind) == oracle_edges(entries, kind), (seed, kind)
        for entry in entries:
            if entry is not repeat:
                assert graph.is_deployment(entry.id) == oracle_is_deployment(entry)


def test_deployment_detection(lifecycle):
    _, _, entries = lifecycle
    graph = build_graph(entries)
    assert graph.deployment_ids() == [DEPLOYMENT_ID]
    assert graph.is_deployment(DEPLOYMENT_ID)
    assert not graph.is_deployment(f"{ARTIFACT_ID}:v1")
    assert not graph.is_deployment(CONTRIBUTION_ID)
    assert not graph.is_deployment("pl:artifact:gen:unknown")


def test_redacted_deployment_still_counts_when_deployed_to():
    deployment = EntryEnvelope(
        id="pl:artifact:gen:dep",
        entry_type=EntryType.ARTIFACT,
        created_at=stamp(1),
        actor=ActorRef(role="deployer", pseudonym="D1"),
        payload=ArtifactPayload(
            artifact_id="pl:artifact:gen:dep",
            artifact_kind="extension:deployment",
            version="v1",
            content_ref="https://gen.example/dep",
            boundary="consultation_workflow",
        ),
    )
    source = EntryEnvelope(
        id="pl:artifact:gen:sys:v1",
        entry_type=EntryType.ARTIFACT,
        created_at=stamp(2),
        actor=ActorRef(role="maintainer", pseudonym="M1"),
        payload=ArtifactPayload(
            artifact_id="pl:artifact:gen:sys",
            artifact_kind="model",
            version="v1",
            content_ref="https://gen.example/v1",
        ),
        links=LinkSet(deployed_as=[deployment.id]),
    )
    graph = build_graph([deployment, source, make_tombstone(deployment.id)])
    assert deployment.id in graph.snapshot.hidden
    assert evaluate_field(graph, deployment.id, "boundary") is None
    assert graph.is_deployment(deployment.id)

    # Without an incoming deployedAs edge the hidden payload proves nothing.
    lonely = build_graph([deployment, make_tombstone(deployment.id)])
    assert not lonely.is_deployment(deployment.id)


def test_influence_views_are_symmetric():
    a = make_contribution(1, links=LinkSet(influences=["pl:contrib:gen:0002"]))
    b = make_contribution(2)
    c = make_contribution(3, links=LinkSet(influenced_by=["pl:contrib:gen:0001"]))
    graph = build_graph([a, b, c])
    assert graph.neighbours(a.id, "influences") == {b.id, c.id}
    assert graph.neighbours(b.id, "influencedBy") == {a.id}
    assert graph.neighbours(c.id, "influencedBy") == {a.id}
    assert graph.neighbours(b.id, "influences") == set()


def test_graph_is_a_view_over_one_snapshot(lifecycle):
    path, _, entries = lifecycle
    ledger = LedgerFile(path, writable=False)
    graph = build_graph(ledger)
    assert graph.snapshot is ledger.snapshot
    assert graph.nodes is ledger.snapshot.by_id
    snapshot = Snapshot(entries)
    assert build_graph(snapshot).snapshot is snapshot
    assert build_graph(graph).snapshot is graph.snapshot
    assert Snapshot.of(graph) is graph.snapshot
    assert build_graph(entries).edges == graph.edges


def test_graph_over_a_ledger_file_reads_later_appends(tmp_path):
    contrib = make_contribution(1, links=LinkSet(influences=["pl:test:gen:001"]))
    test = make_test(1)
    change = make_change(1, influenced_by=[contrib.id], uses_test=[test.id])
    with LedgerFile(tmp_path / "gen.pledger") as ledger:
        ledger.append(contrib)
        graph = build_graph(ledger)
        assert graph.dangling == [(contrib.id, test.id)]
        assert linkage_completeness(graph).total_changes == 0
        ledger.append(test)
        ledger.append(change)
        fresh = build_graph(list(ledger))
        assert set(graph.nodes) == set(fresh.nodes) == {contrib.id, test.id, change.id}
        assert graph.edges == fresh.edges
        assert graph.dangling == fresh.dangling == []
        assert graph.neighbours(contrib.id, "influences") == {test.id, change.id}
        assert graph.into(test.id, "usesTest") == [change.id]
        assert linkage_completeness(graph) == linkage_completeness(fresh)
        assert linkage_completeness(graph).changes_fully_linked == 1


def test_unknown_node_raises():
    graph = build_graph([make_contribution(1)])
    with pytest.raises(UnknownNode):
        graph.node("pl:contrib:gen:9999")
    assert graph.out("pl:contrib:gen:9999", "influences") == []


# -- influence tracing ----------------------------------------------------------

def test_trace_influence_fixture_paths(lifecycle):
    _, ids, entries = lifecycle
    graph = build_graph(entries)
    result = trace_influence(graph, CONTRIBUTION_ID)
    assert not result.truncated
    assert result.paths == [
        [CONTRIBUTION_ID, TEST_ID, ids[f"run_{v}"], f"{ARTIFACT_ID}:{v}", DEPLOYMENT_ID]
        for v in ("v1", "v2", "v3")
    ]


def _oracle_trace(entries: list[EntryEnvelope], start: str) -> list[list[str]]:
    """Every simple path from `start` to a deployment, by exhaustive walk."""
    known = {e.id for e in entries}
    per_kind = {kind: oracle_edges(entries, kind) for kind in LINK_KINDS}

    def successors(nid: str) -> list[str]:
        succ = {t for s, t in per_kind["influences"] if s == nid}
        succ |= {t for s, t in per_kind["motivates"] if s == nid}
        succ |= {s for s, t in per_kind["usesTest"] if t == nid}
        succ |= {t for s, t in per_kind["evaluates"] if s == nid}
        succ |= {t for s, t in per_kind["deployedAs"] if s == nid}
        return sorted(succ & known)

    deployments = {e.id for e in entries if oracle_is_deployment(e)}
    expected: list[list[str]] = []

    def walk(nid: str, path: list[str]) -> None:
        if nid in deployments:
            expected.append(list(path))
            return
        for s in successors(nid):
            if s not in path:
                path.append(s)
                walk(s, path)
                path.pop()

    walk(start, [start])
    return sorted(expected)


def test_trace_influence_matches_exhaustive_enumeration(lifecycle):
    _, _, entries = lifecycle
    result = trace_influence(build_graph(entries), CONTRIBUTION_ID)
    assert result.paths == _oracle_trace(entries, CONTRIBUTION_ID)


def test_trace_influence_matches_exhaustive_enumeration_on_random_graphs():
    traced = 0
    for seed in range(400):
        entries = random_graph_entries(random.Random(seed))
        graph = build_graph(entries)
        for entry in entries:
            if entry.entry_type is EntryType.CONTRIBUTION:
                result = trace_influence(graph, entry.id)
                assert result.paths == _oracle_trace(entries, entry.id), seed
                assert not result.truncated
                traced += bool(result.paths)
    assert traced >= 50


def test_trace_influence_truncation():
    entries = []
    prev: str | None = None
    for i in range(1, 9):
        links = LinkSet(influenced_by=[prev]) if prev else LinkSet()
        entry = make_contribution(i, links=links)
        entries.append(entry)
        prev = entry.id
    deployment = EntryEnvelope(
        id="pl:artifact:gen:dep",
        entry_type=EntryType.ARTIFACT,
        created_at=stamp(50),
        actor=ActorRef(role="deployer", pseudonym="D1"),
        payload=ArtifactPayload(
            artifact_id="pl:artifact:gen:dep",
            artifact_kind="extension:deployment",
            version="v1",
            content_ref="https://gen.example/dep",
            boundary="workshop",
        ),
        links=LinkSet(influenced_by=[prev]),
    )
    entries.append(deployment)

    graph = build_graph(entries)
    full = trace_influence(graph, "pl:contrib:gen:0001")
    assert full.paths == [[e.id for e in entries]]
    assert not full.truncated

    short = trace_influence(graph, "pl:contrib:gen:0001", max_length=4)
    assert short.paths == []
    assert short.truncated

    exact = trace_influence(graph, "pl:contrib:gen:0001", max_length=8)
    assert exact.paths == [[e.id for e in entries]]
    assert not exact.truncated


def _ladder(rungs: int, width: int = 2, deployed: bool = True) -> list[EntryEnvelope]:
    """Contributions joined by `rungs` rungs of `width` parallel nodes, ending
    in a deployment when `deployed`: width**rungs paths over
    (width + 1) * rungs + 1 contributions."""
    def node(i: int, *targets: str) -> EntryEnvelope:
        return make_contribution(i, links=LinkSet(influences=list(targets)))

    def cid(i: int) -> str:
        return f"pl:contrib:gen:{i:04d}"

    entries = []
    for r in range(rungs):
        join = (width + 1) * r + 1
        middles = range(join + 1, join + width + 1)
        entries.append(node(join, *map(cid, middles)))
        entries += [node(m, cid(join + width + 1)) for m in middles]
    last = (width + 1) * rungs + 1
    if not deployed:
        return entries + [node(last)]
    deployment = make_artifact(0, artifact_id="pl:artifact:gen:dep",
                               artifact_kind="extension:deployment", boundary="workshop")
    return entries + [node(last, deployment.id), deployment]


def test_trace_influence_caps_the_number_of_paths():
    graph = build_graph(_ladder(5))
    full = trace_influence(graph, "pl:contrib:gen:0001")
    assert len(full.paths) == 2 ** 5 and not full.truncated
    assert trace_influence(graph, "pl:contrib:gen:0001", max_paths=32) == full

    capped = trace_influence(graph, "pl:contrib:gen:0001", max_paths=10)
    assert capped.truncated
    assert capped.paths == full.paths[:10]

    # 2**30 paths, far past the length bound too: the cap ends the search.
    huge = build_graph(_ladder(30))
    result = trace_influence(huge, "pl:contrib:gen:0001", max_length=100, max_paths=50)
    assert result.truncated and len(result.paths) == 50
    assert all(len(path) == 2 * 30 + 2 for path in result.paths)


def test_trace_influence_never_expands_dead_ends(monkeypatch):
    expanded: list[str] = []
    steps = graph_mod._trace_steps

    def counting(graph, node_id):
        expanded.append(node_id)
        return steps(graph, node_id)

    monkeypatch.setattr(graph_mod, "_trace_steps", counting)
    # Seven 4-way rungs and no deployment: 4**7 prefixes, none of them live.
    entries = _ladder(7, width=4, deployed=False)
    assert len(entries) == 36
    result = trace_influence(build_graph(entries), "pl:contrib:gen:0001")
    assert result == TraceResult() and expanded == ["pl:contrib:gen:0001"]

    # The same ladder beside a one-step path to a deployment.
    expanded.clear()
    deployment = make_artifact(0, artifact_id="pl:artifact:gen:dep",
                               artifact_kind="extension:deployment", boundary="workshop")
    entries[0].links.influences.append(deployment.id)
    result = trace_influence(build_graph(entries + [deployment]), "pl:contrib:gen:0001")
    assert result.paths == [["pl:contrib:gen:0001", deployment.id]]
    assert not result.truncated and expanded == ["pl:contrib:gen:0001"]


def test_trace_influence_survives_cycles():
    a = make_contribution(1, links=LinkSet(influences=["pl:contrib:gen:0002"]))
    b = make_contribution(2, links=LinkSet(influences=["pl:contrib:gen:0001"]))
    graph = build_graph([a, b])
    result = trace_influence(graph, a.id)
    assert result.paths == []
    assert not result.truncated


def test_trace_influence_rejects_non_contributions(lifecycle):
    _, _, entries = lifecycle
    graph = build_graph(entries)
    with pytest.raises(WrongEntryType):
        trace_influence(graph, TEST_ID)
    with pytest.raises(UnknownNode):
        trace_influence(graph, "pl:contrib:gen:9999")


# -- linkage completeness --------------------------------------------------------

def test_linkage_fixture_is_fully_traceable(lifecycle):
    _, _, entries = lifecycle
    report = linkage_completeness(build_graph(entries))
    assert report.total_changes == 2
    assert report.changes_with_contribution == 2
    assert report.changes_with_test == 2
    assert report.changes_fully_linked == 2
    assert report.tests_with_run == 1
    assert report.completeness_ratio == Fraction(1)
    assert report.dangling == [(CONTRIBUTION_ID, "pl:evidence:workshoplog:001")]
    doc = report.to_doc()
    assert doc["completenessRatio"] == "1"
    assert doc["completenessRatioDecimal"] == 1.0
    assert doc["dangling"] == [
        {"entryId": CONTRIBUTION_ID, "target": "pl:evidence:workshoplog:001"}]


def test_linkage_empty_ledger_ratio_is_one():
    report = linkage_completeness(build_graph([make_contribution(1)]))
    assert report.total_changes == 0
    assert report.completeness_ratio == Fraction(1)


def test_linkage_change_reached_through_run():
    contrib = make_contribution(1)
    test = make_test(1)
    change = make_change(1, influenced_by=[contrib.id], versions=("v4",))
    run = make_run(1, test_id=test.id, version="v4")
    report = linkage_completeness(build_graph([contrib, test, change, run]))
    assert report.changes_with_test == 1
    assert report.changes_fully_linked == 1
    assert report.completeness_ratio == Fraction(1)

    # The same run on a different version proves nothing about the change.
    other = make_run(2, test_id=test.id, version="v9")
    report = linkage_completeness(build_graph([contrib, test, change, other]))
    assert report.changes_with_test == 0
    assert report.completeness_ratio == Fraction(0)


def test_linkage_redacted_pieces_stop_counting():
    contrib = make_contribution(1)
    test = make_test(1)
    change = make_change(1, influenced_by=[contrib.id], uses_test=[test.id])
    base = [contrib, test, change]
    assert linkage_completeness(build_graph(base)).completeness_ratio == Fraction(1)

    redacted_change = base + [make_tombstone(change.id)]
    report = linkage_completeness(build_graph(redacted_change))
    assert report.changes_with_contribution == 1
    assert report.changes_with_test == 0
    assert report.completeness_ratio == Fraction(0)

    run = make_run(1, test_id=test.id, version="v1")
    with_run = [contrib, test, make_change(2, influenced_by=[contrib.id]), run,
                make_tombstone(run.id)]
    report = linkage_completeness(build_graph(with_run))
    assert report.changes_with_test == 0


def test_linkage_evidence_links_only_count_when_asked():
    contrib = make_contribution(1)
    test = make_test(1)
    change = make_change(1, uses_test=[test.id])
    change.links.evidence.append(contrib.id)
    graph = build_graph([contrib, test, change])
    assert linkage_completeness(graph).changes_with_contribution == 0
    assert linkage_completeness(
        graph, include_evidence=True).changes_with_contribution == 1


def _random_linkage_ledger(seed: int, tombstones: bool = False):
    """Random contributions, tests, changes and runs (some changes and runs
    tombstoned when asked), with each change's naive (has contribution,
    has test) recount by plain scans."""
    rng = random.Random(1000 + seed)
    contribs = [make_contribution(i) for i in range(1, rng.randint(2, 5))]
    tests = [make_test(j) for j in range(rng.randint(1, 3))]
    versions = [f"v{k}" for k in range(1, 6)]
    changes = []
    for j in range(rng.randint(1, 6)):
        influenced = [rng.choice(contribs).id] if rng.random() < 0.6 else []
        if rng.random() < 0.2:
            influenced.append("pl:contrib:gen:9999")  # unresolvable
        used = [rng.choice(tests).id] if rng.random() < 0.4 else []
        changes.append(make_change(
            j, influenced_by=influenced, uses_test=used,
            versions=rng.sample(versions, rng.randint(1, 2))))
    runs = [
        make_run(j, test_id=rng.choice(tests).id, version=rng.choice(versions))
        for j in range(rng.randint(0, 6))]
    entries = contribs + tests + changes + runs
    rng.shuffle(entries)
    hidden = {e.id for e in changes + runs if tombstones and rng.random() < 0.25}
    entries += [make_tombstone(target) for target in sorted(hidden)]

    contrib_ids = {c.id for c in contribs}
    test_ids = {t.id for t in tests}
    runs_by_key: dict[tuple[str, str], list] = {}
    for r in runs:
        if r.id not in hidden:
            runs_by_key.setdefault((r.payload.artifact_id, r.payload.version), []).append(r)
    expected = {}
    for change in changes:
        has_contribution = any(t in contrib_ids for t in change.links.influenced_by)
        has_test = any(t in test_ids for t in change.links.uses_test)
        if not has_test:
            for ca in change.payload.changed_artifacts:
                for r in runs_by_key.get((ca.artifact_id, ca.version_after), []):
                    if any(t in test_ids for t in r.links.uses_test):
                        has_test = True
        expected[change.id] = (has_contribution, has_test and change.id not in hidden)
    return entries, expected, hidden


def test_linkage_matches_naive_recount_on_random_graphs():
    for seed in range(30):
        entries, expected, _ = _random_linkage_ledger(seed)
        expect_contribution = sum(c for c, _ in expected.values())
        expect_test = sum(t for _, t in expected.values())
        expect_full = sum(c and t for c, t in expected.values())

        report = linkage_completeness(build_graph(entries))
        assert report.total_changes == len(expected)
        assert report.changes_with_contribution == expect_contribution
        assert report.changes_with_test == expect_test
        assert report.changes_fully_linked == expect_full
        assert report.completeness_ratio == Fraction(expect_full, len(expected))


def test_conformance_flags_exactly_the_live_changes_linkage_does_not_count():
    flagged_any = False
    for seed in range(30):
        entries, expected, hidden = _random_linkage_ledger(seed, tombstones=True)
        graph = build_graph(entries)
        assert {change.id: (c, t) for change, c, t in change_linkage(graph)} == expected
        report = linkage_completeness(graph)
        assert report.changes_fully_linked == sum(c and t for c, t in expected.values())

        export = {"release": {"artifactId": "pl:artifact:gen:sys", "version": "v1"},
                  "entries": [e.to_doc() for e in entries], "activeVouchers": []}
        clause = check_export_conformance(export).clause_results["b-traceabilityLinks"]
        flagged = {detail.split(": ")[0] for detail in clause.details}
        unlinked = {cid for cid, (c, t) in expected.items()
                    if cid not in hidden and not (c and t)}
        assert flagged == unlinked, seed
        assert clause.passed == (not unlinked)
        flagged_any |= bool(flagged)
    assert flagged_any


def test_edge_list_export(tmp_path):
    a = make_contribution(1, links=LinkSet(influences=["pl:test:gen:001"]))
    test = make_test(1)
    test.links.motivates.append(a.id)
    graph = build_graph([a, test])
    text = graph.edge_list_text()
    assert text.splitlines() == [
        f"{a.id}\tinfluences\t{test.id}",
        f"{a.id}\tmotivates\t{test.id}",
    ]
    out = tmp_path / "edges.tsv"
    graph.write_edge_list(out)
    assert out.read_text() == text


# -- snapshot indexes ----------------------------------------------------------

def _revised_ledger(rng: random.Random, n: int = 60) -> list[EntryEnvelope]:
    """Random entries, about a third followed by `:rev<k>` revisions (vouchers
    walk issued -> active -> satisfied), some revisions tombstoned, and ids
    that only look like revisions."""
    entries: list[EntryEnvelope] = []
    for i in range(n):
        entry = random_envelope(rng, i)
        entries.append(entry)
        if rng.random() < 0.35:
            for k in range(1, rng.randint(1, 2) + 1):
                revision = copy.deepcopy(entry)
                revision.id = f"{entry.id}:rev{k}"
                if entry.entry_type is EntryType.VOUCHER:
                    revision.payload.status = ("active", "satisfied")[k - 1]
                entries.append(revision)
                if rng.random() < 0.3:
                    entries.append(make_tombstone(revision.id, minute=i))
            if entry.entry_type is not EntryType.VOUCHER:
                # ids that contain ":rev" without ending in a revision of the base
                for suffix in (":review", ":rev1:rev2"):
                    lookalike = copy.deepcopy(entry)
                    lookalike.id = entry.id + suffix
                    entries.append(lookalike)
    return entries


def _naive_view(entries: list[EntryEnvelope]) -> dict:
    """Every Snapshot index recomputed by plain scans, entries as positions."""
    def grouped(key_of) -> dict:
        out: dict = {}
        for i, e in enumerate(entries):
            key = key_of(e)
            if key is not None:
                out.setdefault(key, []).append(i)
        return out

    first: dict[str, int] = {}
    hidden: dict[str, int] = {}
    for i, e in enumerate(entries):
        first.setdefault(e.id, i)
        if e.entry_type is EntryType.TOMBSTONE:
            hidden.setdefault(e.payload.target_id, i)
    return {
        "entries": [e.id for e in entries],
        "by_id": first,
        "position": first,
        "hidden": hidden,
        "by_type": {t: [i for i, e in enumerate(entries) if e.entry_type is t]
                    for t in EntryType},
        "lineages": grouped(lambda e: lineage_base(e.id)[0]),
        "test_runs": grouped(lambda e: e.payload.test_id
                             if e.entry_type is EntryType.EVALUATION_RUN else None),
        "suite_runs": grouped(lambda e: (e.payload.artifact_id, e.payload.version,
                                         e.payload.checkpoint)
                              if e.entry_type is EntryType.EVALUATION_RUN else None),
        "versions": grouped(lambda e: (e.payload.artifact_id, e.payload.version)
                            if e.entry_type is EntryType.ARTIFACT else None),
    }


def _view(snapshot: Snapshot) -> dict:
    at = {id(e): i for i, e in enumerate(snapshot.entries)}

    def positions(index: dict) -> dict:
        return {k: [at[id(e)] for e in v] for k, v in index.items()}

    return {
        "entries": [e.id for e in snapshot.entries],
        "by_id": {k: at[id(e)] for k, e in snapshot.by_id.items()},
        "position": dict(snapshot.position),
        "hidden": {k: at[id(e)] for k, e in snapshot.hidden.items()},
        "by_type": positions(snapshot.by_type),
        "lineages": positions(snapshot.lineages),
        "test_runs": positions(snapshot.test_runs),
        "suite_runs": positions(snapshot.suite_runs),
        "versions": positions(snapshot.versions),
    }


def test_snapshot_indexes_match_naive_scans():
    for seed in range(30):
        rng = random.Random(seed)
        entries = _revised_ledger(rng)
        # one id repeated: the first occurrence keeps by_id and position
        at = rng.randrange(len(entries))
        entries.insert(rng.randrange(at + 1, len(entries) + 1), copy.deepcopy(entries[at]))
        snapshot = Snapshot(entries)
        assert _view(snapshot) == _naive_view(entries)
        for entry in entries:
            base = lineage_base(entry.id)[0]
            top = max(lineage_base(e.id)[1] for e in entries
                      if lineage_base(e.id)[0] == base)
            assert snapshot.next_revision_id(entry.id) == f"{base}:rev{top + 1}"
        assert Snapshot.of(snapshot) is snapshot
        assert _view(Snapshot.of(build_graph(entries))) == _view(snapshot)


def test_snapshot_grown_by_appends_matches_a_fresh_read(tmp_path):
    for seed in range(10):
        path = tmp_path / f"{seed}.pledger"
        with LedgerFile(path) as ledger:
            for entry in _revised_ledger(random.Random(seed)):
                ledger.append(entry)
            grown = ledger.snapshot
            assert Snapshot.of(ledger) is grown
        fresh = read_entries(path)
        assert _view(grown) == _view(Snapshot(fresh)) == _naive_view(fresh)
