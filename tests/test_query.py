"""Query language: parsing, printing, evaluation, and the saved library."""

from __future__ import annotations

import random

import pytest

from conftest import (
    _LINK_ATTRS,
    brute_force_rows,
    make_artifact,
    make_change,
    make_contribution,
    make_run,
    make_test,
    make_tombstone,
    random_graph_entries,
    random_query,
)
from pledger.errors import (
    QueryParameterError,
    QuerySyntaxError,
    UnboundVariable,
    UnknownLabel,
    UnknownQueryName,
    UnknownRelation,
)
from pledger.fixtures import CONTRIBUTION_ID, DEPLOYMENT_ID, TEST_ID
from pledger.graph import build_graph
from pledger.model import LinkSet
from pledger.query import (
    SAVED_QUERIES,
    escape_literal,
    evaluate,
    evaluate_field,
    parse_query,
    print_query,
    run_query,
    run_saved_query,
)

ATTRIBUTION_QUERY = '''MATCH (c:Contribution)-[:MOTIVATES]->(t:Test)
MATCH (t)<-[:USES_TEST]-(r:EvaluationRun)-[:EVALUATES]->(a:Artifact)
MATCH (a)-[:DEPLOYED_AS]->(d:Deployment)
WHERE t.topic = "accessibility" AND r.decision = "fail"
  AND d.boundary = "consultation_workflow"
RETURN c.id, t.id, r.artifact_version, r.timestamp, d.id;'''


# -- parsing ---------------------------------------------------------------------

def test_attribution_query_parses_to_expected_shape():
    ast = parse_query(ATTRIBUTION_QUERY)
    assert len(ast.matches) == 3
    assert [n.var for n in ast.matches[0].nodes] == ["c", "t"]
    assert [n.label for n in ast.matches[0].nodes] == ["Contribution", "Test"]
    assert ast.matches[0].edges[0].relation == "motivates"
    assert ast.matches[0].edges[0].direction == "forward"

    second = ast.matches[1]
    assert [n.var for n in second.nodes] == ["t", "r", "a"]
    assert second.nodes[0].label is None
    assert [e.relation for e in second.edges] == ["usesTest", "evaluates"]
    assert [e.direction for e in second.edges] == ["backward", "forward"]

    third = ast.matches[2]
    assert [n.label for n in third.nodes] == [None, "Deployment"]
    assert [n.var for n in third.nodes] == ["a", "d"]
    assert third.edges[0].relation == "deployedAs"

    assert [(p.var, p.field, p.value) for p in ast.predicates] == [
        ("t", "topic", "accessibility"),
        ("r", "decision", "fail"),
        ("d", "boundary", "consultation_workflow"),
    ]
    assert [p.column for p in ast.projections] == [
        "c.id", "t.id", "r.artifact_version", "r.timestamp", "d.id"]


def test_print_parse_round_trip():
    ast = parse_query(ATTRIBUTION_QUERY)
    assert parse_query(print_query(ast)) == ast


def test_label_and_relation_names_are_case_insensitive():
    for text in (
        'MATCH (c:contribution) RETURN c.id;',
        'MATCH (c:CONTRIBUTION) RETURN c.id;',
        'MATCH (c)-[:usestest]->(t) RETURN c.id;',
        'MATCH (c)-[:uses_test]->(t) RETURN c.id;',
        'MATCH (c)-[:USES_TEST]->(t) RETURN c.id;',
    ):
        parse_query(text)


def test_keywords_are_case_sensitive():
    with pytest.raises(QuerySyntaxError):
        parse_query('match (c) return c.id;')
    with pytest.raises(QuerySyntaxError):
        parse_query('MATCH (c) where c.id = "x" RETURN c.id;')


def test_syntax_errors_carry_positions():
    with pytest.raises(QuerySyntaxError) as info:
        parse_query('MATCH (c RETURN c.id;')
    assert info.value.expected == ")"
    assert info.value.position == 9

    with pytest.raises(QuerySyntaxError) as info:
        parse_query('MATCH (c)')
    assert info.value.expected == "RETURN"

    with pytest.raises(QuerySyntaxError) as info:
        parse_query('MATCH (c) RETURN c.id extra;')
    assert info.value.found == "extra"

    with pytest.raises(QuerySyntaxError):
        parse_query('MATCH (c) RETURN c.id; MATCH')
    with pytest.raises(QuerySyntaxError):
        parse_query('MATCH (c)-[influences]->(x) RETURN c.id;')
    with pytest.raises(QuerySyntaxError):
        parse_query('MATCH (c) WHERE c.id = unquoted RETURN c.id;')
    with pytest.raises(QuerySyntaxError):
        parse_query('MATCH (c) RETURN c.id @;')


def test_unbound_variables_are_rejected():
    with pytest.raises(UnboundVariable) as info:
        parse_query('MATCH (c) RETURN d.id;')
    assert info.value.name == "d"
    with pytest.raises(UnboundVariable):
        parse_query('MATCH (c) WHERE x.topic = "glare" RETURN c.id;')


def test_unknown_labels_and_relations():
    with pytest.raises(UnknownLabel):
        parse_query('MATCH (c:Widget) RETURN c.id;')
    with pytest.raises(UnknownRelation):
        parse_query('MATCH (a)-[:KNOWS]->(b) RETURN a.id;')


def test_string_escapes_round_trip():
    value = 'say "hi"\nthen\tstop\\now'
    text = f'MATCH (c) WHERE c.summary = "{escape_literal(value)}" RETURN c.id;'
    ast = parse_query(text)
    assert ast.predicates[0].value == value
    assert parse_query(print_query(ast)) == ast


def test_semicolon_is_optional():
    bare = parse_query('MATCH (c) RETURN c.id')
    closed = parse_query('MATCH (c) RETURN c.id;')
    assert bare == closed


# -- evaluation -------------------------------------------------------------------

def test_attribution_query_on_lifecycle(lifecycle):
    _, ids, entries = lifecycle
    table = run_query(ATTRIBUTION_QUERY, build_graph(entries))
    assert table.columns == ["c.id", "t.id", "r.artifact_version", "r.timestamp", "d.id"]
    assert table.rows == [(
        CONTRIBUTION_ID, TEST_ID, "v2", "2025-06-20T10:00:00Z", DEPLOYMENT_ID)]


def test_direction_semantics():
    a = make_contribution(1, links=LinkSet(influences=["pl:test:gen:001"]))
    t = make_test(1)
    graph = build_graph([a, t])

    fwd = run_query('MATCH (x:Contribution)-[:influences]->(y:Test) RETURN y.id;', graph)
    assert fwd.rows == [(t.id,)]
    back = run_query('MATCH (y:Test)<-[:influences]-(x) RETURN y.id;', graph)
    assert back.rows == [(t.id,)]
    undirected = run_query('MATCH (y)-[:influences]-(x:Contribution) RETURN y.id;', graph)
    assert undirected.rows == [(t.id,)]
    wrong_way = run_query('MATCH (y:Test)-[:influences]->(x) RETURN y.id;', graph)
    assert wrong_way.rows == []
    both = run_query('MATCH (x)<-[:influences]->(y) RETURN x.id, y.id;', graph)
    assert both.rows == []

    # A mutual pair satisfies <-[:x]-> in both assignments.
    b = make_contribution(2, links=LinkSet(influences=["pl:contrib:gen:0001"]))
    a2 = make_contribution(1, links=LinkSet(influences=["pl:contrib:gen:0002"]))
    mutual = build_graph([a2, b])
    both = run_query('MATCH (x)<-[:influences]->(y) RETURN x.id, y.id;', mutual)
    assert both.rows == [(a2.id, b.id), (b.id, a2.id)]


def test_field_alias_and_timestamp_fallback(lifecycle):
    _, ids, entries = lifecycle
    graph = build_graph(entries)
    assert evaluate_field(graph, ids["run_v2"], "artifact_version") == "v2"
    assert evaluate_field(graph, ids["run_v2"], "version") == "v2"
    assert evaluate_field(graph, ids["run_v2"], "timestamp") == "2025-06-20T10:00:00Z"
    # No payload timestamp: falls back to the entry envelope.
    assert evaluate_field(graph, TEST_ID, "timestamp") == \
        graph.node(TEST_ID).created_at
    assert evaluate_field(graph, TEST_ID, "createdAt") == "2025-05-12T10:00:00Z"
    assert evaluate_field(graph, TEST_ID, "type") == "Test"
    assert evaluate_field(graph, TEST_ID, "boundary") is None


def test_missing_fields_project_empty_and_never_match():
    c = make_contribution(1)
    graph = build_graph([c])
    table = run_query('MATCH (x:Contribution) RETURN x.id, x.boundary;', graph)
    assert table.rows == [(c.id, "")]
    none_match = run_query(
        'MATCH (x:Contribution) WHERE x.boundary = "" RETURN x.id;', graph)
    assert none_match.rows == []


def test_rows_come_back_sorted():
    entries = [make_contribution(i) for i in (3, 1, 2)]
    graph = build_graph(entries)
    table = run_query('MATCH (x:Contribution) RETURN x.id;', graph)
    assert table.rows == sorted(table.rows)
    assert [r[0] for r in table.rows] == [
        "pl:contrib:gen:0001", "pl:contrib:gen:0002", "pl:contrib:gen:0003"]


def test_rendering_text_and_csv():
    entries = [make_contribution(1)]
    entries[0].payload.summary = 'has, comma and "quote"'
    graph = build_graph(entries)
    table = run_query('MATCH (x:Contribution) RETURN x.id, x.kind, x.summary;', graph)

    text = table.render_text()
    lines = text.splitlines()
    assert lines[0].startswith("x.id")
    assert set(lines[1]) <= {"-", " "}
    assert "pl:contrib:gen:0001" in lines[2]

    csv_text = table.render_csv()
    assert csv_text.splitlines()[0] == "x.id,x.kind,x.summary"
    assert '"has, comma and ""quote"""' in csv_text


def test_homomorphism_semantics_allow_shared_bindings():
    # Two variables may bind the same node; nothing forces injectivity.
    c = make_contribution(1)
    graph = build_graph([c])
    table = run_query('MATCH (x:Contribution) MATCH (y:Contribution) '
                      'RETURN x.id, y.id;', graph)
    assert table.rows == [(c.id, c.id)]


def test_evaluation_matches_brute_force_on_random_graphs():
    mismatches = 0
    for seed in range(40):
        rng = random.Random(7000 + seed)
        entries = random_graph_entries(rng)
        graph = build_graph(entries)
        text = random_query(rng, entries)
        ast = parse_query(text)
        got = evaluate(ast, graph).rows
        want = brute_force_rows(ast, entries)
        if got != want:
            mismatches += 1
    assert mismatches == 0


def _wide_graph_entries(rng: random.Random) -> list:
    """Three to seven nodes with self-links, repeated links, dangling targets
    and, sometimes, a tombstoned deployment that something still deploys to."""
    entries = []
    for i in range(rng.randint(3, 7)):
        pick = rng.randrange(6)
        if pick == 0:
            entries.append(make_contribution(i + 1))
        elif pick == 1:
            entries.append(make_test(i, topic=rng.choice(("glare", "shade"))))
        elif pick == 2:
            entries.append(make_change(i, versions=(f"v{rng.randint(1, 2)}",)))
        elif pick == 3:
            entries.append(make_run(i, test_id="pl:test:gen:000", version=f"v{i}",
                                    decision=rng.choice(("pass", "fail"))))
        elif pick == 4:
            entries.append(make_artifact(i, version=f"v{i}"))
        else:
            entries.append(make_artifact(
                i, artifact_id=f"pl:artifact:gen:dep{i}", version=f"v{i}",
                artifact_kind="extension:deployment",
                boundary=rng.choice(("consultation_workflow", "workshop"))))
    ids = [e.id for e in entries]
    targets = ids + ["pl:contrib:gen:9999", "pl:test:gen:999"]
    for entry in entries:
        for _ in range(rng.randrange(5)):
            links = getattr(entry.links, _LINK_ATTRS[rng.choice(tuple(_LINK_ATTRS))])
            roll = rng.random()
            if roll < 0.15:
                links.append(entry.id)
            elif roll < 0.3 and links:
                links.append(links[-1])
            else:
                links.append(rng.choice(targets))
    deployments = [e for e in entries if e.id.startswith("pl:artifact:gen:dep")]
    if deployments and rng.random() < 0.4:
        # The oracle reads deployment-ness from the raw payload; the graph
        # keeps a hidden deployment only while something deploys to it.
        hidden = rng.choice(deployments)
        rng.choice(entries).links.deployed_as.append(hidden.id)
        entries.append(make_tombstone(hidden.id))
    return entries


_WIDE_LABELS = ("Contribution", "Test", "Change", "EvaluationRun", "Artifact",
                "Deployment", "Tombstone")
_WIDE_FIELDS = ("id", "type", "topic", "decision", "version", "boundary")
# Arrow spellings that hold for a link read out of (True) or into (False) a node.
_WIDE_ARROWS = {True: (("-", "->"),) * 4 + (("-", "-"), ("<-", "->")),
                False: (("<-", "-"),) * 4 + (("-", "-"), ("<-", "->"))}


def _wide_query(rng: random.Random, entries: list) -> str:
    """Up to four variables and three edges over up to three MATCH clauses.

    Paths mostly follow real edges from a witness node per variable, and
    labels and predicates mostly describe the witness, so that long patterns
    still match; repeats may relabel a variable or close a self-loop.
    """
    graph = build_graph(entries)
    nodes = list(graph.nodes)
    witness: dict[str, str] = {}

    def variable(node_id: str) -> str:
        same = [var for var, wid in witness.items() if wid == node_id]
        if (same and rng.random() < 0.5) or len(witness) == 4:
            return rng.choice(same or list(witness))
        var = f"n{len(witness)}"
        witness[var] = node_id
        return var

    def node(var: str) -> str:
        roll = rng.random()
        if roll < 0.4:
            return f"({var})"
        if roll < 0.85:
            label = ("Deployment" if graph.is_deployment(witness[var]) and rng.random() < 0.5
                     else graph.nodes[witness[var]].entry_type.value)
        else:
            label = rng.choice(_WIDE_LABELS)
        return f"({var}:{label})"

    lines = []
    remaining = rng.choice((0, 1, 2, 3, 3))
    for clause in range(rng.randint(1, 3)):
        steps = remaining if clause == 2 else rng.randint(0, remaining)
        remaining -= steps
        var = variable(rng.choice(nodes))
        parts = [node(var)]
        for _ in range(steps):
            touching = [(s, k, t) for s, k, t in graph.edges if witness[var] in (s, t)
                        and {s, t} <= graph.nodes.keys()]
            if touching and rng.random() < 0.8:
                source, relation, target = rng.choice(touching)
                outgoing = source == witness[var]
                other = target if outgoing else source
            else:
                outgoing, relation = rng.random() < 0.5, rng.choice(tuple(_LINK_ATTRS))
                other = rng.choice(nodes)
            left, right = rng.choice(_WIDE_ARROWS[outgoing])
            if rng.random() < 0.1:
                other = witness[var]
            var = variable(other)
            parts += [f"{left}[:{relation}]{right}", node(var)]
        lines.append("MATCH " + "".join(parts))

    predicates = []
    for _ in range(rng.choice((0, 0, 1, 2))):
        var = rng.choice(list(witness))
        source = witness[var] if rng.random() < 0.8 else rng.choice(nodes)
        present = [f for f in _WIDE_FIELDS if evaluate_field(graph, source, f) is not None]
        fieldname = rng.choice(present if rng.random() < 0.8 else _WIDE_FIELDS)
        value = evaluate_field(graph, source, fieldname)
        predicates.append(f'{var}.{fieldname} = "{escape_literal(value or "absent")}"')
    if predicates:
        lines.append("WHERE " + " AND ".join(predicates))
    projections = ", ".join(f"{rng.choice(list(witness))}.{rng.choice(_WIDE_FIELDS)}"
                            for _ in range(rng.randint(1, 3)))
    lines.append("RETURN " + projections + ";")
    return "\n".join(lines)


def _shapes(ast, entries) -> set[str]:
    """The hard shapes a generated case exercises."""
    edges = [(p.nodes[i].var, p.nodes[i + 1].var)
             for p in ast.matches for i in range(len(p.edges))]
    labels: dict[str, set[str]] = {}
    for pattern in ast.matches:
        for n in pattern.nodes:
            labels.setdefault(n.var, set()).update([n.label] if n.label else [])
    component = {var: var for var in labels}
    def root(var):
        while component[var] != var:
            var = component[var]
        return var
    for left, right in edges:
        component[root(left)] = root(right)
    ids = {e.id for e in entries}
    links = [(e.id, kind, target) for e in entries for kind, target in e.links.iter_links()]
    graph = build_graph(entries)
    found = set()
    if len(edges) == 3:
        found.add("three edges")
    if any(left == right for left, right in edges):
        found.add("self-loop")
    if len(links) != len(set(links)):
        found.add("repeated link")
    if any(target not in ids for _, _, target in links):
        found.add("dangling target")
    if any(len(wanted) > 1 for wanted in labels.values()):
        found.add("contradictory labels")
    if len({root(var) for var in labels}) > 1:
        found.add("cross product")
    if any(node_id in graph.snapshot.hidden and graph.is_deployment(node_id)
           for node_id in graph.nodes):
        found.add("tombstoned deployment")
    return found


def test_evaluation_matches_brute_force_on_wide_random_shapes():
    seen: set[str] = set()
    mismatches, nonempty = [], 0
    for seed in range(400):
        rng = random.Random(9100 + seed)
        entries = _wide_graph_entries(rng)
        ast = parse_query(_wide_query(rng, entries))
        got = evaluate(ast, build_graph(entries)).rows
        if got != brute_force_rows(ast, entries):
            mismatches.append(seed)
        nonempty += bool(got)
        seen |= _shapes(ast, entries)
    assert mismatches == []
    assert seen == {"three edges", "self-loop", "repeated link", "dangling target",
                    "contradictory labels", "cross product", "tombstoned deployment"}
    assert nonempty >= 150


# -- saved queries ------------------------------------------------------------------

def test_saved_query_matches_inline_text(lifecycle):
    _, _, entries = lifecycle
    graph = build_graph(entries)
    inline = run_query(ATTRIBUTION_QUERY, graph)
    saved = run_saved_query("regression-attribution", graph, {
        "topic": "accessibility", "boundary": "consultation_workflow"})
    assert saved.columns == inline.columns
    assert saved.rows == inline.rows
    assert "regression-attribution" in SAVED_QUERIES


def test_saved_query_parameter_validation(lifecycle):
    _, _, entries = lifecycle
    graph = build_graph(entries)
    with pytest.raises(UnknownQueryName):
        run_saved_query("no-such-query", graph, {})
    with pytest.raises(QueryParameterError) as info:
        run_saved_query("regression-attribution", graph, {"topic": "accessibility"})
    assert "missing: boundary" in str(info.value)
    with pytest.raises(QueryParameterError) as info:
        run_saved_query("regression-attribution", graph, {
            "topic": "a", "boundary": "b", "extra": "c"})
    assert "unexpected: extra" in str(info.value)


def test_saved_query_escapes_parameters(lifecycle):
    _, _, entries = lifecycle
    graph = build_graph(entries)
    tricky = run_saved_query("regression-attribution", graph, {
        "topic": 'x" RETURN c.id; --', "boundary": "line\nbreak"})
    assert tricky.rows == []
