"""Shared fixtures, generators, and independent oracles.

The oracles here deliberately re-derive expectations from first principles
(raw link scans, exhaustive enumeration, stdlib json/hashlib) instead of
calling back into the code paths they check.
"""

from __future__ import annotations

import hashlib
import random
from datetime import datetime, timedelta, timezone

import pytest

from pledger.fixtures import STAGE_PAUSED, build_lifecycle
from pledger.integrity import seal
from pledger.model import (
    ID_KIND,
    ActorRef,
    ArtifactPayload,
    ChangedArtifact,
    ChangePayload,
    CompensationBlock,
    ConsentBlock,
    ContributionPayload,
    CreditPayload,
    EntryEnvelope,
    EntryType,
    EvaluationRunPayload,
    LinkSet,
    MeasurementProcedure,
    TestPayload,
    TombstonePayload,
    TriggeringEvent,
    VoucherCondition,
    VoucherPayload,
    format_timestamp,
)
from pledger.store import read_entries

BASE_TIME = datetime(2025, 5, 1, 12, 0, 0, tzinfo=timezone.utc)

WORDS = ("river", "park", "bench", "ramp", "path", "shade", "light", "tram",
         "noise", "garden", "mural", "stall", "kiosk", "plaza", "grove")


def stamp(i: int) -> str:
    return format_timestamp(BASE_TIME + timedelta(minutes=i))


def sha_ref(label: str, kind: str = "prompt") -> str:
    return f"artifact:{kind}:sha256:" + hashlib.sha256(label.encode()).hexdigest()


def digest_of(label: str) -> str:
    return "sha256:" + hashlib.sha256(label.encode()).hexdigest()


def make_contribution(i: int, *, kind: str = "prompt",
                      links: LinkSet | None = None,
                      steward_org: str | None = None,
                      intended_use: str | None = None) -> EntryEnvelope:
    return EntryEnvelope(
        id=f"pl:contrib:gen:{i:04d}",
        entry_type=EntryType.CONTRIBUTION,
        created_at=stamp(i),
        actor=ActorRef(role="resident", pseudonym=f"P{i}", steward_org=steward_org),
        payload=ContributionPayload(
            kind=kind,
            summary=f"Note {i} about the {WORDS[i % len(WORDS)]}.",
            artifact_ref=sha_ref(f"note-{i}"),
            intended_use=intended_use,
        ),
        consent=ConsentBlock(status="granted", scope="research", retention="2y"),
        compensation=CompensationBlock(model="none-declared"),
        links=links or LinkSet(),
    )


def make_test(j: int, *, measurement: MeasurementProcedure | None = None,
              topic: str = "glare", minute: int = 200,
              motivated_by: list[str] | None = None,
              links: LinkSet | None = None) -> EntryEnvelope:
    return EntryEnvelope(
        id=f"pl:test:gen:{j:03d}",
        entry_type=EntryType.TEST,
        created_at=stamp(minute + j),
        actor=ActorRef(role="evaluator", pseudonym="E1"),
        payload=TestPayload(
            topic=topic,
            expected_behavior="Scenes avoid glare hotspots.",
            measurement=measurement or MeasurementProcedure(
                runner_kind="threshold", metric_name="glareScore",
                comparator="<=", bound=0.2),
            motivated_by=list(motivated_by or []),
        ),
        links=links or LinkSet(),
    )


def make_change(j: int, *, influenced_by=(), uses_test=(), versions=("v1",),
                artifact_id: str = "pl:artifact:gen:sys",
                minute: int = 300) -> EntryEnvelope:
    return EntryEnvelope(
        id=f"pl:change:gen:{j:03d}",
        entry_type=EntryType.CHANGE,
        created_at=stamp(minute + j),
        actor=ActorRef(role="maintainer", pseudonym="M1"),
        payload=ChangePayload(
            change_kind="guardrail",
            rationale=f"Adjustment {j}.",
            changed_artifacts=[
                ChangedArtifact(artifact_id=artifact_id, version_after=v)
                for v in versions],
        ),
        links=LinkSet(influenced_by=list(influenced_by), uses_test=list(uses_test)),
    )


def make_run(j: int, *, test_id: str, version: str = "v1",
             artifact_id: str = "pl:artifact:gen:sys", decision: str = "pass",
             checkpoint: str = "scheduledAudit", minute: int = 400) -> EntryEnvelope:
    return EntryEnvelope(
        id=f"pl:run:gen:{j:03d}",
        entry_type=EntryType.EVALUATION_RUN,
        created_at=stamp(minute + j),
        actor=ActorRef(role="evaluator", pseudonym="E1"),
        payload=EvaluationRunPayload(
            test_id=test_id,
            artifact_id=artifact_id,
            version=version,
            decision=decision,
            checkpoint=checkpoint,
            evaluator=ActorRef(role="evaluator", pseudonym="E1"),
        ),
        links=LinkSet(uses_test=[test_id],
                      evaluates=[f"{artifact_id}:{version}"]),
    )


def make_artifact(j: int, *, artifact_id: str = "pl:artifact:gen:sys",
                  version: str = "v1", artifact_kind: str = "model",
                  boundary: str | None = None, links: LinkSet | None = None,
                  minute: int = 500) -> EntryEnvelope:
    return EntryEnvelope(
        id=f"{artifact_id}:{version}",
        entry_type=EntryType.ARTIFACT,
        created_at=stamp(minute + j),
        actor=ActorRef(role="maintainer", pseudonym="M1"),
        payload=ArtifactPayload(
            artifact_id=artifact_id,
            artifact_kind=artifact_kind,
            version=version,
            content_ref=f"https://gen.example/{artifact_id.split(':')[-1]}/{version}",
            boundary=boundary,
        ),
        links=links or LinkSet(),
    )


def make_tombstone(target_id: str, minute: int = 900) -> EntryEnvelope:
    return EntryEnvelope(
        id="pl:tomb:" + ":".join(target_id.split(":")[1:]),
        entry_type=EntryType.TOMBSTONE,
        created_at=stamp(minute),
        actor=ActorRef(role="auditor", pseudonym="AUD1"),
        payload=TombstonePayload(
            target_id=target_id,
            reason="safetyRedaction",
            authorization=ActorRef(role="auditor", pseudonym="AUD1"),
            retained_hash="sha256:" + "0" * 64,
        ),
    )


def random_envelope(rng: random.Random, i: int) -> EntryEnvelope:
    """One structurally valid entry of a random type, with random extras."""
    entry_type = rng.choice(list(EntryType))
    actor = ActorRef(role=rng.choice(("resident", "maintainer", "evaluator")),
                     pseudonym=f"A{i}")
    links = LinkSet()
    if rng.random() < 0.4:
        links.evidence.append(f"pl:contrib:gen:{rng.randrange(1000):04d}")
    context = "https://ledger.example/context/v1" if rng.random() < 0.2 else None
    extensions = {"extNote": rng.choice(WORDS)} if rng.random() < 0.3 else {}

    if entry_type is EntryType.CONTRIBUTION:
        entry = make_contribution(i)
        payload = entry.payload
        if rng.random() < 0.5:
            payload.recruitment_pathway = "workshop series"
        if rng.random() < 0.3:
            payload.extensions["extScore"] = rng.randrange(10)
    elif entry_type is EntryType.CHANGE:
        payload = ChangePayload(
            change_kind=rng.choice(("dataset", "guardrail", "policy")),
            rationale=f"Adjustment {i}.",
            changed_artifacts=[ChangedArtifact(
                artifact_id="pl:artifact:gen:sys",
                version_after=f"v{rng.randrange(1, 9)}")],
        )
    elif entry_type is EntryType.ARTIFACT:
        payload = ArtifactPayload(
            artifact_id="pl:artifact:gen:sys",
            artifact_kind=rng.choice(("model", "dataset", "guardrail")),
            version=f"v{i}",
            content_ref=sha_ref(f"blob-{i}", "model"),
            boundary="workshop" if rng.random() < 0.4 else None,
        )
    elif entry_type is EntryType.TEST:
        if rng.random() < 0.5:
            measurement = MeasurementProcedure(
                runner_kind="threshold", metric_name="score",
                comparator=rng.choice((">=", "<=")), bound=rng.randrange(100))
        else:
            measurement = MeasurementProcedure(
                runner_kind="rubric", criteria=["a", "b"], scale_max=5,
                aggregation="mean", pass_mean=3, min_raters=2)
        payload = TestPayload(
            topic=rng.choice(WORDS),
            expected_behavior=f"Behavior {i} holds.",
            measurement=measurement,
            motivated_by=[f"pl:contrib:gen:{rng.randrange(40):04d}"]
            if rng.random() < 0.6 else [],
        )
    elif entry_type is EntryType.EVALUATION_RUN:
        payload = EvaluationRunPayload(
            test_id="pl:test:gen:t1",
            artifact_id="pl:artifact:gen:sys",
            version=f"v{rng.randrange(1, 9)}",
            decision=rng.choice(("pass", "fail", "inconclusive")),
            checkpoint=rng.choice(("preDeploymentGate", "scheduledAudit", "postIncident")),
            evaluator=ActorRef(role="evaluator", pseudonym="E1"),
            raw_results={"value": rng.randrange(100)},
            timestamp=stamp(i),
        )
    elif entry_type is EntryType.VOUCHER:
        conditions = []
        if rng.random() < 0.4:
            conditions.append(VoucherCondition(required_test_id="pl:test:gen:t1"))
        payload = VoucherPayload(
            capability=rng.choice(("image-generation", "summarization")),
            boundary=rng.choice(("workshop", "consultation_workflow")),
            action=rng.choice(("pause", "condition", "authorize")),
            steward=ActorRef(role="communitySteward", steward_org="pl:org:gen"),
            status="issued",
            conditions=conditions,
            expiry=stamp(i + 10000) if rng.random() < 0.3 else None,
        )
    elif entry_type is EntryType.CREDIT:
        payload = CreditPayload(
            beneficiary=f"P{rng.randrange(40)}",
            triggering_event=TriggeringEvent(
                kind="regressionDetected",
                evaluation_run_id="pl:run:gen:0001"),
            units=rng.choice((1, 2.5, 10)),
            policy_ref=digest_of("policy"),
        )
    else:
        payload = TombstonePayload(
            target_id=f"pl:contrib:gen:{rng.randrange(40):04d}",
            reason=rng.choice(("consentWithdrawn", "safetyRedaction", "legalHold")),
            authorization=ActorRef(role="communitySteward", steward_org="pl:org:gen"),
            retained_hash=digest_of(f"old-{i}"),
        )

    if entry_type is EntryType.CONTRIBUTION:
        entry.links = links
        entry.context = context
        entry.extensions = extensions
        return entry
    return EntryEnvelope(
        id=f"pl:{ID_KIND[entry_type]}:gen:{i:04d}",
        entry_type=entry_type,
        created_at=stamp(i),
        actor=actor,
        payload=payload,
        links=links,
        context=context,
        extensions=extensions,
    )


_LINK_ATTRS = {
    "influences": "influences", "influencedBy": "influenced_by",
    "motivates": "motivates", "usesTest": "uses_test",
    "evaluates": "evaluates", "deployedAs": "deployed_as",
    "remediates": "remediates", "evidence": "evidence",
}


def random_graph_entries(rng: random.Random) -> list[EntryEnvelope]:
    """Up to ten nodes of mixed types, densely cross-linked at random."""
    n = rng.randint(4, 10)
    entries: list[EntryEnvelope] = []
    for i in range(n):
        pick = rng.randrange(6)
        if pick == 0:
            entries.append(make_contribution(i + 1))
        elif pick == 1:
            entries.append(make_test(i, topic=rng.choice(("glare", "shade"))))
        elif pick == 2:
            entries.append(make_change(i, versions=(f"v{rng.randint(1, 3)}",)))
        elif pick == 3:
            entries.append(make_run(
                i, test_id="pl:test:gen:000", version=f"v{rng.randint(1, 3)}",
                decision=rng.choice(("pass", "fail", "inconclusive"))))
        elif pick == 4:
            entries.append(make_artifact(i, version=f"v{i}"))
        else:
            entries.append(make_artifact(
                i, artifact_id=f"pl:artifact:gen:dep{i}", version=f"v{i}",
                artifact_kind="extension:deployment",
                boundary=rng.choice(("consultation_workflow", "workshop"))))
    ids = [e.id for e in entries]
    for entry in entries:
        for _ in range(rng.randrange(3)):
            kind = rng.choice(tuple(_LINK_ATTRS))
            getattr(entry.links, _LINK_ATTRS[kind]).append(rng.choice(ids))
    return entries


def random_query(rng: random.Random, entries: list[EntryEnvelope]) -> str:
    """Query text with at most two edges, biased toward matchable values."""
    labels = (None, "Contribution", "Test", "Change", "EvaluationRun",
              "Artifact", "Deployment", "artifact", "EVALUATIONRUN")
    relations = ("influences", "INFLUENCED_BY", "motivates", "uses_test",
                 "USES_TEST", "evaluates", "deployed_as", "remediates", "evidence")
    arrows = (("-", "->"), ("<-", "-"), ("-", "-"), ("<-", "->"))
    fields = ("id", "type", "topic", "decision", "version", "boundary",
              "kind", "createdAt", "artifact_version", "timestamp")

    total_edges = rng.randint(0, 2)
    n_paths = 1 if total_edges == 0 else rng.randint(1, total_edges)
    per_path = [total_edges // n_paths] * n_paths
    per_path[0] += total_edges - sum(per_path)

    variables: list[str] = []
    lines: list[str] = []

    def node() -> str:
        if variables and rng.random() < 0.3:
            var = rng.choice(variables)
        else:
            var = f"n{len(variables)}"
            variables.append(var)
        label = rng.choice(labels)
        return f"({var})" if label is None else f"({var}:{label})"

    for edges in per_path:
        parts = [node()]
        for _ in range(edges):
            left, right = rng.choice(arrows)
            parts.append(f"{left}[:{rng.choice(relations)}]{right}")
            parts.append(node())
        lines.append("MATCH " + "".join(parts))

    from pledger.graph import build_graph
    from pledger.query import escape_literal, evaluate_field

    graph = build_graph(entries)
    predicates = []
    for _ in range(rng.randrange(3)):
        var = rng.choice(variables)
        fieldname = rng.choice(fields)
        if rng.random() < 0.7:
            value = evaluate_field(graph, rng.choice(list(graph.by_id)), fieldname)
            if value is None:
                value = "absent"
        else:
            value = rng.choice(("nope", "v2", "pass"))
        predicates.append(f'{var}.{fieldname} = "{escape_literal(value)}"')
    if predicates:
        lines.append("WHERE " + " AND ".join(predicates))

    projections = ", ".join(
        f"{rng.choice(variables)}.{rng.choice(fields)}"
        for _ in range(rng.randint(1, 3)))
    lines.append("RETURN " + projections + ";")
    return "\n".join(lines)


def sealed_chain(entries: list[EntryEnvelope]) -> list[EntryEnvelope]:
    out: list[EntryEnvelope] = []
    prev = None
    for entry in entries:
        sealed = seal(entry, prev)
        out.append(sealed)
        prev = sealed.integrity.hash
    return out


# ---------------------------------------------------------------------------
# oracles

def oracle_edges(entries, kind: str) -> set[tuple[str, str]]:
    """Directed edges recomputed straight from declared links.

    Declarations point declarer -> target except `motivates`, which records
    the motivating entry as the source. influences/influencedBy each also
    carry the other's reversal. Unresolved targets still make edges; binding
    them to nodes is the query layer's problem.
    """
    pairs: set[tuple[str, str]] = set()
    for entry in entries:
        for declared_kind, target in entry.links.iter_links():
            if declared_kind == "motivates":
                edge = (target, entry.id)
                edge_kind = "motivates"
            else:
                edge = (entry.id, target)
                edge_kind = declared_kind
            if edge_kind == kind:
                pairs.add(edge)
            if edge_kind == "influences" and kind == "influencedBy":
                pairs.add((edge[1], edge[0]))
            if edge_kind == "influencedBy" and kind == "influences":
                pairs.add((edge[1], edge[0]))
    return pairs


def oracle_is_deployment(entry) -> bool:
    return (entry.entry_type is EntryType.ARTIFACT
            and entry.payload.artifact_kind == "extension:deployment")


def brute_force_rows(ast, entries) -> list[tuple[str, ...]]:
    """Exhaustive homomorphism enumeration over raw entries.

    Mirrors the query semantics by brute force: every assignment of pattern
    variables to entry ids is checked clause by clause. Field access reuses
    the public rendering path so the comparison targets the matching logic.
    """
    from pledger.graph import build_graph
    from pledger.query import evaluate_field

    graph = build_graph(entries)
    by_id = {e.id: e for e in entries}
    labels: dict[str, list[str]] = {}
    for match in ast.matches:
        for node in match.nodes:
            labels.setdefault(node.var, [])
            if node.label:
                labels[node.var].append(node.label)
    edges: list[tuple[str, str, str, str]] = []
    for match in ast.matches:
        for i, edge in enumerate(match.edges):
            edges.append((match.nodes[i].var, edge.relation,
                          match.nodes[i + 1].var, edge.direction))

    def label_ok(entry_id: str, wanted: str) -> bool:
        entry = by_id[entry_id]
        if wanted == "Deployment":
            return oracle_is_deployment(entry)
        return entry.entry_type.value == wanted

    variables = sorted(labels)
    universe = [e.id for e in entries]
    rows = []

    def assign(index: int, bound: dict[str, str]):
        if index == len(variables):
            for left, relation, right, direction in edges:
                pairs = oracle_edges(entries, relation)
                a, b = bound[left], bound[right]
                fwd, back = (a, b) in pairs, (b, a) in pairs
                ok = {"forward": fwd, "backward": back,
                      "both": fwd and back, "undirected": fwd or back}[direction]
                if not ok:
                    return
            for pred in ast.predicates:
                value = evaluate_field(graph, bound[pred.var], pred.field)
                if value is None or value != pred.value:
                    return
            row = []
            for p in ast.projections:
                value = evaluate_field(graph, bound[p.var], p.field)
                row.append("" if value is None else value)
            rows.append(tuple(row))
            return
        var = variables[index]
        for entry_id in universe:
            if all(label_ok(entry_id, w) for w in labels[var]):
                bound[var] = entry_id
                assign(index + 1, bound)
                del bound[var]

    assign(0, {})
    return sorted(rows)


# ---------------------------------------------------------------------------
# fixtures

@pytest.fixture(scope="session")
def lifecycle(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixture") / "full.pledger"
    ids = build_lifecycle(path)
    return path, ids, read_entries(path)


@pytest.fixture(scope="session")
def mid_lifecycle(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixture") / "mid.pledger"
    ids = build_lifecycle(path, stop_after=STAGE_PAUSED)
    return path, ids, read_entries(path)
