"""Typed influence graph over ledger entries.

Nodes are entries; the edge multiset is exactly the union of all declared
LinkSets, nothing inferred and nothing deduplicated. Almost every link kind
materializes as an edge from the declaring entry to its target. `motivates`
is the one exception: it is declared by the motivated entry (a Test names the
contributions that motivated it, which may long predate it) and materializes
as an edge from the target to the declarer, so the stored direction is always
contribution -> test. This keeps append-only writing compatible with edges
that point at later entries.

The reverse-direction convenience view between influencedBy and influences is
derived at query time and never materialized.

Tombstoned entries stay in the graph with their type and edges; only the
payload view is hidden.

`Snapshot` is the one-pass index of a ledger prefix that every other read
path takes its entries, lineages, run lookups and new ids from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable, Sequence

from .errors import UnknownNode, WrongEntryType
from .model import DEPLOYMENT_KIND, EntryEnvelope, EntryType, is_reference_id, lineage_base

# Edge kinds whose stored direction is target -> declarer.
_REVERSED_DECLARATION_KINDS = frozenset({"motivates"})

# The derived view: each of these kinds also reads the other's edges reversed.
_INVERSE_KINDS = {"influences": "influencedBy", "influencedBy": "influences"}

# Bounds on a trace: path length in edges, and the number of paths returned.
MAX_TRACE_LENGTH = 16
MAX_TRACE_PATHS = 10_000

# Enum member lookups cost more than a global read on the per-entry path.
_RUN, _ARTIFACT, _TOMBSTONE = EntryType.EVALUATION_RUN, EntryType.ARTIFACT, EntryType.TOMBSTONE


class Snapshot:
    """Indexes over one ledger prefix, built in a single pass of `add`.

    Every index holds every entry; redaction is applied when reading, by
    callers testing ids against `hidden`, so a later Tombstone needs no
    rebuild. Where ids repeat, `by_id` and `position` keep the first
    occurrence. `LedgerFile` keeps one of these live, calling `add` after each
    durable append.
    """

    def __init__(self, entries: Iterable[EntryEnvelope] = ()):
        self.entries: list[EntryEnvelope] = []
        self.by_id: dict[str, EntryEnvelope] = {}
        self.position: dict[str, int] = {}
        # tombstoned target id -> the first Tombstone naming it
        self.hidden: dict[str, EntryEnvelope] = {}
        self.by_type: dict[EntryType, list[EntryEnvelope]] = {t: [] for t in EntryType}
        # lineage base -> every revision, any type, tombstoned included
        self.lineages: dict[str, list[EntryEnvelope]] = {}
        # runs by testId and by suite (artifactId, version, checkpoint);
        # artifacts by (artifactId, version). Runs are keyed by test alone
        # because a list per (test, version) pair adds one container per run
        # for the garbage collector to scan on every full collection.
        self.test_runs: dict[str, list[EntryEnvelope]] = {}
        self.suite_runs: dict[tuple[str, str, str], list[EntryEnvelope]] = {}
        self.versions: dict[tuple[str, str], list[EntryEnvelope]] = {}
        for entry in entries:
            self.add(entry)

    @classmethod
    def of(cls, source: Any) -> "Snapshot":
        """A Snapshot as is, a ledger file's live one, or one built from a
        graph's or a plain iterable's entries."""
        if isinstance(source, Snapshot):
            return source
        live = getattr(source, "snapshot", None)
        if live is not None:
            return live
        return cls(getattr(source, "entries", source))

    def add(self, entry: EntryEnvelope) -> None:
        entry_id = entry.id
        if entry_id not in self.position:
            self.position[entry_id] = len(self.entries)
            self.by_id[entry_id] = entry
        self.entries.append(entry)
        kind = entry.entry_type
        self.by_type[kind].append(entry)
        self.lineages.setdefault(self.base_of(entry_id), []).append(entry)
        p = entry.payload
        if kind is _RUN:
            self.test_runs.setdefault(p.test_id, []).append(entry)
            self.suite_runs.setdefault(
                (p.artifact_id, p.version, p.checkpoint), []).append(entry)
        elif kind is _ARTIFACT:
            self.versions.setdefault((p.artifact_id, p.version), []).append(entry)
        elif kind is _TOMBSTONE:
            self.hidden.setdefault(p.target_id, entry)

    @staticmethod
    def base_of(entry_id: str) -> str:
        # The pattern runs only on ids that can hold a revision suffix.
        return lineage_base(entry_id)[0] if ":rev" in entry_id else entry_id

    def lineage(self, entry_id: str) -> list[EntryEnvelope]:
        """Every revision sharing `entry_id`'s lineage base, in ledger order."""
        return self.lineages.get(self.base_of(entry_id), [])

    def live(self, entry_id: str, entry_type: EntryType) -> EntryEnvelope | None:
        """The entry under `entry_id` if it has `entry_type` and is not
        tombstoned, else None."""
        entry = self.by_id.get(entry_id)
        if entry is None or entry.entry_type is not entry_type or entry_id in self.hidden:
            return None
        return entry

    def next_revision_id(self, entry_id: str) -> str:
        """`<base>:rev<k>` one past the highest revision in the lineage,
        tombstoned revisions included."""
        base = self.base_of(entry_id)
        top = max((lineage_base(e.id)[1] for e in self.lineages.get(base, ())),
                  default=0)
        return f"{base}:rev{top + 1}"

    def next_id(self, prefix: str) -> str:
        """The first of `<prefix>001`, `<prefix>002`, ... not yet in the ledger."""
        seq = 1
        while f"{prefix}{seq:03d}" in self.position:
            seq += 1
        return f"{prefix}{seq:03d}"


@dataclass
class GraphNode:
    id: str
    entry_type: EntryType
    entry: EntryEnvelope
    index: int
    redacted: bool = False

    @property
    def payload(self) -> Any:
        """Payload view honoring redaction; None when hidden."""
        return None if self.redacted else self.entry.payload

    def is_deployment(self) -> bool:
        if self.entry_type is not EntryType.ARTIFACT:
            return False
        if not self.redacted:
            return self.entry.payload.artifact_kind == DEPLOYMENT_KIND
        return False  # the graph adds a fallback check for hidden payloads


@dataclass
class Edge:
    source: str
    kind: str
    target: str

    def as_tuple(self) -> tuple[str, str, str]:
        return (self.source, self.kind, self.target)


class LedgerGraph:
    """Adjacency-indexed view of a sequence of entries."""

    def __init__(self, entries: Sequence[EntryEnvelope]):
        self.entries = list(entries)
        self.nodes: dict[str, GraphNode] = {}
        self.edges: list[Edge] = []
        self.dangling: list[tuple[str, str]] = []
        self._out: dict[tuple[str, str], list[str]] = {}
        self._in: dict[tuple[str, str], list[str]] = {}

        for index, entry in enumerate(self.entries):
            if entry.id not in self.nodes:
                self.nodes[entry.id] = GraphNode(entry.id, entry.entry_type, entry, index)
        for entry in self.entries:
            if entry.entry_type is EntryType.TOMBSTONE:
                target = self.nodes.get(entry.payload.target_id)
                if target is not None:
                    target.redacted = True
        for entry in self.entries:
            for kind, target in entry.links.iter_links():
                if kind in _REVERSED_DECLARATION_KINDS:
                    edge = Edge(target, kind, entry.id)
                else:
                    edge = Edge(entry.id, kind, target)
                self.edges.append(edge)
                self._out.setdefault((edge.source, kind), []).append(edge.target)
                self._in.setdefault((edge.target, kind), []).append(edge.source)
                if target not in self.nodes and is_reference_id(target):
                    self.dangling.append((entry.id, target))

    # -- basic access ---------------------------------------------------------

    def node(self, node_id: str) -> GraphNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNode(f"no node {node_id!r} in graph") from None

    def out(self, node_id: str, kind: str) -> list[str]:
        return self._out.get((node_id, kind), [])

    def into(self, node_id: str, kind: str) -> list[str]:
        return self._in.get((node_id, kind), [])

    def nodes_of_type(self, entry_type: EntryType) -> list[GraphNode]:
        return [n for n in self.nodes.values() if n.entry_type is entry_type]

    def is_deployment(self, node_id: str) -> bool:
        node = self.nodes.get(node_id)
        if node is None:
            return False
        if node.is_deployment():
            return True
        # A redacted artifact that something deploys to still counts.
        return (node.entry_type is EntryType.ARTIFACT and node.redacted
                and bool(self.into(node_id, "deployedAs")))

    def deployment_ids(self) -> list[str]:
        return [nid for nid in self.nodes if self.is_deployment(nid)]

    # -- derived influence view ------------------------------------------------

    def influence_targets(self, node_id: str) -> list[str]:
        """Effective `influences` successors: declared influences plus the
        reverse reading of declared influencedBy."""
        direct = self._out.get((node_id, "influences"), [])
        derived = self._in.get((node_id, "influencedBy"), [])
        seen: set[str] = set()
        out: list[str] = []
        for t in direct + derived:
            if t not in seen:
                seen.add(t)
                out.append(t)
        return out

    def influence_sources(self, node_id: str) -> list[str]:
        direct = self._out.get((node_id, "influencedBy"), [])
        derived = self._in.get((node_id, "influences"), [])
        seen: set[str] = set()
        out: list[str] = []
        for t in direct + derived:
            if t not in seen:
                seen.add(t)
                out.append(t)
        return out

    def edge_pairs(self, kind: str) -> set[tuple[str, str]]:
        """Directed (source, target) pairs for query matching; the
        influencedBy/influences pair each include the other's reverse."""
        pairs = {(e.source, e.target) for e in self.edges if e.kind == kind}
        inverse = _INVERSE_KINDS.get(kind)
        if inverse is not None:
            pairs |= {(e.target, e.source) for e in self.edges if e.kind == inverse}
        return pairs

    def neighbours(self, node_id: str, kind: str, outgoing: bool = True) -> set[str]:
        """Successors (or, with outgoing=False, predecessors) of a node among
        `edge_pairs(kind)`, deduplicated, read from the adjacency index."""
        ahead, behind = (self._out, self._in) if outgoing else (self._in, self._out)
        found = set(ahead.get((node_id, kind), ()))
        inverse = _INVERSE_KINDS.get(kind)
        if inverse is not None:
            found.update(behind.get((node_id, inverse), ()))
        return found

    # -- exports ----------------------------------------------------------------

    def edge_list_text(self) -> str:
        """Tab-separated `from kind to`, one edge per line, declaration order."""
        return "".join(f"{e.source}\t{e.kind}\t{e.target}\n" for e in self.edges)

    def write_edge_list(self, path: str | Path) -> None:
        Path(path).write_text(self.edge_list_text(), encoding="utf-8")


def build_graph(entries: Sequence[EntryEnvelope]) -> LedgerGraph:
    return LedgerGraph(entries)


# ---------------------------------------------------------------------------
# influence tracing

@dataclass
class TraceResult:
    paths: list[list[str]] = field(default_factory=list)
    truncated: bool = False


# The steps a trace takes, as (edge kind, whether it follows the stored
# direction): influences (with the derived view), motivates, usesTest
# reversed, evaluates, deployedAs.
_TRACE_STEPS = (("influences", True), ("influencedBy", False), ("motivates", True),
                ("usesTest", False), ("evaluates", True), ("deployedAs", True))


def _trace_steps(graph: LedgerGraph, node_id: str) -> list[str]:
    """Graph nodes one trace step after `node_id`, sorted."""
    steps: set[str] = set()
    for kind, along in _TRACE_STEPS:
        steps.update(graph.out(node_id, kind) if along else graph.into(node_id, kind))
    return sorted(s for s in steps if s in graph.nodes)


def _reaching_deployments(graph: LedgerGraph) -> set[str]:
    """Nodes from which some sequence of trace steps reaches a deployment:
    one search from the deployments, taking each step backwards."""
    reached = set(graph.deployment_ids())
    frontier = list(reached)
    while frontier:
        node_id = frontier.pop()
        for kind, along in _TRACE_STEPS:
            for prior in graph.into(node_id, kind) if along else graph.out(node_id, kind):
                if prior in graph.nodes and prior not in reached:
                    reached.add(prior)
                    frontier.append(prior)
    return reached


class _PathCap(Exception):
    """Unwinds the path search once the path budget is spent."""


def trace_influence(graph: LedgerGraph, contribution_id: str,
                    max_length: int = MAX_TRACE_LENGTH,
                    max_paths: int = MAX_TRACE_PATHS) -> TraceResult:
    """Simple paths from a contribution to any deployment node.

    Follows forward influence steps only, and never into a node from which no
    deployment can be reached; paths are bounded at `max_length` edges and at
    most `max_paths` come back, and the result says whether anything was cut
    off. Paths come back sorted lexicographically by their node-id sequence;
    under the path cap they are the lexicographically first ones, since the
    search visits successors in sorted order.
    """
    start = graph.node(contribution_id)
    if start.entry_type is not EntryType.CONTRIBUTION:
        raise WrongEntryType(f"{contribution_id} is not a Contribution")
    result = TraceResult()
    live = _reaching_deployments(graph)

    def dfs(node_id: str, path: list[str]) -> None:
        if graph.is_deployment(node_id):
            if len(result.paths) == max_paths:
                raise _PathCap
            result.paths.append(list(path))
            return
        nexts = [s for s in _trace_steps(graph, node_id) if s in live and s not in path]
        if not nexts:
            return
        if len(path) - 1 >= max_length:
            result.truncated = True
            return
        for s in nexts:
            path.append(s)
            dfs(s, path)
            path.pop()

    try:
        dfs(contribution_id, [contribution_id])
    except _PathCap:
        result.truncated = True
    result.paths.sort()
    return result


# ---------------------------------------------------------------------------
# linkage completeness

@dataclass
class LinkageReport:
    total_changes: int
    changes_with_contribution: int
    changes_with_test: int
    changes_fully_linked: int
    tests_with_run: int
    completeness_ratio: Fraction
    dangling: list[tuple[str, str]] = field(default_factory=list)

    def to_doc(self) -> dict:
        return {
            "totalChanges": self.total_changes,
            "changesWithContribution": self.changes_with_contribution,
            "changesWithTest": self.changes_with_test,
            "changesFullyLinked": self.changes_fully_linked,
            "testsWithRun": self.tests_with_run,
            "completenessRatio": str(self.completeness_ratio),
            "completenessRatioDecimal": float(self.completeness_ratio),
            "dangling": [{"entryId": e, "target": t} for e, t in self.dangling],
        }


def _resolves_to(graph: LedgerGraph, targets: Iterable[str],
                 entry_type: EntryType) -> bool:
    return any(
        t in graph.nodes and graph.nodes[t].entry_type is entry_type for t in targets)


def _change_has_test(graph: LedgerGraph, change: GraphNode) -> bool:
    if _resolves_to(graph, change.entry.links.uses_test, EntryType.TEST):
        return True
    # Tests reached through the change's evaluation runs: any run on one of
    # the changed (artifactId, versionAfter) pairs that uses a resolvable Test.
    produced = {(ca.artifact_id, ca.version_after)
                for ca in change.entry.payload.changed_artifacts}
    for node in graph.nodes_of_type(EntryType.EVALUATION_RUN):
        if node.redacted:
            continue
        p = node.payload
        if (p.artifact_id, p.version) in produced:
            if _resolves_to(graph, node.entry.links.uses_test, EntryType.TEST):
                return True
    return False


def linkage_completeness(graph: LedgerGraph,
                         include_evidence: bool = False) -> LinkageReport:
    """How much of the ledger's change surface is traceable.

    A Change counts as linked to participation when at least one influencedBy
    target resolves to a Contribution, and as tested when it reaches a Test
    either directly (usesTest) or through an evaluation run on one of its
    changed artifact versions. The ratio is fully linked changes over total
    changes, exactly 1 when there are no changes. Evidence links do not count
    toward the ratio unless `include_evidence` is set.
    """
    changes = [n for n in graph.nodes_of_type(EntryType.CHANGE)]
    with_contribution = 0
    with_test = 0
    fully = 0
    for change in changes:
        sources = list(change.entry.links.influenced_by)
        if include_evidence:
            sources += change.entry.links.evidence
        has_contribution = _resolves_to(graph, sources, EntryType.CONTRIBUTION)
        has_test = False if change.redacted else _change_has_test(graph, change)
        with_contribution += has_contribution
        with_test += has_test
        fully += has_contribution and has_test
    tests_with_run = sum(
        1 for t in graph.nodes_of_type(EntryType.TEST) if graph.into(t.id, "usesTest"))
    total = len(changes)
    ratio = Fraction(1) if total == 0 else Fraction(fully, total)
    return LinkageReport(
        total_changes=total,
        changes_with_contribution=with_contribution,
        changes_with_test=with_test,
        changes_fully_linked=fully,
        tests_with_run=tests_with_run,
        completeness_ratio=ratio,
        dangling=list(graph.dangling),
    )
