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
path takes its entries, lineages, run lookups and new ids from; the graph is
a view over one, adding only the adjacency of the declared links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable

from .errors import UnknownNode, WrongEntryType
from .model import DEPLOYMENT_KIND, EntryEnvelope, EntryType, LinkSet, is_reference_id, lineage_base

# Edge kinds whose stored direction is target -> declarer.
_REVERSED_DECLARATION_KINDS = frozenset({"motivates"})

# (kind, LinkSet attribute, whether the edge runs target -> declarer)
_LINK_ATTRS = tuple((kind, attr, kind in _REVERSED_DECLARATION_KINDS)
                    for kind, attr in LinkSet._ATTR_FOR_KIND.items())

# The derived view: each of these kinds also reads the other's edges reversed.
_INVERSE_KINDS = {"influences": "influencedBy", "influencedBy": "influences"}

# Bounds on a trace: path length in edges, and the number of paths returned.
MAX_TRACE_LENGTH = 16
MAX_TRACE_PATHS = 10_000

# Enum member lookups cost more than a global read on the per-entry path.
_RUN, _ARTIFACT, _TOMBSTONE = EntryType.EVALUATION_RUN, EntryType.ARTIFACT, EntryType.TOMBSTONE
_CHANGE, _TEST = EntryType.CHANGE, EntryType.TEST


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
        """A Snapshot as is, the one a ledger file or graph holds, or one
        built from a plain iterable of entries."""
        if isinstance(source, Snapshot):
            return source
        live = getattr(source, "snapshot", None)
        if live is not None:
            return live
        return cls(source)

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


class LedgerGraph:
    """The influence graph as an adjacency view over one Snapshot.

    Nodes are the snapshot's `by_id` (the first occurrence of a repeated id
    wins) and redaction is its `hidden`; each declared link is one
    `(source, kind, target)` edge in `edges`, in declaration order. Adjacency
    is built here, not in `Snapshot.add`, so the commands that never read
    edges never pay for it. Entries added to the snapshot after the graph is
    built (a `LedgerFile` append) get their edges on the next read of
    `edges`, `dangling` or the adjacency, so nodes and edges always agree.
    """

    def __init__(self, source: Any):
        self.snapshot = Snapshot.of(source)
        self.nodes = self.snapshot.by_id
        self._edges: list[tuple[str, str, str]] = []
        self._out: dict[tuple[str, str], list[str]] = {}
        self._in: dict[tuple[str, str], list[str]] = {}
        self._linked = 0  # how many snapshot entries the adjacency covers
        self._sync()

    def _sync(self) -> None:
        """Add the edges of snapshot entries not yet read."""
        entries = self.snapshot.entries
        if self._linked == len(entries):
            return
        edges, out, into = self._edges, self._out, self._in
        for entry in entries[self._linked:]:
            declarer, links = entry.id, entry.links
            for kind, attr, reverse in _LINK_ATTRS:
                for target in getattr(links, attr):
                    source, sink = (target, declarer) if reverse else (declarer, target)
                    edges.append((source, kind, sink))
                    out.setdefault((source, kind), []).append(sink)
                    into.setdefault((sink, kind), []).append(source)
        self._linked = len(entries)

    @property
    def edges(self) -> list[tuple[str, str, str]]:
        self._sync()
        return self._edges

    @property
    def dangling(self) -> list[tuple[str, str]]:
        """(declarer, target) for each link whose reference-shaped target
        names no entry, in declaration order."""
        links = ((t, s) if k in _REVERSED_DECLARATION_KINDS else (s, t)
                 for s, k, t in self.edges)
        return [(d, t) for d, t in links if t not in self.nodes and is_reference_id(t)]

    # -- basic access ---------------------------------------------------------

    def node(self, node_id: str) -> EntryEnvelope:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNode(f"no node {node_id!r} in graph") from None

    def out(self, node_id: str, kind: str) -> list[str]:
        self._sync()
        return self._out.get((node_id, kind), [])

    def into(self, node_id: str, kind: str) -> list[str]:
        self._sync()
        return self._in.get((node_id, kind), [])

    def is_deployment(self, node_id: str) -> bool:
        entry = self.nodes.get(node_id)
        if entry is None or entry.entry_type is not _ARTIFACT:
            return False
        if node_id in self.snapshot.hidden:
            # A redacted artifact that something deploys to still counts.
            return bool(self.into(node_id, "deployedAs"))
        return entry.payload.artifact_kind == DEPLOYMENT_KIND

    def deployment_ids(self) -> list[str]:
        return [e.id for e in self.snapshot.by_type[_ARTIFACT]
                if self.nodes[e.id] is e and self.is_deployment(e.id)]

    def edge_pairs(self, kind: str) -> set[tuple[str, str]]:
        """Directed (source, target) pairs of `kind`, dangling ends included;
        the influencedBy/influences pair each include the other's reverse."""
        pairs = {(s, t) for s, k, t in self.edges if k == kind}
        inverse = _INVERSE_KINDS.get(kind)
        if inverse is not None:
            pairs |= {(t, s) for s, k, t in self.edges if k == inverse}
        return pairs

    def neighbours(self, node_id: str, kind: str, outgoing: bool = True) -> set[str]:
        """Successors (or, with outgoing=False, predecessors) of a node among
        `edge_pairs(kind)`, deduplicated, read from the adjacency index."""
        self._sync()
        ahead, behind = (self._out, self._in) if outgoing else (self._in, self._out)
        found = set(ahead.get((node_id, kind), ()))
        inverse = _INVERSE_KINDS.get(kind)
        if inverse is not None:
            found.update(behind.get((node_id, inverse), ()))
        return found

    # -- exports ----------------------------------------------------------------

    def edge_list_text(self) -> str:
        """Tab-separated `from kind to`, one edge per line, declaration order."""
        return "".join(f"{s}\t{k}\t{t}\n" for s, k, t in self.edges)

    def write_edge_list(self, path: str | Path) -> None:
        Path(path).write_text(self.edge_list_text(), encoding="utf-8")


def build_graph(source: Any) -> LedgerGraph:
    """The graph over anything `Snapshot.of` accepts; a Snapshot, or a ledger
    file's live one, is reused rather than rebuilt."""
    return LedgerGraph(source)


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


def _resolves_to(nodes: dict[str, EntryEnvelope], targets: Iterable[str],
                 entry_type: EntryType) -> bool:
    return any((e := nodes.get(t)) is not None and e.entry_type is entry_type
               for t in targets)


def change_linkage(graph: LedgerGraph) -> list[tuple[EntryEnvelope, bool, bool]]:
    """Each Change node with whether it is linked to a Contribution and to a
    Test.

    Linked to a Contribution: some influencedBy target resolves to one,
    tombstoned or not. Linked to a Test: the Change is not tombstoned and
    either a usesTest target resolves to a Test, or some live evaluation run
    on one of its changed (artifactId, versionAfter) pairs has a usesTest
    target that does.
    """
    nodes, hidden, by_type = graph.nodes, graph.snapshot.hidden, graph.snapshot.by_type
    covered: set[tuple[str, str]] | None = None

    def run_tested(change: EntryEnvelope) -> bool:
        nonlocal covered
        if covered is None:  # read the runs once, on first need
            covered = {(run.payload.artifact_id, run.payload.version)
                       for run in by_type[_RUN]
                       if nodes[run.id] is run and run.id not in hidden
                       and _resolves_to(nodes, run.links.uses_test, _TEST)}
        return any((ca.artifact_id, ca.version_after) in covered
                   for ca in change.payload.changed_artifacts)

    linkage = []
    for change in by_type[_CHANGE]:
        if nodes[change.id] is not change:
            continue
        has_contribution = _resolves_to(nodes, change.links.influenced_by,
                                        EntryType.CONTRIBUTION)
        has_test = change.id not in hidden and (
            _resolves_to(nodes, change.links.uses_test, _TEST) or run_tested(change))
        linkage.append((change, has_contribution, has_test))
    return linkage


def linkage_completeness(graph: LedgerGraph,
                         include_evidence: bool = False) -> LinkageReport:
    """How much of the ledger's change surface is traceable.

    Each Change counts as linked to participation and as tested by the rules
    of `change_linkage`. The ratio is fully linked changes over total
    changes, exactly 1 when there are no changes. Evidence links do not count
    toward the ratio unless `include_evidence` is set.
    """
    linkage = [(c or (include_evidence and _resolves_to(
                    graph.nodes, change.links.evidence, EntryType.CONTRIBUTION)), t)
               for change, c, t in change_linkage(graph)]
    with_contribution = sum(c for c, _ in linkage)
    with_test = sum(t for _, t in linkage)
    fully = sum(c and t for c, t in linkage)
    tests_with_run = sum(1 for t in graph.snapshot.by_type[_TEST]
                         if graph.nodes[t.id] is t and graph.into(t.id, "usesTest"))
    total = len(linkage)
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
