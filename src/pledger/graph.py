"""Typed influence graph over ledger entries.

Nodes are entries; the edge multiset is exactly the union of all declared
LinkSets, nothing inferred and nothing deduplicated. Almost every link kind
is an edge from the declaring entry to its target. `motivates` is the one
exception: it is declared by the motivated entry (a Test names the
contributions that motivated it, which may long predate it) and is an edge
from the target to the declarer, so its direction is always contribution ->
test. This keeps append-only writing compatible with edges that point at
later entries.

The reverse-direction convenience view between influencedBy and influences is
derived by `Snapshot.adjacent`, through which every edge read goes (and
`Snapshot.neighbours`, its set), and is never materialized.

Tombstoned entries stay in the graph with their type and edges; `hidden`
names them, and every reader leaves their payloads out.

`Snapshot` is the one-pass index of a ledger prefix that every read path
takes its entries, lineages, run lookups and new ids from. It is also the
graph: its nodes are `by_id`, and its edges are the LinkSets the entries
declare. A step along a declaration reads the declaring entry's own LinkSet;
the one stored edge index is the reverse, each (target, kind) with the ids
that declare it, built lazily on the first step against a declaration (or
read of `dangling`), so the commands that never take one never pay for it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from .errors import DuplicateId, IllegalTransition, UnknownNode, WrongEntryType
from .model import (
    DEPLOYMENT_KIND,
    LINK_ATTRS,
    VOUCHER_TRANSITIONS,
    EntryEnvelope,
    EntryType,
    is_reference_id,
    lineage_base,
    record,
)

if TYPE_CHECKING:  # imported by linkage_completeness, the only function that makes one
    from fractions import Fraction

# Edge kinds whose direction is target -> declarer.
_REVERSED_DECLARATION_KINDS = frozenset({"motivates"})

_ATTR_OF_KIND = dict(LINK_ATTRS)  # link kind -> LinkSet attribute

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

    Every index holds every entry; redaction is applied when reading, so a
    later Tombstone needs no rebuild. `hidden` maps each tombstoned id to
    the first Tombstone naming it, and a reader sees an index through one of
    two views: `live_of` (a type's entries that are not tombstoned) and
    `unhidden` (any index, such as a run or lineage list, without its
    tombstoned entries). Ids are unique: `add` raises DuplicateId on a
    repeat. `LedgerFile` keeps one of these live, calling `add` after each
    durable append.

    The snapshot is also the influence graph. Nodes are `by_id` and
    redaction is `hidden`; each declared link is one `(source, kind,
    target)` edge in `edges`, in declaration order, read from the entries'
    LinkSets. The one edge index, `(target, kind)` to the ids declaring
    that link, is built by `_sync`, not by `add`, on the first step against
    a declaration, and extended on later ones by the entries added since,
    so nodes and edges always agree. The same pass notes each link whose
    target names no entry yet, which `dangling` reads.
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
        # (target, kind) -> the ids declaring that link, in ledger order
        self._declarers: dict[tuple[str, str], list[str]] = {}
        # (declarer, target) for each reference-shaped target that named no
        # entry when `_sync` indexed its link, in declaration order
        self._unresolved: list[tuple[str, str]] = []
        self._linked = 0  # how many entries `_declarers` covers
        for entry in entries:
            self.add(entry)

    def add(self, entry: EntryEnvelope) -> None:
        entry_id = entry.id
        if entry_id in self.position:
            raise DuplicateId(f"entry id {entry_id!r} repeated")
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

    def check_voucher(self, voucher_id: str, payload: Any) -> None:
        """The voucher lifecycle rule: raise IllegalTransition unless a
        revision of `voucher_id`'s lineage may carry `payload`. A lineage
        starts as issued; after that each revision takes a status that
        VOUCHER_TRANSITIONS allows after the latest voucher revision's,
        tombstoned revisions included, and keeps that revision's capability,
        boundary and action."""
        base = self.base_of(voucher_id)
        current = None
        for prior in self.lineages.get(base, ()):
            if prior.entry_type is EntryType.VOUCHER:
                current = prior.payload
        status = payload.status
        if current is None:
            if status != "issued":
                raise IllegalTransition(
                    f"voucher lineage {base} must start as issued, got {status!r}")
        elif status not in VOUCHER_TRANSITIONS.get(current.status, frozenset()):
            raise IllegalTransition(f"voucher {base}: {current.status} -> {status} is not legal")
        else:
            for field in ("capability", "boundary", "action"):
                kept, got = getattr(current, field), getattr(payload, field)
                if got != kept:
                    raise IllegalTransition(
                        f"voucher {base}: a revision keeps {field} {kept!r}, got {got!r}")

    def unhidden(self, entries: Iterable[EntryEnvelope]) -> list[EntryEnvelope]:
        """Those of `entries` that are not tombstoned, in order."""
        return [e for e in entries if e.id not in self.hidden]

    def live_of(self, entry_type: EntryType) -> list[EntryEnvelope]:
        """Every entry of `entry_type` that is not tombstoned, in ledger order."""
        return self.unhidden(self.by_type[entry_type])

    def declaration(self, artifact_id: str, version: str) -> EntryEnvelope | None:
        """The first Artifact declaring the version that is not tombstoned."""
        declared = self.unhidden(self.versions.get((artifact_id, version), ()))
        return declared[0] if declared else None

    @property
    def head_hash(self) -> str | None:
        """The chain head, the last entry's hash, which the next append seals
        against; None when there is no entry or the last one is unsealed."""
        return getattr(self.entries[-1].integrity, "hash", None) if self.entries else None

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

    # -- influence graph: the declared links and their reverse index ----------

    def _sync(self) -> None:
        """Index the links of the entries not yet indexed by their targets,
        and note those whose reference-shaped target names no entry."""
        entries = self.entries
        if self._linked == len(entries):
            return
        declarers, nodes, unresolved = self._declarers, self.by_id, self._unresolved
        for entry in entries[self._linked:]:
            declarer, links = entry.id, entry.links
            for kind, attr in LINK_ATTRS:
                for target in getattr(links, attr):
                    declarers.setdefault((target, kind), []).append(declarer)
                    if target not in nodes and is_reference_id(target):
                        unresolved.append((declarer, target))
        self._linked = len(entries)

    @property
    def edges(self) -> list[tuple[str, str, str]]:
        return [(target, kind, entry.id) if kind in _REVERSED_DECLARATION_KINDS
                else (entry.id, kind, target)
                for entry in self.entries for kind, target in entry.links.iter_links()]

    @property
    def dangling(self) -> list[tuple[str, str]]:
        """(declarer, target) for each link whose reference-shaped target
        names no entry, in declaration order: the links `_sync` noted, less
        those whose target an entry added since names."""
        self._sync()
        nodes = self.by_id
        return [link for link in self._unresolved if link[1] not in nodes]

    def node(self, node_id: str) -> EntryEnvelope:
        try:
            return self.by_id[node_id]
        except KeyError:
            raise UnknownNode(f"no node {node_id!r} in graph") from None

    def is_deployment(self, node_id: str) -> bool:
        entry = self.by_id.get(node_id)
        if entry is None or entry.entry_type is not _ARTIFACT:
            return False
        if node_id in self.hidden:
            # A redacted artifact that something deploys to still counts.
            return bool(self.adjacent(node_id, "deployedAs", outgoing=False))
        return entry.payload.artifact_kind == DEPLOYMENT_KIND

    def deployment_ids(self) -> list[str]:
        return [e.id for e in self.by_type[_ARTIFACT] if self.is_deployment(e.id)]

    def _step(self, node_id: str, kind: str, along: bool) -> Iterable[str]:
        """The ends of `node_id`'s `kind` links: those it declares (`along`)
        from its own LinkSet, or those declaring it from the reverse index."""
        if not along:
            self._sync()
            return self._declarers.get((node_id, kind), ())
        entry = self.by_id.get(node_id)
        attr = _ATTR_OF_KIND.get(kind)
        return () if entry is None or attr is None else getattr(entry.links, attr)

    def adjacent(self, node_id: str, kind: str, outgoing: bool = True) -> Iterable[str]:
        """Successors (or, with outgoing=False, predecessors) of a node along
        the `kind` edges, dangling ends included, for a caller that only
        iterates: an end may repeat, and what comes back is the stored list
        itself, not a copy, so it must not be changed. influences and
        influencedBy each include the other's edges reversed; only they, when
        both directions hold ends, make a new set."""
        along = outgoing != (kind in _REVERSED_DECLARATION_KINDS)
        ends = self._step(node_id, kind, along)
        inverse = _INVERSE_KINDS.get(kind)
        if inverse is None:
            return ends
        reversed_ends = self._step(node_id, inverse, not along)
        if not ends:
            return reversed_ends
        return {*ends, *reversed_ends} if reversed_ends else ends

    def neighbours(self, node_id: str, kind: str, outgoing: bool = True) -> set[str]:
        """The ends `adjacent` gives, deduplicated into a new set."""
        return set(self.adjacent(node_id, kind, outgoing))


def build_graph(snapshot: Snapshot) -> Snapshot:
    """`snapshot` itself, with the reverse index of its declared links built
    now."""
    snapshot._sync()
    return snapshot


# ---------------------------------------------------------------------------
# influence tracing

@record
class TraceResult:
    paths: list[list[str]] = list
    truncated: bool = False


# The steps of influence, as (edge kind, whether it follows the edge's
# direction): influences (with the derived view of influencedBy), motivates,
# usesTest reversed, evaluates. A trace also takes deployedAs.
INFLUENCE_STEPS = (("influences", True), ("motivates", True), ("usesTest", False),
                   ("evaluates", True))
_TRACE_STEPS = (*INFLUENCE_STEPS, ("deployedAs", True))


def _trace_steps(graph: Snapshot, node_id: str) -> list[str]:
    """Graph nodes one trace step after `node_id`, sorted."""
    steps: set[str] = set()
    for kind, along in _TRACE_STEPS:
        steps.update(graph.adjacent(node_id, kind, along))
    return sorted(s for s in steps if s in graph.by_id)


def reach(graph: Snapshot, starts: Iterable[str],
          steps: Sequence[tuple[str, bool]]) -> Iterator[str]:
    """Each node of `graph` that some sequence of `steps` leads to from one of
    `starts`, once and in discovery order; the starts themselves never come
    back. A step is an edge kind and whether it follows the edge's direction."""
    nodes = graph.by_id
    frontier = list(starts)
    seen = set(frontier)
    while frontier:
        node_id = frontier.pop()
        for kind, along in steps:
            for end in graph.adjacent(node_id, kind, along):
                if end not in seen and end in nodes:
                    seen.add(end)
                    frontier.append(end)
                    yield end


class _PathCap(Exception):
    """Unwinds the path search once the path budget is spent."""


def trace_influence(graph: Snapshot, contribution_id: str,
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
    deployments = graph.deployment_ids()
    # The nodes that can reach a deployment: the trace steps taken backwards.
    live = {*deployments, *reach(graph, deployments, [(k, not a) for k, a in _TRACE_STEPS])}

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

@record
class LinkageReport:
    total_changes: int
    changes_with_contribution: int
    changes_with_test: int
    changes_fully_linked: int
    tests_with_run: int
    completeness_ratio: Fraction
    dangling: list[tuple[str, str]] = list

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


def change_linkage(graph: Snapshot) -> list[tuple[EntryEnvelope, bool, bool]]:
    """Each Change node with whether it is linked to a Contribution and to a
    Test.

    Linked to a Contribution: some influencedBy target resolves to one,
    tombstoned or not. Linked to a Test: the Change is not tombstoned and
    either a usesTest target resolves to a Test, or some live evaluation run
    on one of its changed (artifactId, versionAfter) pairs has a usesTest
    target that does.
    """
    nodes = graph.by_id
    covered: set[tuple[str, str]] | None = None

    def run_tested(change: EntryEnvelope) -> bool:
        nonlocal covered
        if covered is None:  # read the runs once, on first need
            covered = {(run.payload.artifact_id, run.payload.version)
                       for run in graph.live_of(_RUN)
                       if _resolves_to(nodes, run.links.uses_test, _TEST)}
        return any((ca.artifact_id, ca.version_after) in covered
                   for ca in change.payload.changed_artifacts)

    linkage = []
    for change in graph.by_type[_CHANGE]:
        has_contribution = _resolves_to(nodes, change.links.influenced_by,
                                        EntryType.CONTRIBUTION)
        has_test = change.id not in graph.hidden and (
            _resolves_to(nodes, change.links.uses_test, _TEST) or run_tested(change))
        linkage.append((change, has_contribution, has_test))
    return linkage


def linkage_completeness(graph: Snapshot) -> LinkageReport:
    """How much of the ledger's change surface is traceable.

    Each Change counts as linked to participation and as tested by the rules
    of `change_linkage`; evidence links do not count. The ratio is fully
    linked changes over total changes, exactly 1 when there are no changes.
    """
    from fractions import Fraction

    linkage = [(c, t) for _, c, t in change_linkage(graph)]
    with_contribution = sum(c for c, _ in linkage)
    with_test = sum(t for _, t in linkage)
    fully = sum(c and t for c, t in linkage)
    tests_with_run = sum(1 for t in graph.by_type[_TEST]
                         if graph.adjacent(t.id, "usesTest", outgoing=False))
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
