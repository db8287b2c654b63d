"""Evidence coverage audits, release exports, and conformance checks.

Coverage coding follows a fixed three-valued rule table per evidence column;
ambiguity codes conservatively as NotSpecified. The audit runs in two modes:
document mode formats human-supplied codings verbatim, ledger mode derives
each cell as the best level any contribution in the group achieves.

Release exports are self-contained documents: the entries reachable from a
release artifact (following links both ways, payload references, lineage
siblings, and covering tombstones), the chain head digest, and the gate
status of every voucher lineage still issued or active. Conformance checks
the four procurement clauses over such an export.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from .errors import MalformedExport, WrongEntryType
from .governance import gate_check, voucher_lineages
from .graph import LedgerGraph, Snapshot, build_graph, change_linkage
from .model import EntryEnvelope, EntryType, _is_number, parse_entry, validate_structure

COLUMNS = (
    "recruitmentPathway",
    "rolesAndIntermediaries",
    "consentPrivacyScope",
    "compensationTerms",
    "explicitInfluenceLinks",
)

CONFORMANCE_CLAUSES = (
    "a-evidenceFields",
    "b-traceabilityLinks",
    "c-testsAndRuns",
    "d-activeVouchers",
)


class CoverageLevel(str, Enum):
    NOT_SPECIFIED = "NotSpecified"
    PARTIAL = "Partial"
    REPORTED = "Reported"

    @property
    def rank(self) -> int:
        return ("NotSpecified", "Partial", "Reported").index(self.value)

    @classmethod
    def parse(cls, value: Any) -> "CoverageLevel":
        """Accept enum members, canonical names, and the spaced spelling
        used in prose tables ("Not specified")."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            folded = value.replace(" ", "").casefold()
            for member in cls:
                if member.value.casefold() == folded:
                    return member
        return cls.NOT_SPECIFIED


def _best(levels: list[CoverageLevel]) -> CoverageLevel:
    return max(levels, key=lambda lv: lv.rank, default=CoverageLevel.NOT_SPECIFIED)


# ---------------------------------------------------------------------------
# per-contribution coding rules

def _has_text(value: Any) -> bool:
    return isinstance(value, str) and bool(value.strip())


def _code_recruitment(entry: EntryEnvelope) -> CoverageLevel:
    if _has_text(entry.payload.recruitment_pathway):
        return CoverageLevel.REPORTED
    return CoverageLevel.NOT_SPECIFIED


def _code_roles(entry: EntryEnvelope) -> CoverageLevel:
    actor = entry.actor
    if not _has_text(actor.role):
        return CoverageLevel.NOT_SPECIFIED
    # Intermediary evidence: a steward organization on record, or the
    # recording actor being the facilitator intermediary itself.
    if _has_text(actor.steward_org) or actor.role == "facilitator":
        return CoverageLevel.REPORTED
    return CoverageLevel.PARTIAL


def _code_consent(entry: EntryEnvelope) -> CoverageLevel:
    consent = entry.consent
    if consent is None or not _has_text(consent.status):
        return CoverageLevel.NOT_SPECIFIED
    complete = (_has_text(consent.scope) and _has_text(consent.retention)
                and consent.reuse_constraints is not None)
    return CoverageLevel.REPORTED if complete else CoverageLevel.PARTIAL


def _code_compensation(entry: EntryEnvelope) -> CoverageLevel:
    compensation = entry.compensation
    if compensation is None or not _has_text(compensation.model):
        return CoverageLevel.NOT_SPECIFIED
    model = compensation.model
    if model == "none-declared":
        return CoverageLevel.PARTIAL
    if model in ("honorarium", "hourly"):
        amount = compensation.amount
        operational = (_is_number(amount) and amount > 0
                       and _has_text(compensation.currency))
        return CoverageLevel.REPORTED if operational else CoverageLevel.PARTIAL
    return CoverageLevel.REPORTED


def _reaches_change_or_test(graph: LedgerGraph, start: str) -> bool:
    seen = {start}
    frontier = [start]
    while frontier:
        node_id = frontier.pop()
        nexts = (*graph.neighbours(node_id, "influences"),
                 *graph.out(node_id, "motivates"),
                 *graph.into(node_id, "usesTest"),
                 *graph.out(node_id, "evaluates"))
        for succ in nexts:
            if succ in seen or succ not in graph.nodes:
                continue
            if graph.nodes[succ].entry_type in (EntryType.CHANGE, EntryType.TEST):
                return True
            seen.add(succ)
            frontier.append(succ)
    return False


def _code_influence(entry: EntryEnvelope, graph: LedgerGraph | None) -> CoverageLevel:
    if graph is not None and entry.id in graph.nodes:
        if _reaches_change_or_test(graph, entry.id):
            return CoverageLevel.REPORTED
        if entry.links.influences:
            return CoverageLevel.PARTIAL
        return CoverageLevel.NOT_SPECIFIED
    # No graph: declared influence can be seen but not resolved.
    if entry.links.influences or entry.links.influenced_by:
        return CoverageLevel.PARTIAL
    return CoverageLevel.NOT_SPECIFIED


def audit_contribution(entry: EntryEnvelope,
                       graph: LedgerGraph | None = None) -> dict[str, CoverageLevel]:
    """Code one contribution's evidence coverage, column by column.

    The rule table: recruitmentPathway is Reported when the pathway text is
    present; rolesAndIntermediaries is Reported when the role comes with
    intermediary evidence (steward org, or the facilitator role itself) and
    Partial on a bare role; consentPrivacyScope is Reported only when status,
    scope, retention, and reuseConstraints are all present; compensationTerms
    is Reported for a substantive model with its terms met; influence links
    are Reported when the graph actually resolves a path from the
    contribution to a Change or Test, Partial when declared but unresolved.
    """
    if entry.entry_type is not EntryType.CONTRIBUTION:
        raise WrongEntryType(f"{entry.id} is not a Contribution")
    return {
        "recruitmentPathway": _code_recruitment(entry),
        "rolesAndIntermediaries": _code_roles(entry),
        "consentPrivacyScope": _code_consent(entry),
        "compensationTerms": _code_compensation(entry),
        "explicitInfluenceLinks": _code_influence(entry, graph),
    }


# ---------------------------------------------------------------------------
# corpus matrices

@dataclass
class EvidenceMatrix:
    rows: list[tuple[str, dict[str, CoverageLevel]]] = field(default_factory=list)

    @property
    def columns(self) -> tuple[str, ...]:
        return COLUMNS

    def cell(self, case: str, column: str) -> CoverageLevel:
        for name, levels in self.rows:
            if name == case:
                return levels[column]
        raise KeyError(case)

    def to_doc(self) -> dict:
        return {
            "columns": list(COLUMNS),
            "rows": [
                {"case": name, **{c: levels[c].value for c in COLUMNS}}
                for name, levels in self.rows
            ],
        }

    def render_text(self) -> str:
        header = ["case", *COLUMNS]
        table = [header] + [
            [name, *(levels[c].value for c in COLUMNS)] for name, levels in self.rows]
        widths = [max(len(row[i]) for row in table) for i in range(len(header))]
        lines = []
        for index, row in enumerate(table):
            lines.append("  ".join(
                cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
            if index == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines) + "\n"

    def render_csv(self) -> str:
        lines = [",".join(["case", *COLUMNS])]
        for name, levels in self.rows:
            lines.append(",".join([name, *(levels[c].value for c in COLUMNS)]))
        return "\n".join(lines) + "\n"


def _group_key(entry_id: str) -> str:
    segments = entry_id.split(":")
    return segments[2] if len(segments) > 2 else entry_id


def audit_corpus(data: Any, mode: str = "document",
                 graph: LedgerGraph | None = None) -> EvidenceMatrix:
    """Assemble an evidence coverage matrix.

    Document mode takes a list of {case, codings} documents and formats the
    supplied codings verbatim (absent columns code NotSpecified). Ledger mode
    takes an entry source, groups contributions by the segment after the id
    kind, and scores each cell as the best level any group member achieves.
    """
    matrix = EvidenceMatrix()
    if mode == "document":
        for case in data:
            codings = case.get("codings", {})
            levels = {c: CoverageLevel.parse(codings.get(c)) for c in COLUMNS}
            matrix.rows.append((case.get("case", ""), levels))
        return matrix
    if mode != "ledger":
        raise ValueError(f"unknown audit mode {mode!r}")

    snapshot = Snapshot.of(data)
    if graph is None:
        graph = build_graph(snapshot)
    groups: dict[str, list[dict[str, CoverageLevel]]] = {}
    order: list[str] = []
    for entry in snapshot.by_type[EntryType.CONTRIBUTION]:
        if entry.id in snapshot.hidden:
            continue
        key = _group_key(entry.id)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(audit_contribution(entry, graph))
    for key in order:
        vectors = groups[key]
        levels = {c: _best([v[c] for v in vectors]) for c in COLUMNS}
        matrix.rows.append((key, levels))
    return matrix


# ---------------------------------------------------------------------------
# consent violations

def flag_consent_violations(source: Any) -> list[dict[str, str]]:
    """Changes that draw on contributions they were not entitled to.

    Two rules: a Change sealed after a contribution's consent was withdrawn
    (the lineage's latest revision before the change reads withdrawn), and a
    Change of a training-type kind (dataset, adapter) influencedBy a
    contribution recorded for evaluation only. Earlier changes stay clean;
    the rule respects entry order.
    """
    snapshot = Snapshot.of(source)
    violations: list[dict[str, str]] = []
    for change in snapshot.by_type[EntryType.CHANGE]:
        if change.id in snapshot.hidden:
            continue
        change_index = snapshot.position[change.id]
        for target in change.links.influenced_by:
            prior = [e for e in snapshot.lineage(target)
                     if e.entry_type is EntryType.CONTRIBUTION
                     and snapshot.position[e.id] < change_index]
            if not prior:
                continue
            latest = prior[-1]
            if latest.consent is not None and latest.consent.status == "withdrawn":
                violations.append({
                    "changeId": change.id,
                    "contributionId": target,
                    "violation": "withdrawnConsent",
                })
            if (latest.payload.intended_use == "evaluation-only"
                    and change.payload.change_kind in ("dataset", "adapter")):
                violations.append({
                    "changeId": change.id,
                    "contributionId": target,
                    "violation": "intendedUseViolation",
                })
    return violations


# ---------------------------------------------------------------------------
# release exports

def _declared(snapshot: Snapshot, artifact_id: str, version: str) -> str | None:
    """Id of the first Artifact declaring the version, tombstoned or not."""
    declared = snapshot.versions.get((artifact_id, version))
    return declared[0].id if declared else None


def _payload_references(entry: EntryEnvelope, snapshot: Snapshot) -> list[str]:
    refs: list[str] = []
    t = entry.entry_type
    p = entry.payload
    if t is EntryType.CHANGE:
        for changed in p.changed_artifacts:
            for version in (changed.version_before, changed.version_after):
                if version is not None:
                    hit = _declared(snapshot, changed.artifact_id, version)
                    if hit:
                        refs.append(hit)
    elif t is EntryType.EVALUATION_RUN:
        hit = _declared(snapshot, p.artifact_id, p.version)
        if hit:
            refs.append(hit)
        refs.append(p.test_id)
    elif t is EntryType.TEST:
        refs.extend(p.motivated_by)
    elif t is EntryType.VOUCHER:
        for condition in p.conditions:
            test = snapshot.by_id.get(condition.required_test_id)
            if test is not None and test.entry_type is EntryType.TEST:
                refs.append(test.id)
    elif t is EntryType.CREDIT:
        anchor = p.triggering_event.trigger_id()
        if anchor:
            refs.append(anchor)
    elif t is EntryType.TOMBSTONE:
        refs.append(p.target_id)
    return refs


def build_export(source: Any, artifact_id: str, version: str, *,
                 now: str | None = None, head_digest: str | None = None) -> dict:
    """Self-contained release export for one artifact version.

    Includes every entry reachable from the release artifact through link
    edges (either direction), payload references, id lineages, and covering
    tombstones; the current chain head digest; and one record per voucher
    lineage whose latest status is issued or active, each with its gate_check
    outcome against this release evaluated at `now` (default: the last
    included entry's createdAt). Targets that name no entry join nothing.
    """
    snapshot = Snapshot.of(source)
    seed = _declared(snapshot, artifact_id, version)
    if seed is None:
        raise MalformedExport(f"no declared version {version!r} of {artifact_id!r}")

    # The export is the release's connected component: entries joined by a
    # link (either direction), a payload reference, or a shared lineage.
    root = {entry_id: entry_id for entry_id in snapshot.by_id}

    def find(node_id: str) -> str:
        while root[node_id] != node_id:
            root[node_id] = root[root[node_id]]
            node_id = root[node_id]
        return node_id

    def join(a: str, b: str) -> None:
        if a in root and b in root:
            root[find(a)] = find(b)

    for entry in snapshot.entries:
        for _, target in entry.links.iter_links():
            join(entry.id, target)
        for target in _payload_references(entry, snapshot):
            join(entry.id, target)
    for lineage in snapshot.lineages.values():
        for entry in lineage[1:]:
            join(lineage[0].id, entry.id)

    release = find(seed)
    ordered = [e for e in snapshot.entries if find(e.id) == release]
    if now is None:
        now = ordered[-1].created_at if ordered else "1970-01-01T00:00:00Z"

    # Lineages and covering tombstones are included whole, so the voucher
    # lineages of the export are the ledger's lineages that it reaches.
    active_vouchers: list[dict] = []
    for base, lineage in voucher_lineages(snapshot).items():
        latest = lineage[-1]
        if find(latest.id) != release or latest.payload.status not in ("issued", "active"):
            continue
        gate = gate_check(snapshot, latest.payload.capability, artifact_id,
                          version, latest.payload.boundary, now)
        active_vouchers.append({
            "voucherId": base,
            "latestEntryId": latest.id,
            "status": latest.payload.status,
            "gate": gate.to_doc(),
        })

    if head_digest is None:
        head_digest = next((e.integrity.hash for e in reversed(snapshot.entries)
                            if e.integrity is not None), "")
    return {
        "release": {"artifactId": artifact_id, "version": version},
        "headDigest": head_digest,
        "entries": [e.to_doc() for e in ordered],
        "activeVouchers": active_vouchers,
    }


# ---------------------------------------------------------------------------
# conformance

@dataclass
class ClauseResult:
    passed: bool
    details: list[str] = field(default_factory=list)

    def to_doc(self) -> dict:
        return {"pass": self.passed, "details": list(self.details)}


@dataclass
class ConformanceReport:
    clause_results: dict[str, ClauseResult] = field(default_factory=dict)

    @property
    def overall(self) -> str:
        ok = all(r.passed for r in self.clause_results.values())
        return "conformant" if ok else "materialNonConformance"

    def ok(self) -> bool:
        return self.overall == "conformant"

    def to_doc(self) -> dict:
        return {
            "clauseResults": {k: v.to_doc() for k, v in self.clause_results.items()},
            "overall": self.overall,
        }


_EVIDENCE_RULE_PREFIXES = ("consent.", "compensation.", "actor.",
                           "contribution.consent", "contribution.compensation",
                           "contribution.representational")


def _parse_export(export: Any) -> tuple[dict, list[EntryEnvelope]]:
    if not isinstance(export, dict):
        raise MalformedExport("export must be a document")
    release = export.get("release")
    if not isinstance(release, dict) or not isinstance(release.get("artifactId"), str) \
            or not isinstance(release.get("version"), str):
        raise MalformedExport("export.release must carry artifactId and version")
    raw_entries = export.get("entries")
    if not isinstance(raw_entries, list):
        raise MalformedExport("export.entries must be a list")
    if not isinstance(export.get("activeVouchers", []), list):
        raise MalformedExport("export.activeVouchers must be a list")
    return release, [parse_entry(doc) for doc in raw_entries]


def check_export_conformance(export: Any) -> ConformanceReport:
    """Check the four procurement clauses against a release export.

    (a) contributions used beyond documentation carry valid evidence fields;
    (b) every change traces to a contribution and to a versioned test;
    (c) the release's tests and evaluation runs are present;
    (d) every issued or active voucher lineage is disclosed with a gate
    outcome. Overall is conformant exactly when all four pass.
    """
    release, entries = _parse_export(export)
    graph = build_graph(entries)
    snapshot = graph.snapshot
    hidden = snapshot.hidden
    report = ConformanceReport()

    a = ClauseResult(passed=True)
    for entry in snapshot.by_type[EntryType.CONTRIBUTION]:
        if entry.id in hidden or entry.payload.intended_use == "documentation":
            continue
        validation = validate_structure(entry)
        for violation in validation.violations:
            if violation.rule.startswith(_EVIDENCE_RULE_PREFIXES):
                a.passed = False
                a.details.append(f"{entry.id}: {violation.path}: {violation.message}")
    report.clause_results["a-evidenceFields"] = a

    b = ClauseResult(passed=True)
    for entry, has_contribution, has_test in change_linkage(graph):
        if entry.id in hidden:
            continue
        if not has_contribution:
            b.passed = False
            b.details.append(f"{entry.id}: no resolvable influencedBy contribution")
        if not has_test:
            b.passed = False
            b.details.append(f"{entry.id}: no linked versioned test")
    report.clause_results["b-traceabilityLinks"] = b

    c = ClauseResult(passed=True)
    live_tests = [e for e in snapshot.by_type[EntryType.TEST] if e.id not in hidden]
    release_runs = [e for e in snapshot.by_type[EntryType.EVALUATION_RUN]
                    if e.id not in hidden and e.payload.artifact_id == release["artifactId"]]
    if not live_tests:
        c.passed = False
        c.details.append("export contains no tests")
    if not release_runs:
        c.passed = False
        c.details.append(
            f"export contains no evaluation runs for {release['artifactId']}")
    report.clause_results["c-testsAndRuns"] = c

    d = ClauseResult(passed=True)
    disclosed = {item.get("voucherId"): item
                 for item in export.get("activeVouchers", [])
                 if isinstance(item, dict)}
    for base, lineage in voucher_lineages(snapshot).items():
        latest = lineage[-1]
        if latest.payload.status not in ("issued", "active"):
            continue
        item = disclosed.get(base)
        if item is None:
            d.passed = False
            d.details.append(f"{base}: {latest.payload.status} voucher not disclosed")
        elif "gate" not in item:
            d.passed = False
            d.details.append(f"{base}: disclosed without a gate outcome")
    report.clause_results["d-activeVouchers"] = d
    return report
