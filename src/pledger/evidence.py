"""Evidence coverage audits, release exports, and conformance checks.

Coverage coding follows a fixed three-valued rule table per evidence column;
ambiguity codes conservatively as NotSpecified. The ledger audit derives each
cell as the best level any contribution in the group achieves; a case file's
human-supplied codings are formatted verbatim into the same matrix.

Release exports are self-contained documents: the entries reachable from a
release artifact (following links both ways, payload references, lineage
siblings, and covering tombstones), the chain head digest, and the gate
status of every voucher lineage still issued or active. Conformance checks
the four procurement clauses over such an export.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Any

from .errors import MalformedDocument, MalformedExport, WrongEntryType
from .governance import gate_check, voucher_lineages
from .graph import INFLUENCE_STEPS, Snapshot, build_graph, change_linkage, reach
from .model import (_STRING, ALWAYS, OPEN_VOUCHER_STATUSES, EntryEnvelope, EntryType, _is_number,
                    codec, decode_checked, parse_timestamp, record, validate_structure, wire)

if TYPE_CHECKING:  # imported by EvidenceMatrix.table, which only text and CSV output call
    from .query import ResultTable

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


def _code_influence(entry: EntryEnvelope, graph: Snapshot) -> CoverageLevel:
    nodes = graph.by_id
    if any(nodes[node_id].entry_type in (EntryType.CHANGE, EntryType.TEST)
           for node_id in reach(graph, [entry.id], INFLUENCE_STEPS)):
        return CoverageLevel.REPORTED
    if entry.links.influences:
        return CoverageLevel.PARTIAL
    return CoverageLevel.NOT_SPECIFIED


def audit_contribution(entry: EntryEnvelope, graph: Snapshot) -> dict[str, CoverageLevel]:
    """Code one contribution's evidence coverage, column by column, in
    `graph`, the snapshot that holds it.

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

@record
class EvidenceMatrix:
    rows: list[tuple[str, dict[str, CoverageLevel]]] = list

    @property
    def columns(self) -> tuple[str, ...]:
        return COLUMNS

    def to_doc(self) -> dict:
        return {
            "columns": list(COLUMNS),
            "rows": [
                {"case": name, **{c: levels[c].value for c in COLUMNS}}
                for name, levels in self.rows
            ],
        }

    def table(self) -> ResultTable:
        """The matrix as a query result table: a case per row."""
        from .query import ResultTable

        return ResultTable(["case", *COLUMNS], [
            (name, *(levels[c].value for c in COLUMNS)) for name, levels in self.rows])


def _group_key(entry_id: str) -> str:
    segments = entry_id.split(":")
    return segments[2] if len(segments) > 2 else entry_id


def case_matrix(cases: Any) -> EvidenceMatrix:
    """The matrix of a case file: a list of {case, codings} documents, each
    case's supplied codings formatted verbatim (absent columns code
    NotSpecified)."""
    if not isinstance(cases, list) or not all(
            isinstance(case, dict) and isinstance(case.get("case", ""), str)
            and isinstance(case.get("codings", {}), dict) for case in cases):
        raise MalformedDocument("cases must be a list of objects, each with a string"
                                " case and a codings object")
    matrix = EvidenceMatrix()
    for case in cases:
        codings = case.get("codings", {})
        levels = {c: CoverageLevel.parse(codings.get(c)) for c in COLUMNS}
        matrix.rows.append((case.get("case", ""), levels))
    return matrix


def audit_corpus(snapshot: Snapshot) -> EvidenceMatrix:
    """The evidence coverage matrix of a ledger: contributions grouped by the
    segment after the id kind, each cell the best level any group member
    achieves."""
    build_graph(snapshot)  # every contribution's influence cell reads edges
    matrix = EvidenceMatrix()
    groups: dict[str, list[dict[str, CoverageLevel]]] = {}
    for entry in snapshot.live_of(EntryType.CONTRIBUTION):
        groups.setdefault(_group_key(entry.id), []).append(audit_contribution(entry, snapshot))
    for key, vectors in groups.items():
        levels = {c: _best([v[c] for v in vectors]) for c in COLUMNS}
        matrix.rows.append((key, levels))
    return matrix


# ---------------------------------------------------------------------------
# consent violations

def flag_consent_violations(snapshot: Snapshot) -> list[dict[str, str]]:
    """Changes that draw on contributions they were not entitled to.

    Two rules: a Change sealed after a contribution's consent was withdrawn
    (the lineage's latest revision before the change reads withdrawn), and a
    Change of a training-type kind (dataset, adapter) influencedBy a
    contribution recorded for evaluation only. Earlier changes stay clean;
    the rule respects entry order. The lineage read includes tombstoned
    revisions, since a withdrawal tombstones the original.
    """
    violations: list[dict[str, str]] = []
    for change in snapshot.live_of(EntryType.CHANGE):
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


def build_export(snapshot: Snapshot, artifact_id: str, version: str, *,
                 now: str | None = None) -> dict:
    """Self-contained release export for one artifact version.

    Includes every entry reachable from the release artifact through link
    edges (either direction), payload references, id lineages, and covering
    tombstones; the chain head, `Snapshot.head_hash`; and one record per
    voucher lineage whose latest status is issued or active, each with its
    gate_check outcome against this release evaluated at `now` (default: the
    last included entry's createdAt). Targets that name no entry join nothing.
    """
    if now is not None:
        parse_timestamp(now)  # a malformed `now` is refused before anything is built
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
        if find(latest.id) != release or latest.payload.status not in OPEN_VOUCHER_STATUSES:
            continue
        gate = gate_check(snapshot, latest.payload.capability, artifact_id,
                          version, latest.payload.boundary, now)
        active_vouchers.append({
            "voucherId": base,
            "latestEntryId": latest.id,
            "status": latest.payload.status,
            "gate": gate.to_doc(),
        })

    return {
        "release": {"artifactId": artifact_id, "version": version},
        "headDigest": snapshot.head_hash or "",
        "entries": [e.to_doc() for e in ordered],
        "activeVouchers": active_vouchers,
    }


# ---------------------------------------------------------------------------
# conformance

@record
class ClauseResult:
    passed: bool = wire("pass")
    details: list[str] = wire("details", list, codec=list[str], omit=ALWAYS)


@record
class ConformanceReport:
    clause_results: dict[str, ClauseResult] = dict

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


@codec("export.activeVouchers[]")
class VoucherDisclosure:
    """An open voucher lineage as an export discloses it, with its gate outcome."""

    voucher_id: str = wire("voucherId", check=_STRING)
    gate: Any = wire("gate", None)
    extensions: dict = dict


@codec("export")
class ReleaseExport:
    """The header of a release export, and its entries, each decoded once."""

    release: dict | None = wire("release", codec=dict)
    entries: list[EntryEnvelope] | None = wire("entries", codec=list[EntryEnvelope])
    active_vouchers: list[VoucherDisclosure] = wire(
        "activeVouchers", list, codec=list[VoucherDisclosure])
    extensions: dict = dict

    def cross_check(self, where: str, report: Any) -> None:
        release = self.release or {}
        if not all(isinstance(release.get(key), str) for key in ("artifactId", "version")):
            report.add(f"{where}.release", "export.release", "must carry artifactId and version")
        if self.entries is None:
            report.add(f"{where}.entries", "export.entries", "must be a list")


def check_export_conformance(export: Any) -> ConformanceReport:
    """Check the four procurement clauses against a release export.

    (a) contributions used beyond documentation carry valid evidence fields;
    (b) every change traces to a contribution and to a versioned test;
    (c) the release's tests and evaluation runs are present;
    (d) every issued or active voucher lineage is disclosed with a gate
    outcome. Overall is conformant exactly when all four pass.
    """
    export = decode_checked(ReleaseExport.from_doc, export, MalformedExport, "export")
    artifact_id = export.release["artifactId"]
    snapshot = Snapshot(export.entries)  # no clause reads an edge
    # Each clause's details; a clause passes when it has none.
    a: list[str] = []
    for entry in snapshot.live_of(EntryType.CONTRIBUTION):
        if entry.payload.intended_use != "documentation":
            a += [f"{entry.id}: {v.path}: {v.message}" for v in validate_structure(entry).violations
                  if v.rule.startswith(_EVIDENCE_RULE_PREFIXES)]

    b: list[str] = []
    for entry, has_contribution, has_test in change_linkage(snapshot):
        if snapshot.live(entry.id, EntryType.CHANGE) is None:
            continue
        if not has_contribution:
            b.append(f"{entry.id}: no resolvable influencedBy contribution")
        if not has_test:
            b.append(f"{entry.id}: no linked versioned test")

    c: list[str] = []
    if not snapshot.live_of(EntryType.TEST):
        c.append("export contains no tests")
    if not any(e.payload.artifact_id == artifact_id
               for e in snapshot.live_of(EntryType.EVALUATION_RUN)):
        c.append(f"export contains no evaluation runs for {artifact_id}")

    d: list[str] = []
    disclosed = {item.voucher_id: item for item in export.active_vouchers}
    for base, lineage in voucher_lineages(snapshot).items():
        status = lineage[-1].payload.status
        if status not in OPEN_VOUCHER_STATUSES:
            continue
        item = disclosed.get(base)
        if item is None:
            d.append(f"{base}: {status} voucher not disclosed")
        elif item.gate is None:
            d.append(f"{base}: disclosed without a gate outcome")
    return ConformanceReport({clause: ClauseResult(not details, details)
                              for clause, details in zip(CONFORMANCE_CLAUSES, (a, b, c, d))})
