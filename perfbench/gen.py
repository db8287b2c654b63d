"""Seeded ledgers for the benchmark workloads and the answers expected of them.

A plan is the list of entries one workload's ledger is built from; building
appends every item through `LedgerFile.append` (or `LedgerFile.redact`, which
appends), so structural validation and both fsyncs stay on. Alongside the plan
the generator fills a `World`: its own record of what it wrote (entry count,
run decisions, voucher states, links, credits). Every expected answer below is
computed from the World alone, never through pledger's read paths, so a read
path that returns something else shows up as a failed operation.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from datetime import datetime, timedelta, timezone
from decimal import ROUND_HALF_EVEN, Decimal
from pathlib import Path

from pledger.model import (
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
    TriggeringEvent,
    VoucherCondition,
    VoucherPayload,
)
from pledger.store import LedgerFile

ARTIFACT = "pl:artifact:bench:model"
CAPABILITIES = ("text-generation", "image-generation", "summarization")
TOPICS = ("accessibility", "privacy", "safety", "fairness", "accuracy", "tone", "locale", "consent")
BASE_TIME = datetime(2025, 1, 1, tzinfo=timezone.utc)
WINDOW = ("2025-01-01T00:00:00Z", "2026-06-30T00:00:00Z")
PASS_BOUND = 0.8
MISSING_RESULTS = {"reason": "missingResults"}
DEFAULT_ALLOW = "noApplicableVoucher-defaultAllow"
STEWARD = ActorRef(role="communitySteward", steward_org="pl:org:bench-stewards")
MAINTAINER = ActorRef(role="maintainer", pseudonym="M1")
EVALUATOR = ActorRef(role="evaluator", pseudonym="E1")
# regressionDetected is the only kind that earns units and passes through the
# quality gate; remediation earns units without it; scheduled runs earn none.
POLICY = {
    "unitsPerEvent": {"regressionDetected": 10, "remediationCompleted": 5,
                      "scheduledRunDependency": 0},
    "capPerBeneficiaryPerPeriod": 1000000,
    "periodDays": 365,
    "qualityGate": True,
    "persistenceGateReleases": 0,
}
LEVELS = ("NotSpecified", "Partial", "Reported")
EVIDENCE_COLUMNS = ("recruitmentPathway", "rolesAndIntermediaries", "consentPrivacyScope",
                    "compensationTerms", "explicitInfluenceLinks")
CONTRIBUTION_KINDS = (("prompt", "prompt"), ("label", "preferenceLabel"),
                      ("rationale", "deliberationRationale"), ("excerpt", "interviewExcerpt"),
                      ("criteria", "criteriaDefinition"))


def stamp(dt: datetime) -> str:
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def fold(decisions) -> str:
    verdict = "allPass"
    for d in decisions:
        if d == "fail":
            return "anyFail"
        if d == "inconclusive":
            verdict = "anyInconclusive"
    return verdict


def share(units: int, n: int) -> Decimal:
    return (Decimal(units) / n).quantize(Decimal("0.01"), rounding=ROUND_HALF_EVEN)


def id_head(test_id: str) -> str:
    return test_id.split(":")[2]


def run_value(rng: random.Random, decision: str):
    if decision == "pass":
        return {"value": round(rng.uniform(0.81, 0.99), 2)}
    if decision == "fail":
        return {"value": round(rng.uniform(0.31, 0.79), 2)}
    return dict(MISSING_RESULTS)


class World:
    """What the generator wrote, and the answers that implies."""

    def __init__(self, scale: float):
        self.scale = scale
        self.plan: list = []
        self.clock = BASE_TIME
        self.last_hash: str | None = None
        self.contribs: dict[str, dict] = {}
        self.tests: dict[str, dict] = {}
        self.versions: list[str] = []
        self.deployed: dict[str, list[str]] = {}
        self.deployments: dict[str, str] = {}
        self.runs: list[dict] = []
        self.latest: dict[tuple[str, str], str] = {}
        self.changes: list[dict] = []
        self.vouchers: dict[str, dict] = {}
        self.credits: list[dict] = []
        self.hidden: set[str] = set()
        self.orphans: set[str] = set()
        self.dangling = 0
        self.linked: list[str] = []

    # -- sizes and time -------------------------------------------------------

    def lin(self, n: int) -> int:
        return max(1, round(n * self.scale))

    def side(self, n: int) -> int:
        return max(2, round(n * math.sqrt(self.scale)))

    def tick(self, minutes: int = 1) -> str:
        self.clock += timedelta(minutes=minutes)
        return stamp(self.clock)

    @property
    def count(self) -> int:
        return len(self.plan)

    # -- entry constructors ---------------------------------------------------

    def add_contribution(self, cid: str, rng: random.Random, *, org: str | None,
                         kind: str, intended_use: str, influences: list[str],
                         evidence: list[str], rev_of: str | None = None,
                         withdrawn: bool = False) -> EntryEnvelope:
        role = "resident" if org or rng.random() < 0.6 else "facilitator"
        pathway = "workshop-invite" if rng.random() < 0.3 else None
        full_consent = rng.random() < 0.6
        comp = rng.choice(("honorarium", "honorarium", "credit-linked", "none-declared"))
        if rev_of is not None:
            base = self.contribs[rev_of]
            role, pathway, full_consent, comp = (base["role"], base["pathway"], base["full"],
                                                 base["comp"])
        pseudonym = None if org else "p" + hashlib.sha256(cid.encode()).hexdigest()[:6]
        entry = EntryEnvelope(
            id=cid,
            entry_type=EntryType.CONTRIBUTION,
            created_at=self.tick(),
            actor=ActorRef(role=role, pseudonym=pseudonym, steward_org=org),
            payload=ContributionPayload(
                kind=kind,
                summary=f"Contribution {cid} on {kind}.",
                artifact_ref="artifact:prompt:sha256:" + hashlib.sha256(cid.encode()).hexdigest(),
                intended_use=intended_use,
                recruitment_pathway=pathway,
            ),
            consent=ConsentBlock(status="withdrawn" if withdrawn else "granted",
                                 scope="research+design", retention="3y",
                                 reuse_constraints=["no-resale"] if full_consent else None),
            compensation=(CompensationBlock(model="honorarium", amount=50, currency="CAD")
                          if comp == "honorarium" else CompensationBlock(model=comp)),
            links=LinkSet(influences=list(influences), evidence=list(evidence)),
        )
        self.contribs[cid] = {
            "index": self.count, "group": cid.split(":")[2], "org": org, "role": role,
            "name": org or entry.actor.pseudonym, "kind": kind, "use": intended_use,
            "pathway": pathway, "full": full_consent, "comp": comp,
            "influences": list(influences), "withdrawn": withdrawn,
            "base": rev_of or cid,
        }
        self.dangling += sum(1 for e in evidence if e.startswith("pl:"))
        self.plan.append(entry)
        return entry

    def add_test(self, tid: str, topic: str, motivated_by: list[str]) -> None:
        self.tests[tid] = {"topic": topic, "motivated_by": list(motivated_by)}
        self.plan.append(EntryEnvelope(
            id=tid,
            entry_type=EntryType.TEST,
            created_at=self.tick(),
            actor=EVALUATOR,
            payload=TestPayload(
                topic=topic,
                expected_behavior=f"Outputs on {topic} prompts score at least {PASS_BOUND}.",
                measurement=MeasurementProcedure(runner_kind="threshold", metric_name="score",
                                                 comparator=">=", bound=PASS_BOUND),
                input_spec={"promptSet": f"{topic}-v1"},
                motivated_by=list(motivated_by),
            ),
            links=LinkSet(motivates=list(motivated_by)),
        ))

    def add_deployment(self, k: int) -> str:
        did = f"pl:artifact:bench:deploy-{k}"
        self.deployments[did] = f"boundary-{k}"
        self.plan.append(EntryEnvelope(
            id=did,
            entry_type=EntryType.ARTIFACT,
            created_at=self.tick(),
            actor=ActorRef(role="deployer", pseudonym="D1"),
            payload=ArtifactPayload(artifact_id=did, artifact_kind="extension:deployment",
                                    version="v1",
                                    content_ref=f"https://deploy.example/bench/{k}",
                                    boundary=f"boundary-{k}"),
        ))
        return did

    def add_version(self, version: str, deployed: list[str]) -> EntryEnvelope:
        self.versions.append(version)
        self.deployed[version] = list(deployed)
        entry = EntryEnvelope(
            id=f"{ARTIFACT}:{version}",
            entry_type=EntryType.ARTIFACT,
            created_at=self.tick(),
            actor=MAINTAINER,
            payload=ArtifactPayload(
                artifact_id=ARTIFACT, artifact_kind="model", version=version,
                content_ref="artifact:model:sha256:"
                + hashlib.sha256(f"{ARTIFACT}@{version}".encode()).hexdigest()),
            links=LinkSet(deployed_as=list(deployed)),
        )
        self.plan.append(entry)
        return entry

    def record_run(self, rid: str, tid: str, version: str, decision: str,
                   checkpoint: str, when: str) -> None:
        self.runs.append({"id": rid, "test": tid, "version": version, "decision": decision,
                          "checkpoint": checkpoint, "timestamp": when, "index": self.count})
        self.latest[(tid, version)] = decision

    def add_run(self, tid: str, version: str, decision: str, checkpoint: str,
                rng: random.Random) -> str:
        rid = f"pl:run:{id_head(tid)}:{version}:001"
        when = self.tick()
        self.record_run(rid, tid, version, decision, checkpoint, when)
        self.plan.append(EntryEnvelope(
            id=rid,
            entry_type=EntryType.EVALUATION_RUN,
            created_at=when,
            actor=EVALUATOR,
            payload=EvaluationRunPayload(
                test_id=tid, artifact_id=ARTIFACT, version=version, decision=decision,
                checkpoint=checkpoint, evaluator=EVALUATOR,
                raw_results=run_value(rng, decision), timestamp=when),
            links=LinkSet(uses_test=[tid], evaluates=[f"{ARTIFACT}:{version}"]),
        ))
        return rid

    def change_entry(self, chid: str, kind: str, version: str, influenced_by: list[str],
                     uses_test: list[str], remediates: list[str]) -> EntryEnvelope:
        before = self.versions[-1] if self.versions else None
        self.changes.append({"id": chid, "kind": kind, "influenced_by": list(influenced_by),
                             "uses_test": list(uses_test), "remediates": list(remediates),
                             "index": self.count})
        return EntryEnvelope(
            id=chid,
            entry_type=EntryType.CHANGE,
            created_at=self.tick(),
            actor=MAINTAINER,
            payload=ChangePayload(
                change_kind=kind,
                rationale=f"Change {chid} toward {version}.",
                changed_artifacts=[ChangedArtifact(artifact_id=ARTIFACT, version_after=version,
                                                   version_before=before)]),
            links=LinkSet(influenced_by=list(influenced_by), uses_test=list(uses_test),
                          remediates=list(remediates)),
        )

    def voucher_payload(self, capability: str, boundary: str, action: str,
                        conditions: list[tuple[str, str | None]], status: str) -> VoucherPayload:
        return VoucherPayload(
            capability=capability, boundary=boundary, action=action, steward=STEWARD,
            status=status,
            conditions=[VoucherCondition(required_test_id=t, must_pass_on_version=pin)
                        for t, pin in conditions])

    def issue_voucher(self, base: str, capability: str, boundary: str, action: str,
                      conditions: list[tuple[str, str | None]],
                      evidence: list[str]) -> EntryEnvelope:
        self.vouchers[base] = {"capability": capability, "boundary": boundary, "action": action,
                               "conditions": list(conditions), "status": "issued",
                               "latest": base, "revs": 0}
        entry = EntryEnvelope(
            id=base, entry_type=EntryType.VOUCHER, created_at=self.tick(), actor=STEWARD,
            payload=self.voucher_payload(capability, boundary, action, conditions, "issued"),
            links=LinkSet(evidence=list(evidence)))
        self.plan.append(entry)
        return entry

    def move_voucher(self, base: str, status: str) -> EntryEnvelope:
        v = self.vouchers[base]
        v["revs"] += 1
        v["status"] = status
        v["latest"] = f"{base}:rev{v['revs']}"
        entry = EntryEnvelope(
            id=v["latest"], entry_type=EntryType.VOUCHER, created_at=self.tick(), actor=STEWARD,
            payload=self.voucher_payload(v["capability"], v["boundary"], v["action"],
                                         v["conditions"], status))
        self.plan.append(entry)
        return entry

    def add_voucher(self, base: str, capability: str, boundary: str, action: str,
                    conditions: list[tuple[str, str | None]], evidence: str,
                    activate: bool) -> None:
        self.issue_voucher(base, capability, boundary, action, conditions, [evidence])
        if activate:
            self.move_voucher(base, "active")

    def add_credit(self, cid: str, beneficiary: str, units, anchor: str) -> None:
        when = self.tick()
        self.credits.append({"beneficiary": beneficiary, "units": Decimal(str(units)),
                             "created_at": when})
        self.plan.append(EntryEnvelope(
            id=cid, entry_type=EntryType.CREDIT, created_at=when,
            actor=ActorRef(role="maintainer", pseudonym="credit-accrual"),
            payload=CreditPayload(
                beneficiary=beneficiary,
                triggering_event=TriggeringEvent(kind="regressionDetected",
                                                 evaluation_run_id=anchor),
                units=units,
                policy_ref="sha256:" + hashlib.sha256(b"bench-policy").hexdigest()),
            links=LinkSet(credits_for=[anchor])))

    def add_redaction(self, target: str) -> tuple[str, str]:
        """Plan a tombstone on `target`; returns (tombstone id, createdAt)."""
        self.hidden.add(target)
        when = self.tick()
        self.plan.append(("redact", target, when))
        return "pl:tomb:" + ":".join(target.split(":")[1:]), when

    # -- expected answers -----------------------------------------------------

    def gate(self, capability: str, boundary: str, version: str) -> tuple[bool, list]:
        allowed, reasons, applicable = True, [], 0
        for v in self.vouchers.values():
            if v["status"] != "active" or v["capability"] != capability \
                    or v["boundary"] != boundary:
                continue
            applicable += 1
            if v["action"] == "pause":
                allowed = False
                reasons.append([v["latest"], "pausedByVoucher"])
            elif v["action"] == "condition":
                for test, pin in v["conditions"]:
                    decision = self.latest.get((test, pin or version))
                    if decision == "pass":
                        continue
                    allowed = False
                    reasons.append([v["latest"], "inconclusiveTest" if decision == "inconclusive"
                                    else "conditionUnmet"])
        if applicable == 0:
            reasons.append([None, DEFAULT_ALLOW])
        return allowed, reasons

    def referenced_contributions(self) -> set[str]:
        refs = {c for t in self.tests.values() for c in t["motivated_by"]}
        refs |= {c for ch in self.changes for c in ch["influenced_by"]}
        return refs

    def evidence_rows(self) -> list[dict]:
        referenced = self.referenced_contributions()
        groups: dict[str, list[int]] = {}
        for cid, c in self.contribs.items():
            if cid in self.hidden:
                continue
            levels = [
                2 if c["pathway"] else 0,
                2 if c["org"] or c["role"] == "facilitator" else 1,
                2 if c["full"] else 1,
                1 if c["comp"] == "none-declared" else 2,
                2 if c["influences"] or cid in referenced else 0,
            ]
            best = groups.setdefault(c["group"], [0] * 5)
            groups[c["group"]] = [max(a, b) for a, b in zip(best, levels)]
        return [{"case": g, **{col: LEVELS[lv] for col, lv in zip(EVIDENCE_COLUMNS, best)}}
                for g, best in groups.items()]

    def linkage(self) -> dict:
        tested = {r["test"] for r in self.runs}
        tested |= {t for ch in self.changes for t in ch["uses_test"]}
        cited = [any(c in self.contribs for c in ch["influenced_by"]) for ch in self.changes]
        tests = [any(t in self.tests for t in ch["uses_test"]) for ch in self.changes]
        return {"totalChanges": len(self.changes), "changesWithContribution": sum(cited),
                "changesWithTest": sum(tests),
                "changesFullyLinked": sum(c and t for c, t in zip(cited, tests)),
                "testsWithRun": len(tested & set(self.tests)), "dangling": self.dangling}

    def consent_violations(self) -> list[tuple[str, str, str]]:
        lineages: dict[str, list[dict]] = {}
        for c in self.contribs.values():
            lineages.setdefault(c["base"], []).append(c)
        out = []
        for ch in self.changes:
            if ch["id"] in self.hidden:
                continue
            for target in ch["influenced_by"]:
                prior = [c for c in lineages.get(self.contribs[target]["base"], [])
                         if c["index"] < ch["index"]]
                if not prior:
                    continue
                latest = max(prior, key=lambda c: c["index"])
                if latest["withdrawn"]:
                    out.append((ch["id"], target, "withdrawnConsent"))
                if latest["use"] == "evaluation-only" and ch["kind"] in ("dataset", "adapter"):
                    out.append((ch["id"], target, "intendedUseViolation"))
        return sorted(out)

    def export_count(self) -> int:
        """Everything is linked to the artifact lineage except orphan
        contributions and the tombstones that cover them."""
        return self.count - len(self.orphans) - len(self.orphans & self.hidden)

    def export_vouchers(self, version: str) -> list[tuple[str, str, bool]]:
        return sorted((base, v["status"], self.gate(v["capability"], v["boundary"], version)[0])
                      for base, v in self.vouchers.items() if v["status"] in ("issued", "active"))

    def credit_statement(self, beneficiary: str) -> tuple[int, Decimal]:
        mine = [c for c in self.credits if c["beneficiary"] == beneficiary
                and WINDOW[0] <= c["created_at"] <= WINDOW[1]]
        return len(mine), sum((c["units"] for c in mine), Decimal(0))

    def saved_query_rows(self, topic: str, boundary: str) -> list[list[str]]:
        rows = []
        for r in self.runs:
            t = self.tests[r["test"]]
            if r["decision"] != "fail" or t["topic"] != topic:
                continue
            for d in self.deployed[r["version"]]:
                if self.deployments[d] != boundary:
                    continue
                for c in t["motivated_by"]:
                    rows.append([c, r["test"], r["version"], r["timestamp"], d])
        return sorted(rows)

    def motivates_rows(self, topic: str) -> list[list[str]]:
        return sorted([c, tid] for tid, t in self.tests.items() if t["topic"] == topic
                      for c in t["motivated_by"])

    def failing_rows(self, topic: str) -> list[list[str]]:
        return sorted([r["id"], r["test"], r["version"]] for r in self.runs
                      if r["decision"] == "fail" and self.tests[r["test"]]["topic"] == topic)

    def change_rows(self, topic: str) -> list[list[str]]:
        return sorted([ch["id"], c, tid] for ch in self.changes for c in ch["influenced_by"]
                      for tid, t in self.tests.items()
                      if t["topic"] == topic and c in t["motivated_by"])

    def accrual(self) -> dict:
        """Events, suppressions and mints of one accrual over WINDOW with
        POLICY, when nothing has been credited yet."""
        order = {v: i for i, v in enumerate(self.versions)}
        by_test: dict[str, list[dict]] = {}
        for r in self.runs:
            by_test.setdefault(r["test"], []).append(r)
        suites: dict[tuple[str, str], list[dict]] = {}
        for r in self.runs:
            suites.setdefault((r["version"], r["checkpoint"]), []).append(r)

        def names(contribs: list[str]) -> list[str]:
            out = []
            for cid in contribs:
                if cid in self.contribs and cid not in self.hidden:
                    name = self.contribs[cid]["name"]
                    if name not in out:
                        out.append(name)
            return out

        events = []  # (index, kind, anchor, beneficiaries, units, gated)
        for tid, runs in by_test.items():
            runs = sorted(runs, key=lambda r: (order[r["version"]], r["index"]))
            for prior, later in zip(runs, runs[1:]):
                if prior["decision"] == "pass" and later["decision"] == "fail" \
                        and order[later["version"]] > order[prior["version"]]:
                    suite = suites[(later["version"], later["checkpoint"])]
                    flip = fold(r["decision"] for r in suite) != \
                        fold(r["decision"] for r in suite if r["test"] != tid)
                    events.append((later["index"], "regressionDetected", later["id"],
                                   names(self.tests[tid]["motivated_by"]), 10, not flip))
        for ch in self.changes:
            incidents = [c for c in ch["influenced_by"]
                         if c not in self.hidden and self.contribs[c]["kind"] == "incidentReport"]
            if ch["remediates"] and incidents:
                events.append((ch["index"], "remediationCompleted", ch["id"], names(incidents),
                               5, False))
        for r in self.runs:
            if r["checkpoint"] == "scheduledAudit" and self.tests[r["test"]]["motivated_by"]:
                events.append((r["index"], "scheduledRunDependency", r["id"],
                               names(self.tests[r["test"]]["motivated_by"]), 0, False))
        result = {"considered": len(events), "zeroUnits": 0, "noBeneficiary": 0,
                  "qualityGate": 0, "minted": []}
        for _, kind, anchor, beneficiaries, units, gated in sorted(events, key=lambda e: e[:2]):
            if units == 0:
                result["zeroUnits"] += 1
            elif not beneficiaries:
                result["noBeneficiary"] += 1
            elif gated:
                result["qualityGate"] += 1
            else:
                result["minted"] += [(b, share(units, len(beneficiaries)), anchor)
                                     for b in beneficiaries]
        return result

    def record_minted(self, minted: list[tuple[str, Decimal, str]]) -> None:
        """Credits an accrual appended, stamped at the window end."""
        for beneficiary, units, anchor in minted:
            self.credits.append({"beneficiary": beneficiary, "units": units,
                                 "created_at": WINDOW[1]})
            self.plan.append(("cli", anchor))


# ---------------------------------------------------------------------------
# workload plans


def _contributions(w: World, rng: random.Random, n: int, groups: int, tests: list[str], *,
                   orphan_share: float, incident_share: float = 0.0,
                   dangling_share: float = 0.0, pseudonym_share: float = 0.1,
                   prefix: str = "g") -> list[str]:
    ids = []
    for i in range(n):
        g = i % groups
        slug, kind = rng.choice(CONTRIBUTION_KINDS)
        if rng.random() < incident_share:
            slug, kind = "incident", "incidentReport"
        cid = f"pl:contrib:{prefix}{g}:{slug}:{i:04d}"
        orphan = rng.random() < orphan_share
        evidence = []
        if rng.random() < dangling_share:
            evidence.append(f"pl:evidence:{prefix}{g}:{i:04d}")
        elif rng.random() < 0.3:
            evidence.append(f"https://evidence.example/{prefix}{g}/{i}")
        org = None if rng.random() < pseudonym_share else f"pl:org:{prefix}{g}-steward"
        use = rng.choice(("evaluation-only", "training", "training", "mixed", "documentation"))
        w.add_contribution(cid, rng, org=org, kind=kind, intended_use=use,
                           influences=[] if orphan else [rng.choice(tests)], evidence=evidence)
        if orphan:
            w.orphans.add(cid)
        else:
            ids.append(cid)
    return ids


def _test_ids(n: int, topics) -> list[tuple[str, str]]:
    return [(f"pl:test:{topics[k % len(topics)]}-{k}:001", topics[k % len(topics)])
            for k in range(n)]


def pick(rng: random.Random, population: list, k: int) -> list:
    return rng.sample(population, min(k, len(population)))


def _decision(rng: random.Random, fail: float, inconclusive: float) -> str:
    x = rng.random()
    if x < fail:
        return "fail"
    if x < fail + inconclusive:
        return "inconclusive"
    return "pass"


def plan_audit(seed: int, scale: float) -> World:
    """About 8k entries: 2.4k contributions, 60 tests x 90 versions of runs,
    a few changes, vouchers, credits and tombstones."""
    w = World(scale)
    rng = random.Random(f"audit:{seed}")
    n_tests, n_versions = w.side(60), w.side(90)
    tests = _test_ids(n_tests, TOPICS)
    test_ids = [t for t, _ in tests]
    linked = _contributions(w, rng, w.lin(2400), w.lin(40), test_ids, orphan_share=0.1,
                            dangling_share=0.05)
    for tid, topic in tests:
        w.add_test(tid, topic, pick(rng, linked, rng.randint(2, 4)))
    deployments = [w.add_deployment(k) for k in range(2)]
    n_changes = w.lin(40)
    change_at = {round((k + 1) * n_versions / (n_changes + 1)) for k in range(n_changes)}
    withdrawals = w.lin(5)
    vouchers_at = n_versions * 2 // 3
    failing: list[str] = []
    for i in range(n_versions):
        version = f"v{i + 1}"
        if i in change_at:
            cites = pick(rng, linked, rng.randint(1, 3))
            base = next((c for c in cites if f"{c}:rev1" not in w.contribs), None)
            if withdrawals > 0 and base is not None:
                withdrawals -= 1
                c = w.contribs[base]
                w.add_contribution(f"{base}:rev1", rng, org=c["org"], kind=c["kind"],
                                   intended_use=c["use"], influences=c["influences"],
                                   evidence=[], rev_of=base, withdrawn=True)
            kind = rng.choice(("dataset", "adapter", "guardrail", "promptLibrary", "policy"))
            w.plan.append(w.change_entry(f"pl:change:bench:{len(w.changes) + 1:03d}", kind,
                                         version, cites, pick(rng, test_ids, rng.randint(1, 2)),
                                         []))
        w.add_version(version, pick(rng, deployments, rng.randint(1, 2)))
        checkpoint = rng.choice(("preDeploymentGate", "scheduledAudit", "postIncident"))
        for tid in test_ids:
            rid = w.add_run(tid, version, _decision(rng, 0.09, 0.03), checkpoint, rng)
            if w.latest[(tid, version)] == "fail":
                failing.append(rid)
        if i == vouchers_at:
            evidence = w.runs[-1]["id"]
            w.add_voucher("pl:voucher:bench:pause-001", CAPABILITIES[0], "boundary-0", "pause",
                          [], evidence, activate=True)
            pairs = [(CAPABILITIES[0], "boundary-1"), (CAPABILITIES[1], "boundary-0"),
                     (CAPABILITIES[1], "boundary-1"), (CAPABILITIES[0], "boundary-1")]
            for k, (cap, boundary) in enumerate(pairs):
                conditions = [(t, rng.choice([None, None, f"v{rng.randint(1, i + 1)}"]))
                              for t in pick(rng, test_ids, rng.randint(3, 5))]
                w.add_voucher(f"pl:voucher:bench:cond-{k + 1:03d}", cap, boundary, "condition",
                              conditions, evidence, activate=True)
            w.add_voucher("pl:voucher:bench:review-001", CAPABILITIES[2], "boundary-1",
                          "authorize", [], evidence, activate=False)
    orgs = sorted({c["org"] for c in w.contribs.values() if c["org"]})
    for k in range(w.lin(30)):
        w.add_credit(f"pl:credit:bench:{k + 1:03d}", rng.choice(orgs[:8]),
                     rng.choice((10, 5, 2.5)), rng.choice(failing or [w.runs[0]["id"]]))
    n_tombs = w.lin(20)
    targets = rng.sample(sorted(w.orphans), min(len(w.orphans), n_tombs // 2))
    targets += rng.sample(linked, n_tombs - len(targets))
    for target in targets:
        w.add_redaction(target)
    return w


def plan_govern(seed: int, scale: float) -> World:
    """About 1k dense entries: 30 tests x 20 versions with sparse failures,
    three deployment boundaries, remediation changes and condition-heavy
    vouchers."""
    w = World(scale)
    rng = random.Random(f"govern:{seed}")
    n_tests, n_versions = w.side(30), w.side(20)
    tests = _test_ids(n_tests, TOPICS[:6])
    test_ids = [t for t, _ in tests]
    linked = _contributions(w, rng, w.lin(250), w.lin(25), test_ids, orphan_share=0.0,
                            incident_share=0.1)
    ordinary = [c for c in linked if w.contribs[c]["kind"] != "incidentReport"] or linked
    incidents = [c for c in linked if w.contribs[c]["kind"] == "incidentReport"] or linked
    for k, (tid, topic) in enumerate(tests):
        w.add_test(tid, topic, [] if k % 10 == 9 else pick(rng, ordinary, rng.randint(2, 4)))
    deployments = [w.add_deployment(k) for k in range(3)]
    n_changes = w.lin(30)
    n_remediations = w.lin(5)
    per_version = max(1, math.ceil(n_changes / n_versions))
    failing: list[str] = []
    remediations = 0
    for i in range(n_versions):
        version = f"v{i + 1}"
        for _ in range(per_version):
            if len(w.changes) >= n_changes:
                break
            remediation = bool(remediations < n_remediations and failing)
            remediations += remediation
            cites = (pick(rng, incidents, 2) if remediation
                     else pick(rng, ordinary, rng.randint(1, 3)))
            w.plan.append(w.change_entry(
                f"pl:change:bench:{len(w.changes) + 1:03d}",
                rng.choice(("guardrail", "promptLibrary", "policy")), version, cites,
                pick(rng, test_ids, rng.randint(1, 2)),
                [rng.choice(failing)] if remediation else []))
        w.add_version(version, pick(rng, deployments, rng.randint(1, 2)))
        checkpoint = "scheduledAudit" if i % 2 else "preDeploymentGate"
        for tid in test_ids:
            rid = w.add_run(tid, version, _decision(rng, 0.06, 0.02), checkpoint, rng)
            if w.latest[(tid, version)] == "fail":
                failing.append(rid)
    evidence = w.runs[-1]["id"]
    for k in range(w.lin(6)):
        conditions = [(t, rng.choice([None, None, f"v{rng.randint(1, n_versions)}"]))
                      for t in pick(rng, test_ids, 8)]
        w.add_voucher(f"pl:voucher:bench:cond-{k + 1:03d}", CAPABILITIES[0],
                      f"boundary-{k % 3}", "condition", conditions, evidence, activate=True)
    return w


def plan_release(seed: int, scale: float) -> World:
    """The base ledger every release run starts from: about 2k entries, 30
    tests x 60 versions of runs and two active condition vouchers."""
    w = World(scale)
    rng = random.Random(f"release:{seed}")
    n_tests, n_versions = w.side(30), w.side(60)
    tests = _test_ids(n_tests, TOPICS)
    test_ids = [t for t, _ in tests]
    linked = _contributions(w, rng, w.lin(100), w.lin(10), test_ids, orphan_share=0.0)
    for tid, topic in tests:
        w.add_test(tid, topic, pick(rng, linked, rng.randint(1, 3)))
    deployments = [w.add_deployment(k) for k in range(2)]
    n_changes = w.lin(20)
    change_at = {round((k + 1) * n_versions / (n_changes + 1)) for k in range(n_changes)}
    for i in range(n_versions):
        version = f"v{i + 1}"
        if i in change_at:
            w.plan.append(w.change_entry(
                f"pl:change:bench:{len(w.changes) + 1:03d}",
                rng.choice(("guardrail", "promptLibrary", "policy")), version,
                pick(rng, linked, rng.randint(1, 2)),
                rng.sample(test_ids, 1), []))
        w.add_version(version, [deployments[i % 2]])
        checkpoint = rng.choice(("preDeploymentGate", "scheduledAudit"))
        for tid in test_ids:
            w.add_run(tid, version, _decision(rng, 0.05, 0.02), checkpoint, rng)
    evidence = w.runs[-1]["id"]
    for k in range(2):
        w.add_voucher(f"pl:voucher:bench:cond-{k + 1:03d}", CAPABILITIES[0], "boundary-0",
                      "condition", [(t, None) for t in rng.sample(test_ids, 2)], evidence,
                      activate=True)
    w.linked = linked
    return w


PLANS = {"audit": plan_audit, "govern": plan_govern, "release": plan_release}


def build(plan: list, path: Path) -> tuple[float, str]:
    """Append a plan to a fresh ledger; returns the seconds taken and the
    head hash."""
    started = time.perf_counter()
    with LedgerFile(path) as ledger:
        for item in plan:
            if isinstance(item, tuple):
                _, target, when = item
                sealed = ledger.redact(target, "consentWithdrawn", STEWARD, created_at=when)
            else:
                sealed = ledger.append(item)
    return time.perf_counter() - started, sealed.integrity.hash
