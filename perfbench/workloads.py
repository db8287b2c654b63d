"""The command sequences each workload drives, with the check on every output.

An `Op` is one `pledger` command line, the exit code the README contract and
the generator's World expect, and a check on its standard output. The same
ops run as fresh subprocesses in the measured loop and in-process under the
tracer, so both runs check the same answers. Write ops also check the file on
disk afterwards: the line count must equal the World's entry count and the
`.head` file must hold the last line's hash.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen

NOW = "2026-07-01T00:00:00Z"


@dataclass
class Op:
    cls: str  # metric class: verify, gate_check, audit, export, query, credit, harness_run, append
    argv: list[str]
    expect_exit: int
    check: Callable[[str], bool]
    appends: int = 0
    prepare: Callable[[], None] | None = None


@dataclass
class Ledger:
    """One built ledger and the World that describes it."""
    world: gen.World
    path: Path
    work: Path
    rng: random.Random
    state: dict = field(default_factory=dict)

    @property
    def head_path(self) -> Path:
        return Path(str(self.path) + ".head")

    def durable(self, count: int, expected_hash: str | None = None) -> bool:
        """The file holds `count` lines and `.head` names the last line."""
        data = self.path.read_bytes()
        last = data[data.rfind(b"\n", 0, len(data) - 1) + 1:]
        tail_hash = json.loads(last)["integrity"]["hash"]
        ok = (data.endswith(b"\n") and data.count(b"\n") == count
              and self.head_path.read_text("utf-8").strip() == tail_hash
              and expected_hash in (None, tail_hash))
        self.world.last_hash = tail_hash
        return ok


def _doc(out: str):
    return json.loads(out)


def _args(ledger: Ledger, *argv: str, fmt: str = "doc") -> list[str]:
    return [*argv, "--ledger", str(ledger.path), "--format", fmt]


# ---------------------------------------------------------------------------
# read ops

def verify(ledger: Ledger) -> Op:
    count = ledger.world.count

    def check(out: str) -> bool:
        chain = _doc(out)["chain"]
        return chain["valid"] is True and chain["entryCount"] == count
    return Op("verify", _args(ledger, "verify"), 0, check)


def gate(ledger: Ledger, capability: str, boundary: str, version: str) -> Op:
    allowed, reasons = ledger.world.gate(capability, boundary, version)

    def check(out: str) -> bool:
        doc = _doc(out)
        got = sorted([r["voucherId"] or "", r["reasonKind"]] for r in doc["reasons"])
        return doc["allowed"] is allowed and got == sorted([v or "", k] for v, k in reasons)
    return Op("gate_check", _args(ledger, "gate", "check", "--capability", capability,
                                  "--boundary", boundary, "--version", version,
                                  "--artifact", gen.ARTIFACT, "--now", NOW),
              0 if allowed else 3, check)


def linkage(ledger: Ledger) -> Op:
    want = ledger.world.linkage()

    def check(out: str) -> bool:
        doc = _doc(out)
        return all(doc[k] == v for k, v in want.items() if k != "dangling") \
            and len(doc["dangling"]) == want["dangling"]
    return Op("audit", _args(ledger, "audit", "linkage"), 0, check)


def consent(ledger: Ledger) -> Op:
    want = ledger.world.consent_violations()

    def check(out: str) -> bool:
        got = sorted((v["changeId"], v["contributionId"], v["violation"])
                     for v in _doc(out)["violations"])
        return got == want
    return Op("audit", _args(ledger, "audit", "consent"), 0, check)


def evidence(ledger: Ledger) -> Op:
    want = ledger.world.evidence_rows()
    return Op("audit", _args(ledger, "audit", "evidence"), 0,
              lambda out: _doc(out)["rows"] == want)


def export(ledger: Ledger, version: str) -> Op:
    out_path = ledger.work / "export.json"
    count = ledger.world.export_count()
    vouchers = ledger.world.export_vouchers(version)
    head = ledger.world.last_hash

    def check(out: str) -> bool:
        doc = json.loads(out_path.read_text("utf-8"))
        got = sorted((v["voucherId"], v["status"], v["gate"]["allowed"])
                     for v in doc["activeVouchers"])
        return (out.startswith(f"wrote export to {out_path} ({count} entries)")
                and len(doc["entries"]) == count and doc["headDigest"] == head
                and got == vouchers)
    return Op("export", _args(ledger, "export", "--release", f"{gen.ARTIFACT}@{version}",
                              "--out", str(out_path), fmt="text"), 0, check)


def conformance(ledger: Ledger) -> Op:
    """Every change in the audit ledger cites a contribution and a test, so
    the export passes all four clauses."""
    def check(out: str) -> bool:
        doc = _doc(out)
        return doc["overall"] == "conformant" and all(
            r["pass"] for r in doc["clauseResults"].values())
    return Op("audit", [*_args(ledger, "audit", "conformance"), "--export",
                        str(ledger.work / "export.json")], 0, check)


def credit_report(ledger: Ledger, beneficiary: str) -> Op:
    n, total = ledger.world.credit_statement(beneficiary)

    def check(out: str) -> bool:
        doc = _doc(out)
        return len(doc["events"]) == n and abs(doc["totalUnits"] - float(total)) < 1e-9
    return Op("credit", _args(ledger, "credit", "report", "--beneficiary", beneficiary,
                              "--window-start", gen.WINDOW[0], "--window-end", gen.WINDOW[1]),
              0, check)


def query(ledger: Ledger, argv: list[str], want: list[list[str]]) -> Op:
    return Op("query", _args(ledger, "query", *argv), 0, lambda out: _doc(out)["rows"] == want)


def accrue(ledger: Ledger, priming: bool) -> Op:
    """The priming accrual mints; every rerun finds each mint already credited."""
    expected = ledger.state["accrual"]
    policy = ledger.work / "policy.json"

    def prepare() -> None:
        policy.write_text(json.dumps(gen.POLICY), "utf-8")

    def check(out: str) -> bool:
        doc = _doc(out)
        reasons = Counter(s["reason"] for s in doc["suppressed"])
        minted = len(expected["minted"])
        return (doc["consideredEvents"] == expected["considered"]
                and len(doc["creditIds"]) == (minted if priming else 0)
                and reasons == Counter({
                    "zeroUnits": expected["zeroUnits"],
                    "noBeneficiary": expected["noBeneficiary"],
                    "qualityGate": expected["qualityGate"],
                    "alreadyCredited": 0 if priming else minted,
                }) - Counter())
    return Op("credit", _args(ledger, "credit", "accrue", "--policy", str(policy),
                              "--window-start", gen.WINDOW[0], "--window-end", gen.WINDOW[1]),
              0, check, appends=len(expected["minted"]) if priming else 0, prepare=prepare)


# ---------------------------------------------------------------------------
# write ops (release)

def _write_check(ledger: Ledger, check: Callable[[dict], bool],
                 hash_key: str | None = None) -> Callable[[str], bool]:
    """Check the output, then the file: called once the World has recorded
    this op's entries, so the count it holds now is the count expected."""
    count = ledger.world.count

    def run(out: str) -> bool:
        doc = _doc(out)
        return check(doc) and ledger.durable(count, doc[hash_key] if hash_key else None)
    return run


def append_entry(ledger: Ledger, entry) -> Op:
    path = ledger.work / "entry.json"
    doc = entry.to_doc()
    return Op("append", _args(ledger, "append", str(path)), 0,
              _write_check(ledger, lambda d: d["id"] == entry.id, "hash"), appends=1,
              prepare=lambda: path.write_text(json.dumps(doc), "utf-8"))


def harness_run(ledger: Ledger, version: str) -> Op:
    w, rng = ledger.world, ledger.rng
    bundle = ledger.work / f"results-{version}"
    when = w.tick()
    decisions: dict[str, str] = {}
    trouble = set() if rng.random() < 0.6 else set(rng.sample(list(w.tests), 2))
    for tid in w.tests:
        decisions[tid] = rng.choice(("fail", "inconclusive")) if tid in trouble else "pass"
    run_ids = []
    for tid, decision in decisions.items():
        rid = f"pl:run:{gen.id_head(tid)}:{version}:001"
        w.record_run(rid, tid, version, decision, "scheduledAudit", when)
        w.plan.append(("cli", rid))
        run_ids.append(rid)
    verdict = gen.fold(decisions.values())
    missing = [t for t, d in decisions.items() if d == "inconclusive"]

    def prepare() -> None:
        bundle.mkdir(exist_ok=True)
        for tid, decision in decisions.items():
            if decision != "inconclusive":
                (bundle / f"{tid.replace(':', '-')}.result").write_text(
                    json.dumps(gen.run_value(rng, decision)), "utf-8")

    def check(doc: dict) -> bool:
        return (doc["verdict"] == verdict and doc["decisions"] == decisions
                and doc["missing"] == missing and doc["runIds"] == run_ids)
    return Op("harness_run",
              _args(ledger, "harness", "run", "--results", str(bundle), "--artifact",
                    gen.ARTIFACT, "--version", version, "--checkpoint", "scheduledAudit",
                    "--created-at", when),
              {"allPass": 0, "anyFail": 1, "anyInconclusive": 2}[verdict],
              _write_check(ledger, check), appends=len(decisions), prepare=prepare)


def voucher_issue(ledger: Ledger, base: str, tests: list[str]) -> Op:
    w = ledger.world
    entry = w.issue_voucher(base, gen.CAPABILITIES[0], "boundary-0", "condition",
                            [(t, None) for t in tests], [])
    payload = ledger.work / "voucher.json"
    return Op("append", _args(ledger, "voucher", "issue", "--payload", str(payload),
                              "--id", base, "--created-at", entry.created_at), 0,
              _write_check(ledger, lambda d: d == {"id": base, "status": "issued"}), appends=1,
              prepare=lambda: payload.write_text(json.dumps(entry.payload.to_doc()), "utf-8"))


def voucher_transition(ledger: Ledger, base: str, status: str) -> Op:
    entry = ledger.world.move_voucher(base, status)
    return Op("append", _args(ledger, "voucher", "transition", "--voucher", base, "--to", status,
                              "--created-at", entry.created_at), 0,
              _write_check(ledger, lambda d: d == {"id": entry.id, "status": status}), appends=1)


def redact(ledger: Ledger, target: str) -> Op:
    tomb, when = ledger.world.add_redaction(target)
    return Op("append", _args(ledger, "redact", "--target", target, "--reason",
                              "consentWithdrawn", "--role", "communitySteward",
                              "--steward-org", gen.STEWARD.steward_org, "--created-at", when), 0,
              _write_check(ledger, lambda d: d == {"targetId": target, "tombstoneId": tomb}),
              appends=1)


# ---------------------------------------------------------------------------
# workloads

class Workload:
    name = ""
    # One cycle's duration at the seed commit on a 2-core Xeon container. A run
    # does ceil(--seconds / cycle_seconds) whole cycles: a fixed amount of work,
    # so every run, on every commit, has the same mix and count of commands.
    cycle_seconds = 1.0

    def prime(self, ledger: Ledger) -> list[Op]:
        """Commands that finish set-up; timed as part of it."""
        return []

    def after_prime(self, ledger: Ledger) -> None:
        """Record in the World what priming appended."""

    def cycle(self, ledger: Ledger, k: int) -> list[Op]:
        raise NotImplementedError

    def finish(self, ledger: Ledger) -> Op | None:
        """A last check on the ledger the loop leaves behind."""
        return None


class Audit(Workload):
    """Read-only commands over a large ledger: parsing and rehashing dominate."""
    name, cycle_seconds = "audit", 7.5

    def cycle(self, ledger: Ledger, k: int) -> list[Op]:
        w, rng = ledger.world, ledger.rng
        beneficiaries = sorted({c["beneficiary"] for c in w.credits})
        return [
            verify(ledger),
            gate(ledger, gen.CAPABILITIES[0], "boundary-0", rng.choice(w.versions)),
            gate(ledger, *[(gen.CAPABILITIES[0], "boundary-1"),
                           (gen.CAPABILITIES[1], "boundary-0"),
                           (gen.CAPABILITIES[1], "boundary-1"),
                           (gen.CAPABILITIES[2], "boundary-1")][k % 4],
                 rng.choice(w.versions)),
            linkage(ledger),
            consent(ledger),
            evidence(ledger),
            export(ledger, rng.choice(w.versions)),
            conformance(ledger),
            credit_report(ledger, rng.choice(beneficiaries)),
        ]


class Govern(Workload):
    """Query evaluation and credit accrual over a small, dense ledger."""
    name, cycle_seconds = "govern", 3.4

    def prime(self, ledger: Ledger) -> list[Op]:
        ledger.state["accrual"] = ledger.world.accrual()
        return [accrue(ledger, priming=True)]

    def after_prime(self, ledger: Ledger) -> None:
        ledger.world.record_minted(ledger.state["accrual"]["minted"])

    def cycle(self, ledger: Ledger, k: int) -> list[Op]:
        w, rng = ledger.world, ledger.rng
        # Query cost depends on the topic, so cycles rotate through topics and
        # boundaries rather than draw them: every run gets the same mix.
        topics = sorted({t["topic"] for t in w.tests.values()})
        boundaries = sorted(w.deployments.values())
        topic, boundary = topics[k % len(topics)], boundaries[k % len(boundaries)]
        beneficiaries = sorted({c["beneficiary"] for c in w.credits}) or ["pl:org:none"]
        return [
            query(ledger, ["--saved", "regression-attribution", "--param", f"topic={topic}",
                           "--param", f"boundary={boundary}"],
                  w.saved_query_rows(topic, boundary)),
            query(ledger, [f'MATCH (c:Contribution)-[:MOTIVATES]->(t:Test) '
                           f'WHERE t.topic = "{topic}" RETURN c.id, t.id;'],
                  w.motivates_rows(topic)),
            query(ledger, [f'MATCH (r:EvaluationRun)-[:USES_TEST]->(t:Test) WHERE '
                           f'r.decision = "fail" AND t.topic = "{topic}" '
                           f'RETURN r.id, t.id, r.version;'],
                  w.failing_rows(topic)),
            query(ledger, [f'MATCH (ch:Change)-[:INFLUENCED_BY]->(c:Contribution)'
                           f'-[:MOTIVATES]->(t:Test) WHERE t.topic = "{topic}" '
                           f'RETURN ch.id, c.id, t.id;'],
                  w.change_rows(topic)),
            accrue(ledger, priming=False),
            credit_report(ledger, rng.choice(beneficiaries)),
            gate(ledger, gen.CAPABILITIES[0], f"boundary-{k % 3}", rng.choice(w.versions)),
            gate(ledger, gen.CAPABILITIES[0], f"boundary-{(k + 1) % 3}", rng.choice(w.versions)),
        ]


class Release(Workload):
    """The durable write path: one release pipeline per cycle."""
    name, cycle_seconds = "release", 1.9

    def cycle(self, ledger: Ledger, k: int) -> list[Op]:
        w, rng = ledger.world, ledger.rng
        version = f"v{len(w.versions) + 1}"
        test_ids = list(w.tests)
        change = w.change_entry(f"pl:change:rel:{k + 1:04d}", "guardrail", version,
                                rng.sample(w.linked, 1), rng.sample(test_ids, 1), [])
        w.plan.append(change)
        ops = [append_entry(ledger, change)]
        ops.append(append_entry(ledger, w.add_version(version, [rng.choice(
            sorted(w.deployments))])))
        ops.append(harness_run(ledger, version))
        ops.append(gate(ledger, gen.CAPABILITIES[0], "boundary-0", version))
        if k % 3 == 2:
            step = (k // 3) % 3
            base = f"pl:voucher:rel:cond-{k // 9 + 1:03d}"
            if step == 0:
                ops.append(voucher_issue(ledger, base, rng.sample(test_ids, 2)))
            else:
                ops.append(voucher_transition(ledger, base,
                                              "active" if step == 1 else "satisfied"))
            contribution = w.add_contribution(
                f"pl:contrib:rel:prompt:{k + 1:04d}", rng, org="pl:org:rel-steward",
                kind="prompt", intended_use="evaluation-only",
                influences=rng.sample(test_ids, 1), evidence=[])
            ops.append(append_entry(ledger, contribution))
            target = next(c for c in w.contribs if c not in w.hidden)
            ops.append(redact(ledger, target))
        return ops

    def finish(self, ledger: Ledger) -> Op:
        """The chain a release run leaves behind must verify clean."""
        op = verify(ledger)
        check, count = op.check, ledger.world.count
        op.check = lambda out: check(out) and ledger.durable(count)
        return op


WORKLOADS: dict[str, Workload] = {w.name: w for w in (Audit(), Govern(), Release())}
