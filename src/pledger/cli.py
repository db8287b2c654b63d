"""Command-line entry point binding the modules into operator workflows.

Exit codes are a stable contract: 0 success/allow/valid, 1 harness fail,
2 inconclusive, 3 gate deny, 4 verification failure, 5 validation or
conformance failure, 64 usage error; the process entry (`__main__.run`) adds
120 when standard output is closed early. Read commands work on snapshots; only
the append family (append, harness run, voucher issue, voucher transition,
credit accrue, redact) takes the writer lock. A missing ledger path is a usage
error for every command but the three that may start a ledger: append,
voucher issue and credit accrue.

Only the ledger core is imported here; each command imports the governance,
evidence, harness or query module it calls, so it pays only for those.
`integrity` is imported only by the commands that seal or verify, and `csv`
only by `--format csv`. The parser holds only the invoked command.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path
from typing import Any

from . import store
from .canonical import render_value
from .errors import CorruptLine, LedgerError, StorageFailure
from .graph import Snapshot, build_graph, linkage_completeness
from .model import (
    ARTIFACT_KINDS,
    ActorRef,
    EntryType,
    LinkSet,
    VoucherPayload,
    _slug,
    now_stamp,
    parse_entry,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse hook
        raise _UsageError(message)


def _read_text(path: str) -> str:
    # A user-named file other than the ledger that cannot be opened, read or
    # decoded is a usage error, as a missing one is, and as one `export` cannot
    # write is. `-` is stdin.
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


def _read_doc(path: str) -> Any:
    text = _read_text(path)
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise _UsageError(f"not a JSON document: {path}: {exc}") from exc
    except RecursionError as exc:
        raise _UsageError(f"not a JSON document: {path}: nested too deep to decode") from exc


def _require_ledger(args: argparse.Namespace) -> str:
    if not args.ledger:
        raise _UsageError("no ledger path (use --ledger or set PLEDGER_LEDGER)")
    return args.ledger


def _existing_ledger(args: argparse.Namespace) -> str:
    path = _require_ledger(args)
    if not Path(path).exists():
        raise _UsageError(f"no ledger at {path}")
    return path


def _snapshot(args: argparse.Namespace) -> Snapshot:
    return Snapshot(store.read_entries(_existing_ledger(args)))


def _parse_hmac(value: str | None) -> tuple[str, bytes] | None:
    if value is None:
        return None
    ref, sep, secret = value.partition("=")
    if not sep or not ref:
        raise _UsageError("--hmac-key takes REF=SECRET")
    return ref, secret.encode("utf-8")


def _signer_from(args: argparse.Namespace):
    """The signer of a writer command's appends, built before its ledger opens."""
    keyed = _parse_hmac(args.hmac_key)
    if keyed is None:
        return None
    from .integrity import hmac_signer

    ref, secret = keyed
    return hmac_signer(ref, secret, ActorRef(role="maintainer", pseudonym="cli"))


def _flat(doc: Any, prefix: str = "") -> list[tuple[str, str]]:
    if isinstance(doc, dict):
        rows: list[tuple[str, str]] = []
        for key, value in doc.items():
            rows.extend(_flat(value, f"{prefix}{key}." if isinstance(value, dict) else f"{prefix}{key}"))
        return rows
    return [(prefix.rstrip("."), render_value(doc))]


def _write_doc(fh, doc: Any) -> None:
    # The bytes of json.dump(doc, fh, indent=2, sort_keys=True) plus a
    # newline, rendered in batches rather than one small write per token.
    from .indented import write_indented

    write_indented(fh, doc)


def _emit(args: argparse.Namespace, text: str | None, doc: Any, table: Any = None) -> None:
    # A `table` renders its text form only when that is printed. Every CSV is
    # written here, in csv's default dialect (RFC 4180, CRLF rows): a table's
    # columns and rows, or else the key/value rows of the flattened document.
    fmt = getattr(args, "format", "text") or "text"
    if fmt == "text":
        print(text if table is None else table.render_text().rstrip("\n"))
    elif fmt == "doc":
        _write_doc(sys.stdout, doc)
    else:
        import csv

        writer = csv.writer(sys.stdout)
        writer.writerow(["key", "value"] if table is None else table.columns)
        writer.writerows(_flat(doc) if table is None else table.rows)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_append(args: argparse.Namespace) -> int:
    entry = parse_entry(_read_doc(args.entry))
    with store.LedgerFile(_require_ledger(args), _signer_from(args)) as ledger:
        sealed = ledger.append(entry)
    _emit(args, f"appended {sealed.id} ({sealed.integrity.hash})",
          {"id": sealed.id, "hash": sealed.integrity.hash})
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    path = _existing_ledger(args)
    keyed = _parse_hmac(args.hmac_key)
    verdict, _entries, report = store.verify_file(path, None if keyed is None else dict([keyed]))
    lines = [verdict.describe()]
    doc = {"chain": verdict.to_doc()}
    if report is not None:
        counts = report.counts()
        lines.append("signatures: " + ", ".join(f"{v} {k}" for k, v in counts.items()))
        doc["signatures"] = counts
    _emit(args, "\n".join(lines), doc)
    return 0 if verdict.valid and (report is None or report.all_good()) else 4


def _cmd_query(args: argparse.Namespace) -> int:
    from . import query as query_mod

    graph = build_graph(_snapshot(args))
    if args.saved:
        if args.query or args.file:
            raise _UsageError("give exactly one of QUERY, --file, or --saved")
        params: dict[str, str] = {}
        for item in args.param or []:
            key, sep, value = item.partition("=")
            if not sep or not key:
                raise _UsageError("--param takes NAME=VALUE")
            params[key] = value
        table = query_mod.run_saved_query(args.saved, graph, params)
    else:
        if bool(args.query) == bool(args.file):
            raise _UsageError("give exactly one of QUERY, --file, or --saved")
        text = args.query if args.query else _read_text(args.file)
        table = query_mod.run_query(text, graph)
    if args.explain:
        for step, line in enumerate(table.plan, 1):
            print(f"plan {step}. {line}", file=sys.stderr)
    _emit(args, None, {"columns": list(table.columns), "rows": [list(r) for r in table.rows]},
          table=table)
    return 0


def _cmd_harness_run(args: argparse.Namespace) -> int:
    from . import harness

    bundle = Path(args.results)
    if not bundle.is_dir():
        raise _UsageError(f"results bundle is not a directory: {bundle}")
    evaluator = ActorRef(role=args.evaluator_role, pseudonym=args.evaluator)
    with store.LedgerFile(_existing_ledger(args), _signer_from(args)) as ledger:
        results: dict[str, dict] = {}
        for entry in ledger.snapshot.live_of(EntryType.TEST):
            candidate = bundle / f"{_slug(entry.id)}.result"
            if candidate.exists():
                results[entry.id] = _read_doc(str(candidate))
        report = harness.run_suite(
            ledger, args.checkpoint, args.artifact, args.version, results,
            evaluator, created_at=args.created_at)
    lines = [f"{test_id}: {decision}" for test_id, decision in sorted(report.decisions.items())]
    lines.append(f"verdict: {report.verdict}")
    _emit(args, "\n".join(lines), report.to_doc())
    return {"allPass": 0, "anyFail": 1, "anyInconclusive": 2}[report.verdict]


def _default_artifact(snapshot: Snapshot) -> str:
    ids: list[str] = []
    for entry in snapshot.by_type[EntryType.ARTIFACT]:
        if entry.payload.artifact_kind in ARTIFACT_KINDS \
                and entry.payload.artifact_id not in ids:
            ids.append(entry.payload.artifact_id)
    if len(ids) != 1:
        raise _UsageError(
            "--artifact is required when the ledger declares "
            f"{len(ids)} artifact lineages")
    return ids[0]


def _cmd_gate_check(args: argparse.Namespace) -> int:
    from . import governance

    snapshot = _snapshot(args)
    artifact_id = args.artifact or _default_artifact(snapshot)
    decision = governance.gate_check(
        snapshot, args.capability, artifact_id, args.version, args.boundary,
        args.now or now_stamp())
    _emit(args, decision.describe(), decision.to_doc())
    return 0 if decision.allowed else 3


def _cmd_voucher_issue(args: argparse.Namespace) -> int:
    from . import governance

    payload = VoucherPayload.from_doc(_read_doc(args.payload))
    links = LinkSet(evidence=list(args.evidence)) if args.evidence else None
    with store.LedgerFile(_require_ledger(args), _signer_from(args)) as ledger:
        entry = governance.issue_voucher(
            ledger, payload, voucher_id=args.id, links=links, created_at=args.created_at)
    _emit(args, f"voucher {entry.id} {entry.payload.status}",
          {"id": entry.id, "status": entry.payload.status})
    return 0


def _cmd_voucher_transition(args: argparse.Namespace) -> int:
    from . import governance

    links = LinkSet(evidence=list(args.evidence)) if args.evidence else None
    with store.LedgerFile(_existing_ledger(args), _signer_from(args)) as ledger:
        entry = governance.transition_voucher(
            ledger, args.voucher, args.to, links=links, expiry=args.expiry,
            created_at=args.created_at)
    _emit(args, f"voucher {entry.id} {entry.payload.status}",
          {"id": entry.id, "status": entry.payload.status})
    return 0


def _cmd_credit_accrue(args: argparse.Namespace) -> int:
    from . import governance

    policy = governance.CreditPolicy.from_doc(_read_doc(args.policy))
    with store.LedgerFile(_require_ledger(args), _signer_from(args)) as ledger:
        minted, report = governance.accrue_credits(
            ledger, policy, (args.window_start, args.window_end), created_at=args.created_at)
    lines = [f"minted {c.id}: {render_value(c.payload.units)} "
             f"-> {c.payload.beneficiary}" for c in minted]
    lines += [f"suppressed {s.kind} {s.trigger_id}: {s.reason}" for s in report.suppressed]
    lines.append(f"total units: {render_value(report.total_units())}")
    _emit(args, "\n".join(lines), report.to_doc())
    return 0


def _cmd_credit_report(args: argparse.Namespace) -> int:
    from . import governance

    statement = governance.credit_report(
        _snapshot(args), args.beneficiary, (args.window_start, args.window_end))
    lines = [f"{line['creditId']}: {render_value(line['units'])} "
             f"({line['eventKind']} on {line['triggerId']})" for line in statement.lines]
    lines.append(f"total units: {render_value(statement.total_units)}")
    _emit(args, "\n".join(lines), statement.to_doc())
    return 0


def _cmd_audit_evidence(args: argparse.Namespace) -> int:
    from . import evidence as evidence_mod

    if args.cases:
        matrix = evidence_mod.case_matrix(_read_doc(args.cases))
    else:
        matrix = evidence_mod.audit_corpus(_snapshot(args))
    # The table, and the `query` module it comes from, only for text or CSV.
    _emit(args, None, matrix.to_doc(), table=None if args.format == "doc" else matrix.table())
    return 0


def _cmd_audit_linkage(args: argparse.Namespace) -> int:
    report = linkage_completeness(build_graph(_snapshot(args)))
    doc = report.to_doc()
    text = "\n".join([
        f"changes: {report.total_changes}",
        f"with contribution: {report.changes_with_contribution}",
        f"with versioned test: {report.changes_with_test}",
        f"fully linked: {report.changes_fully_linked}",
        f"tests with runs: {report.tests_with_run}",
        f"completeness: {doc['completenessRatio']}",
        f"dangling references: {len(report.dangling)}",
    ])
    _emit(args, text, doc)
    return 0


def _cmd_audit_conformance(args: argparse.Namespace) -> int:
    from . import evidence as evidence_mod

    report = evidence_mod.check_export_conformance(_read_doc(args.export))
    lines = [f"{clause}: {'pass' if result.passed else 'fail'}"
             for clause, result in report.clause_results.items()]
    for clause, result in report.clause_results.items():
        lines += [f"  {clause}: {detail}" for detail in result.details]
    lines.append(f"overall: {report.overall}")
    _emit(args, "\n".join(lines), report.to_doc())
    return 0 if report.ok() else 5


def _cmd_audit_consent(args: argparse.Namespace) -> int:
    from . import evidence as evidence_mod

    violations = evidence_mod.flag_consent_violations(_snapshot(args))
    if violations:
        text = "\n".join(f"{v['changeId']} <- {v['contributionId']}: {v['violation']}"
                         for v in violations)
    else:
        text = "no consent violations"
    _emit(args, text, {"violations": violations})
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from . import evidence as evidence_mod

    artifact_id, sep, version = args.release.rpartition("@")
    if not sep or not artifact_id or not version:
        raise _UsageError("--release takes <artifactId>@<version>")
    export = evidence_mod.build_export(_snapshot(args), artifact_id, version, now=args.now)
    if args.out:
        try:
            fh = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            raise _UsageError(f"cannot write {args.out}: {exc}") from exc
        with fh:
            _write_doc(fh, export)
        _emit(args, f"wrote export to {args.out} "
                    f"({len(export['entries'])} entries)", export)
    else:
        _write_doc(sys.stdout, export)
    return 0


def _cmd_redact(args: argparse.Namespace) -> int:
    authorization = ActorRef(role=args.role, pseudonym=args.pseudonym,
                             steward_org=args.steward_org)
    with store.LedgerFile(_existing_ledger(args), _signer_from(args)) as ledger:
        tomb = ledger.redact(args.target, args.reason, authorization,
                             tombstone_id=args.id, created_at=args.created_at)
    _emit(args, f"redacted {args.target} with {tomb.id}",
          {"targetId": args.target, "tombstoneId": tomb.id})
    return 0


# ---------------------------------------------------------------------------
# parser wiring

def build_parser(argv: list[str] | None = None) -> _Parser:
    """The argument parser for `argv`. When its first token names a command,
    the tree holds that command alone, with all of its own subcommands: no
    other part of the tree takes part in parsing it. Otherwise (no `argv`,
    `-h`, an unknown name) it holds every command, so the top-level help and
    usage errors list them all."""
    first = argv[0] if argv else None

    def wanted(command: str) -> bool:
        return first is None or first == command

    common = _Parser(add_help=False)
    common.add_argument("--ledger", default=os.environ.get("PLEDGER_LEDGER"),
                        help="ledger file path (default: $PLEDGER_LEDGER)")
    common.add_argument("--format", choices=("text", "csv", "doc"), default="text",
                        help="output rendering")
    signing = _Parser(add_help=False)
    signing.add_argument("--hmac-key", metavar="REF=SECRET",
                         help="sign (or verify) entries with a keyed MAC")

    parser = _Parser(prog="pledger",
                     description="Tamper-evident participation ledger tooling.")
    subs = parser.add_subparsers(dest="command", required=True)

    if wanted("append"):
        p = subs.add_parser("append", parents=[common, signing],
                            help="validate, seal, and append one entry document")
        p.add_argument("entry", help="entry document path, or - for stdin")
        p.set_defaults(func=_cmd_append)

    if wanted("verify"):
        p = subs.add_parser("verify", parents=[common, signing],
                            help="verify the hash chain (and signatures with a key)")
        p.set_defaults(func=_cmd_verify)

    if wanted("query"):
        p = subs.add_parser("query", parents=[common], help="run a graph pattern query")
        p.add_argument("query", nargs="?", help="query text")
        p.add_argument("--file", help="read the query from a .plq file, or - for stdin")
        p.add_argument("--saved", help="run a named saved query")
        p.add_argument("--param", action="append", metavar="NAME=VALUE",
                       help="saved-query parameter")
        p.add_argument("--explain", action="store_true",
                       help="write the bind order and candidate-set sizes to stderr")
        p.set_defaults(func=_cmd_query)

    if wanted("harness"):
        harness_group = subs.add_parser("harness", help="evaluation harness").add_subparsers(
            dest="harness_command", required=True)
        p = harness_group.add_parser("run", parents=[common, signing],
                                     help="run every live test from a results bundle")
        p.add_argument("--results", required=True,
                       help="directory of <test-id-slug>.result documents")
        p.add_argument("--artifact", required=True, help="artifact id under evaluation")
        p.add_argument("--version", required=True, help="declared artifact version")
        p.add_argument("--checkpoint", required=True, help="evaluation checkpoint")
        p.add_argument("--evaluator", default="harness", help="evaluator pseudonym")
        p.add_argument("--evaluator-role", default="evaluator", help="evaluator role")
        p.add_argument("--created-at", help="timestamp override for the run entries")
        p.set_defaults(func=_cmd_harness_run)

    if wanted("gate"):
        gate_group = subs.add_parser("gate", help="release gating").add_subparsers(
            dest="gate_command", required=True)
        p = gate_group.add_parser("check", parents=[common],
                                  help="evaluate vouchers for a capability release")
        p.add_argument("--capability", required=True)
        p.add_argument("--boundary", required=True)
        p.add_argument("--version", required=True)
        p.add_argument("--artifact", help="artifact id (defaults to the only lineage)")
        p.add_argument("--now", help="evaluation time (default: current time)")
        p.set_defaults(func=_cmd_gate_check)

    if wanted("voucher"):
        voucher_group = subs.add_parser("voucher", help="capability vouchers").add_subparsers(
            dest="voucher_command", required=True)
        p = voucher_group.add_parser("issue", parents=[common, signing],
                                     help="append a steward voucher from a payload document")
        p.add_argument("--payload", required=True, help="voucher payload document path")
        p.add_argument("--id", help="voucher entry id (default: derived)")
        p.add_argument("--evidence", action="append", default=[],
                       help="evidence link target (repeatable)")
        p.add_argument("--created-at")
        p.set_defaults(func=_cmd_voucher_issue)
        p = voucher_group.add_parser("transition", parents=[common, signing],
                                     help="move a voucher lineage to a new status")
        p.add_argument("--voucher", required=True, help="voucher lineage id")
        p.add_argument("--to", required=True, help="new status")
        p.add_argument("--evidence", action="append", default=[])
        p.add_argument("--expiry")
        p.add_argument("--created-at")
        p.set_defaults(func=_cmd_voucher_transition)

    if wanted("credit"):
        credit_group = subs.add_parser("credit", help="participation credit").add_subparsers(
            dest="credit_command", required=True)
        p = credit_group.add_parser("accrue", parents=[common, signing],
                                    help="mint credits for qualifying events in a window")
        p.add_argument("--policy", required=True, help="credit policy document path")
        p.add_argument("--window-start", required=True)
        p.add_argument("--window-end", required=True)
        p.add_argument("--created-at")
        p.set_defaults(func=_cmd_credit_accrue)
        p = credit_group.add_parser("report", parents=[common],
                                    help="statement of credits for one beneficiary")
        p.add_argument("--beneficiary", required=True)
        p.add_argument("--window-start", required=True)
        p.add_argument("--window-end", required=True)
        p.set_defaults(func=_cmd_credit_report)

    if wanted("audit"):
        audit_group = subs.add_parser("audit", help="evidence and linkage audits").add_subparsers(
            dest="audit_command", required=True)
        p = audit_group.add_parser("evidence", parents=[common],
                                   help="evidence coverage matrix")
        p.add_argument("--cases", help="per-case coding document (document mode)")
        p.set_defaults(func=_cmd_audit_evidence)
        p = audit_group.add_parser("linkage", parents=[common],
                                   help="contribution-change-test linkage completeness")
        p.set_defaults(func=_cmd_audit_linkage)
        p = audit_group.add_parser("conformance", parents=[common],
                                   help="check a release export against the four clauses")
        p.add_argument("--export", required=True, help="release export document path")
        p.set_defaults(func=_cmd_audit_conformance)
        p = audit_group.add_parser("consent", parents=[common],
                                   help="flag changes that violate consent terms")
        p.set_defaults(func=_cmd_audit_consent)

    if wanted("export"):
        p = subs.add_parser("export", parents=[common],
                            help="self-contained release export")
        p.add_argument("--release", required=True, metavar="ARTIFACT@VERSION")
        p.add_argument("--now", help="gate evaluation time for active vouchers")
        p.add_argument("--out", help="write to a file instead of stdout")
        p.set_defaults(func=_cmd_export)

    if wanted("redact"):
        p = subs.add_parser("redact", parents=[common, signing],
                            help="tombstone an entry's payload")
        p.add_argument("--target", required=True, help="entry id to redact")
        p.add_argument("--reason", required=True)
        p.add_argument("--role", required=True, help="authorizing role")
        p.add_argument("--pseudonym")
        p.add_argument("--steward-org")
        p.add_argument("--id", help="tombstone entry id (default: derived)")
        p.add_argument("--created-at")
        p.set_defaults(func=_cmd_redact)

    if first is not None and first not in subs.choices:
        return build_parser()  # not a command name: the whole tree
    return parser


_VERIFY_FAILURES = (CorruptLine, StorageFailure)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except SystemExit as exc:
        return int(exc.code or 0)
    # What a command builds lives until it returns, so cyclic collections
    # during it would free nothing; pause them and restore the caller's state.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except _VERIFY_FAILURES as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 4
    except LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except FileNotFoundError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
