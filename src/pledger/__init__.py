"""Tamper-evident participation ledger.

Append-only, hash-chained records of who contributed what to an AI system,
which changes and tests their contributions motivated, how evaluations went,
and what governance and credit followed. Everything is replayable: chains
verify offline, harness decisions recompute bit-for-bit, gate checks and
audits are pure functions of a ledger snapshot.

`import pledger` loads no submodule: each public name below is imported from
its module the first time it is read (PEP 562), so a command pays only for
the modules it uses.
"""

import importlib

__version__ = "0.1.0"

_MODULE_NAMES = {
    "canonical": "canonical_bytes canonical_json compute_hash format_number",
    "errors": """
        AlreadySealed CorruptLine DuplicateId IllegalTransition InvalidId
        InvalidPolicy InvalidTimestamp LedgerError MalformedDocument
        MalformedExport NonCanonicalizableNumber PayloadMismatch
        QueryParameterError QuerySyntaxError ShapeMismatch SigningFailure
        StorageFailure UnboundVariable UnknownArtifactVersion UnknownContribution
        UnknownEntryType UnknownLabel UnknownNode UnknownQueryName
        UnknownRelation UnknownTarget UnknownTest ValidationFailed
        WrongEntryType WrongKind""",
    "evidence": """
        CoverageLevel EvidenceMatrix audit_contribution audit_corpus
        build_export case_matrix check_export_conformance
        flag_consent_violations""",
    "governance": """
        CreditPolicy GateDecision accrue_credits credit_report gate_check
        issue_voucher transition_voucher""",
    "graph": "Snapshot build_graph linkage_completeness trace_influence",
    "harness": """
        decide detect_regressions fold_suite run_suite triage_incident
        verify_replay""",
    "integrity": """
        ChainVerdict hmac_signer seal verify_chain""",
    "model": """
        ActorRef EntryEnvelope EntryType LinkSet ValidationReport parse_entry
        serialize_entry validate_structure""",
    "query": "parse_query run_query run_saved_query",
    "store": "LedgerFile read_entries verify_file",
}

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _MODULE_NAMES.items()
            for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
