"""The documents pledger reads besides entries: credit policies, release
exports and evidence case files, against a frozen corpus of their answers.

tests/data/document_errors.json records, for each malformed document, the
exception type and message its reader raises (null for a document it
accepts), and for three accepted policies their `to_doc()` and `ref()`.
Policy sources are JSON text, so NaN and a float overflowing to infinity
are spelled as the policy file would spell them.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from pledger.errors import LedgerError
from pledger.evidence import case_matrix, check_export_conformance
from pledger.governance import CreditPolicy

CORPUS = json.loads((Path(__file__).parent / "data" / "document_errors.json").read_text("utf-8"))


def outcome(call) -> list:
    try:
        call()
    except LedgerError as exc:
        return [type(exc).__name__, str(exc)]
    return [None, None]


def ids(section: str) -> list[str]:
    return [case["case"] for case in CORPUS[section]]


@pytest.mark.parametrize("case", CORPUS["policies"], ids=ids("policies"))
def test_policy_corpus(case):
    doc = json.loads(case["source"])
    assert outcome(lambda: CreditPolicy.from_doc(doc)) == [case["error"], case["message"]]


@pytest.mark.parametrize("case", CORPUS["exports"], ids=ids("exports"))
def test_export_corpus(case):
    got = outcome(lambda: check_export_conformance(case["doc"]))
    assert got == [case["error"], case["message"]]


@pytest.mark.parametrize("case", CORPUS["cases"], ids=ids("cases"))
def test_case_file_corpus(case):
    got = outcome(lambda: case_matrix(case["doc"]))
    assert got == [case["error"], case["message"]]


@pytest.mark.parametrize("case", CORPUS["accepted"], ids=["empty", "note", "POLICY_DOC"])
def test_accepted_policies_keep_their_bytes(case):
    policy = CreditPolicy.from_doc(case["doc"])
    assert policy.to_doc() == case["to_doc"]
    assert policy.ref() == case["ref"]
