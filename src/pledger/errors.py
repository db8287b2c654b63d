"""Exception types shared across the ledger engine.

Every error raised by the public API derives from LedgerError so callers can
catch one base. Parse and validation problems carry enough position or path
information to be actionable without a debugger.
"""

from __future__ import annotations


class LedgerError(Exception):
    """Base class for all ledger engine errors."""


# -- document and model errors ------------------------------------------------

class MalformedDocument(LedgerError):
    """Input is not a JSON object of the expected shape."""


class UnknownEntryType(LedgerError):
    """The document's `type` is not one of the eight entry types."""


class PayloadMismatch(LedgerError):
    """The payload key present does not match the declared entry type."""


class InvalidTimestamp(LedgerError):
    """Timestamp is not ISO-8601 UTC with a trailing Z at second precision."""


class InvalidId(LedgerError):
    """Identifier does not match the id grammar or its kind segment
    disagrees with the entry type."""


class ValidationFailed(LedgerError):
    """An entry failed structural validation; carries the report."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"structural validation failed: {report.summary()}")


# -- canonicalization, sealing, chain ------------------------------------------

class NonCanonicalizableNumber(LedgerError):
    """NaN or infinity cannot appear in canonical content."""


class AlreadySealed(LedgerError):
    """Entry already carries an integrity block."""


class SigningFailure(LedgerError):
    """The signer hook raised; the entry was left unsealed."""


# -- store ---------------------------------------------------------------------

class DuplicateId(LedgerError):
    """An entry with this id is already in the ledger."""


class StorageFailure(LedgerError):
    """The underlying file could not be written; the ledger is unchanged."""


class CorruptLine(LedgerError):
    """A ledger line failed to parse or to link; `line_number` is 1-based."""

    def __init__(self, line_number: int, reason: str = ""):
        self.line_number = line_number
        self.reason = reason
        super().__init__(f"corrupt ledger line {line_number}" + (f": {reason}" if reason else ""))


class UnknownTarget(LedgerError):
    """Referenced entry id does not exist in the ledger."""


class UnauthorizedRole(LedgerError):
    """The acting role is not allowed to perform this operation."""


class WrongEntryType(LedgerError):
    """The referenced entry exists but has the wrong entry type."""


class WrongKind(LedgerError):
    """The referenced entry has the right type but the wrong payload kind."""


# -- graph ---------------------------------------------------------------------

class UnknownNode(LedgerError):
    """Node id is not present in the graph."""


# -- query ---------------------------------------------------------------------

class QuerySyntaxError(LedgerError):
    """Query text failed to parse; carries position and expectation."""

    def __init__(self, position: int, expected: str, found: str = ""):
        self.position = position
        self.expected = expected
        self.found = found
        detail = f"at offset {position}: expected {expected}"
        if found:
            detail += f", found {found!r}"
        super().__init__(detail)


class UnboundVariable(LedgerError):
    """A WHERE or RETURN item uses a variable no MATCH clause binds."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound variable {name!r}")


class UnknownLabel(LedgerError):
    """Node label does not map to an entry type or the Deployment view."""


class UnknownRelation(LedgerError):
    """Relation name does not map to a link kind."""


class UnknownQueryName(LedgerError):
    """No saved query under this name."""


class QueryParameterError(LedgerError):
    """Missing or extra parameters for a saved query."""


# -- harness -------------------------------------------------------------------

class ShapeMismatch(LedgerError):
    """Raw results do not have the shape the measurement procedure needs."""


class UnknownTest(LedgerError):
    """No Test entry with this id."""


class UnknownArtifactVersion(LedgerError):
    """No Artifact entry declares this (artifactId, version) pair."""


class UnknownContribution(LedgerError):
    """No Contribution entry with this id."""


# -- governance ----------------------------------------------------------------

class IllegalTransition(LedgerError):
    """Voucher status change outside the legal transition set."""


class InvalidPolicy(LedgerError):
    """Credit policy document violates its own constraints."""


# -- evidence audit ------------------------------------------------------------

class MalformedExport(LedgerError):
    """Export document is missing required sections or is not an object."""
