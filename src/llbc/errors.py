"""Exception hierarchy shared by the whole package."""
from __future__ import annotations


class LlbcError(Exception):
    """Base class for every domain error raised by this package."""

    kind = "error"

    def __init__(self, message, span=None):
        super().__init__(message)
        self.message = message
        self.span = span


class ParseError(LlbcError):
    kind = "parse"

    def __init__(self, message, span=None, expected=()):
        super().__init__(message, span)
        self.expected = frozenset(expected)


class LimitError(ParseError):
    """Input past a documented limit: nested deeper than the parser
    (``parser.MAX_NESTING``) or the chain loader (``chains.MAX_JSON_NESTING``)
    allows, or with more ``N . unit`` literals (``parser.MAX_LITERALS``)."""

    kind = "limit"


class DualityError(LlbcError):
    """Dualization applied to an expression form it is not defined on."""

    kind = "duality"


class TypeCheckError(LlbcError):
    kind = "type"

    def __init__(self, message, span=None):
        super().__init__(message, span)


class NonLinearAddressError(TypeCheckError):
    kind = "non-linear-address"

    def __init__(self, address, count, message=None, span=None):
        super().__init__(message or f"address {address} occurs {count} time(s)", span)
        self.address = address
        self.count = count


class TypeMismatchError(TypeCheckError):
    kind = "type-mismatch"


class BranchContextMismatchError(TypeCheckError):
    kind = "branch-context-mismatch"


class PromotionContextError(TypeCheckError):
    """Replication over a context that is not all ?-typed."""

    kind = "non-exponential-promotion-context"


class FuelExhausted(LlbcError):
    kind = "fuel"

    def __init__(self, state, steps):
        super().__init__(f"no normal form within {steps} step(s)")
        self.state = state
        self.steps = steps


class NotInLedgerForm(LlbcError):
    kind = "ledger-form"

    def __init__(self, index, transaction, message=None):
        super().__init__(message or f"pending transaction {index} is not in ledger form")
        self.index = index
        self.transaction = transaction


class IsolationError(LlbcError):
    kind = "isolation"

    def __init__(self, shared):
        shared = frozenset(shared)
        names = ",".join(sorted(a.render() for a in shared))
        super().__init__(f"chains share addresses: {names}")
        self.shared = shared


class HeightMismatch(LlbcError):
    kind = "height"

    def __init__(self, left_height, right_height):
        super().__init__(f"chain heights differ: {left_height} vs {right_height}")
        self.left_height = left_height
        self.right_height = right_height
