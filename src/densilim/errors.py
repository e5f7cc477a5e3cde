"""Exception taxonomy. Precondition failures map to CLI exit code 2."""

from __future__ import annotations


class DensilimError(Exception):
    """Base class for all library errors."""


class PreconditionError(DensilimError):
    """An operation was invoked outside its stated domain of validity."""


class EmptyWindow(PreconditionError):
    """Integration window has a non-positive side length."""


class DimensionMismatch(PreconditionError):
    """Region, window, or point dimensions disagree."""


class EmptyRegion(PreconditionError):
    """The region declares no sample generator, so it has no point cloud."""


class NotDensityPoint(PreconditionError):
    """Some denominator measure vanished at the working resolution."""


class NotDensitySet(PreconditionError):
    """The set fails the null-measure or positive-neighborhood condition."""


class RegionsNotDisjoint(PreconditionError):
    """Two regions required to be disjoint overlap on the sample lattice."""


class NonLipschitzDomain(PreconditionError):
    """Domain lacks the boundary parametrization the operation needs."""


class UnboundedNearX(PreconditionError):
    """One-sided limits exceed the configured cap near the queried point."""


class NonLipschitz(DensilimError):
    """Difference quotients exceeded the configured cap."""


class SupportMismatch(DensilimError):
    """Hull support function disagrees with the directional-derivative probe."""


class ExprError(DensilimError):
    """Base class for expression parsing/evaluation errors."""


class ExprSyntaxError(ExprError):
    """Syntax error with 1-based column position."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


class ArityError(ExprError):
    """Function called with the wrong number of arguments."""

    def __init__(self, message: str, column: int = 0):
        super().__init__(message)
        self.column = column


class UnknownIdentifier(ExprError):
    """Identifier is neither a variable, constant, nor known function."""

    def __init__(self, message: str, column: int = 0):
        super().__init__(message)
        self.column = column
