"""Shared exception types."""


class CamatchError(Exception):
    """Base class for all errors raised by this package."""


class InstanceSyntaxError(CamatchError):
    """Malformed instance/ordering/matching text. Carries line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class InstanceSemanticError(CamatchError):
    """Well-formed text that violates an instance-level rule
    (duplicate id, unknown course, zero quota, overlapping ties, ...)."""


class OrderingError(CamatchError):
    """A priority ordering whose multiset does not match the applicant quotas."""


class FeasibilityError(CamatchError):
    """A matching that violates individual rationality or a quota."""


class CoalitionError(CamatchError):
    """A sequence that is not a valid (pseudo)coalition for the given matching."""


class NotParetoOptimalError(CamatchError):
    """An operation that requires a Pareto optimal matching got a dominated
    one. Carries the improving ``coalition`` that shows it."""

    def __init__(self, message: str, coalition):
        super().__init__(message)
        self.coalition = coalition


class SearchLimitExceeded(CamatchError):
    """An enumeration would exceed its configured size limit."""
