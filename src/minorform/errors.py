"""Exception types shared across the package.

DomainError marks an operation undefined for its argument, and
UnsupportedCombinationError one that the chosen engine does not cover.
"""


class DomainError(ValueError):
    """An argument lies outside the declared domain of an operation."""


class SingularMatrixError(ArithmeticError):
    """The matrix has an exactly zero determinant; no inverse exists."""


class ParseError(ValueError):
    """Malformed serialized input. Carries line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class RepresentationMismatchError(ArithmeticError):
    """A standard-function encoding failed to round to its integer target."""


class UnsupportedCombinationError(ValueError):
    """The operation is defined, but the chosen engine does not cover this size, method or encoding."""


class NearSingularWarning(UserWarning):
    """Determinant magnitude is below the scale-relative safety threshold."""
