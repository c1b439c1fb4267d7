"""Exception types shared across the package, and its frozen record base.

DomainError marks an operation undefined for its argument, and
UnsupportedCombinationError one that the chosen engine does not cover.
FrozenRecord is the base of the validated value types.
"""


class FrozenRecord:
    """Immutable value type whose fields are its __slots__, in order.

    A subclass validates in __init__ and sets each slot once with
    object.__setattr__. Equality (same class only) and hash go field by
    field, repr reads Name(field=value, ...); assignment and deletion raise.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


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
