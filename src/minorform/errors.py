"""Exception types shared across the package, and its frozen record base.

DomainError marks an operation undefined for its argument, and
UnsupportedCombinationError one that the chosen engine does not cover.
FrozenRecord is the base of the validated value types. _check_integer is
the one integer-argument rule: every size, count, index, depth, seed and
stream index of the public API is an int, never a bool, within its bounds,
or the call raises DomainError. _as_complex is the one number rule.
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


_KINDS = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}


def _check_integer(value, what: str, low: int | None = None, high: int | None = None) -> None:
    """Raise DomainError unless value is an int, not a bool, within low..high.

    Either bound may be None; with high None, low is None, 0 or 1, and the
    message names the kind ("a positive integer"), else the range ("in 1..n").
    """
    if isinstance(value, int) and not isinstance(value, bool):
        if (low is None or value >= low) and (high is None or value <= high):
            return
    kind = _KINDS[low] if high is None else f"in {low}..{high}"
    raise DomainError(f"{what} must be {kind}, got {value!r}")


def _as_complex(value, what: str = "entries") -> complex:
    """value as a complex: an int (not a bool), float or complex within binary64 range, else DomainError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, complex)):
        raise DomainError(f"{what} must be numbers, got {value!r}")
    try:
        return complex(value)
    except OverflowError:  # an int beyond binary64 range
        raise DomainError(f"{what} must be within floating-point range") from None


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
