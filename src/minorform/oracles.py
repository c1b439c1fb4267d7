"""Independent ground-truth engines for cross-checking the formula code.

Nothing here shares index arithmetic with the closed-form engines: the
determinant enumerates permutations directly, the inverse builds classical
adjugates from literal row/column deletion, and Gauss-Jordan elimination
works on a mutable augmented tableau. Slow and obvious on purpose. The
permutation sum and the adjugate check their own sizes, because `engines`,
home of `check_combination`, imports this module.
"""

from __future__ import annotations

import cmath
from typing import Iterator, NamedTuple

from .errors import DomainError, SingularMatrixError, UnsupportedCombinationError
from .matrices import Matrix, minor_by_deletion

_LEIBNIZ_MAX = 9  # n! products; 9! = 362880 is the largest tolerable sum


class GaussResult(NamedTuple):
    inverse: Matrix


def _finite(det: complex) -> complex:
    """det itself, or DomainError if it overflowed to inf or nan."""
    if not cmath.isfinite(det):
        raise DomainError(f"determinant {det!r} is not finite; entries are out of range")
    return det


def _entry_overflow(row: int, col: int, value: complex) -> DomainError:
    """The error naming inverse entry (row, col), which overflowed to value."""
    return DomainError(
        f"inverse entry ({row}, {col}) overflowed to {value!r}: its numerator "
        f"(a cofactor) or its quotient by the determinant is out of double range"
    )


def _finite_inverse(n: int, entries: tuple[complex, ...]) -> Matrix:
    """The inverse Matrix of these entries, or DomainError naming the first that overflowed.

    entries are the n * n complex quotients of an inverse engine. This scan
    is their finiteness check, so the Matrix is built without another.
    """
    if not all(map(cmath.isfinite, entries)):
        k = next(k for k, v in enumerate(entries) if not cmath.isfinite(v))
        raise _entry_overflow(k // n + 1, k % n + 1, entries[k])
    return Matrix._of_checked(n, entries)


def leibniz_terms(a: Matrix) -> Iterator[tuple[int, complex]]:
    """Every signed permutation product, lexicographic in column order.

    The size is checked at the call, before any product is formed. The
    permutation sign is maintained incrementally: picking the k-th remaining
    column for the current row crosses k earlier choices, flipping the sign
    k times.
    """
    n, data = a.n, a.data
    if n > _LEIBNIZ_MAX:
        raise UnsupportedCombinationError(f"permutation sum covers n <= {_LEIBNIZ_MAX}, got {n}")

    def recurse(row: int, remaining: list[int], sign: int, partial: complex):
        if not remaining:
            yield sign, partial
            return
        for k, col in enumerate(remaining):
            yield from recurse(
                row + 1,
                remaining[:k] + remaining[k + 1 :],
                -sign if k & 1 else sign,
                partial * data[(row - 1) * n + col - 1],
            )

    return recurse(1, list(range(1, n + 1)), 1, 1.0 + 0.0j)


def leibniz_det(a: Matrix) -> complex:
    """Determinant as the full signed sum over permutations; DomainError if not finite."""
    return _finite(sum(sign * product for sign, product in leibniz_terms(a)))


def laplace_det(a: Matrix) -> complex:
    """Determinant by recursive first-row expansion over deletion minors.

    Returned raw, inf and nan included, as the bitwise reference for every
    telescope state; `leibniz_det` and `cofactor_inverse` raise instead.
    """
    if a.n == 1:
        return a.data[0]
    total = 0.0 + 0.0j
    for col in range(1, a.n + 1):
        pivot = a.data[col - 1]
        if pivot == 0:
            continue
        term = pivot * laplace_det(minor_by_deletion(a, 1, col))
        total += term if col % 2 else -term
    return total


def cofactor_inverse(a: Matrix) -> Matrix:
    """Inverse as transposed cofactors over the determinant; DomainError if it is not finite."""
    if a.n < 2:
        raise UnsupportedCombinationError(f"cofactor inverse covers n >= 2, got {a.n}")
    det = _finite(laplace_det(a))
    if det == 0:
        raise SingularMatrixError("determinant is exactly zero")
    out = [0.0 + 0.0j] * (a.n * a.n)
    for i in range(1, a.n + 1):
        for j in range(1, a.n + 1):
            cof = laplace_det(minor_by_deletion(a, i, j))
            if (i + j) % 2:
                cof = -cof
            out[(j - 1) * a.n + (i - 1)] = cof / det
    return _finite_inverse(a.n, tuple(out))


def residual_max_abs(a: Matrix, x: Matrix) -> float:
    """max |(A X - I)_{rc}|, the worst-entry inversion defect.

    DomainError names the first entry of A X - I that is not finite, so an
    overflow never hides behind the max.
    """
    if a.n != x.n:
        raise DomainError("residual requires matrices of equal size")
    n = a.n
    columns = [x.data[c::n] for c in range(n)]
    worst = 0.0
    for r, row in enumerate(a.rows()):
        for c, column in enumerate(columns):
            acc = sum(p * q for p, q in zip(row, column))
            if r == c:
                acc -= 1.0
            if not cmath.isfinite(acc):
                raise DomainError(f"residual entry ({r + 1}, {c + 1}) of A X - I is {acc!r}: out of double range")
            worst = max(worst, abs(acc))
    return worst


def gauss_inverse(a: Matrix) -> GaussResult:
    """Inverse by Gauss-Jordan elimination with partial pivoting.

    Pivots are chosen by largest magnitude, ties keep the first candidate,
    and only an exactly zero pivot is singular. Callers that want the
    worst-entry residual against the identity ask `residual_max_abs`.
    """
    n = a.n
    aug = [row + [1.0 + 0.0j if r == c else 0.0 + 0.0j for c in range(n)] for r, row in enumerate(a.rows())]
    for k in range(n):
        pivot_row = max(range(k, n), key=lambda r: abs(aug[r][k]))
        if aug[pivot_row][k] == 0:
            raise SingularMatrixError(f"no usable pivot in column {k + 1}")
        if pivot_row != k:
            aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
        pivot = aug[k][k]
        aug[k] = [v / pivot for v in aug[k]]
        for r in range(n):
            if r == k:
                continue
            factor = aug[r][k]
            if factor != 0:
                aug[r] = [rv - factor * kv for rv, kv in zip(aug[r], aug[k])]
    inverse = Matrix(n, tuple(aug[r][n + c] for r in range(n) for c in range(n)))
    return GaussResult(inverse)
