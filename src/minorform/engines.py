"""Closed-form determinant and inverse engines.

The determinant's expansion is the only term table. It comes from one
survivor-map expansion: the determinant is expanded along its first row,
and deleting position s leaves each later position t reading column
kappa(t, s) = t + 1 - heav(s - t - 1) of its parent, with the step
optionally routed through a standard-function encoding. The n x n
determinant table (n = 2..5) is that expansion as flat offsets, and the
symbolic expansion is the same table as column tuples. The inverse tables
are the det table's derivatives: by Jacobi's formula the cofactor of
a[i, j] is d det / d a[i, j], the det products that hold a[i, j] with that
factor dropped. The general engine
telescopes: it expands along the first row without building minor
matrices, naming each nested minor by the set of columns it keeps (its
rows are the last ones) and evaluating each set once per determinant,
down to the closed 2x2 form.

Index tables per (size, encoding) are computed once and cached; evaluation
afterwards is pure arithmetic over the flat entry buffer. `check_combination`
is the engines' one size check: a size, method or encoding an engine does
not cover raises UnsupportedCombinationError.
"""

from __future__ import annotations

import warnings
from enum import Enum, unique
from functools import lru_cache
from typing import NamedTuple

from .discrete import ReprKind, _heav_gamma_extended, repr_heav
from .errors import DomainError, NearSingularWarning, SingularMatrixError, UnsupportedCombinationError
from .matrices import Matrix, minor_by_formula
from .oracles import _LEIBNIZ_MAX, _finite

CLOSED_FORM_SIZES = (2, 3, 4, 5)
GENERAL_SIZE_CAP = 8

# An exact zero determinant raises; this relative threshold (against the
# product of row maxima) additionally flags results built from a determinant
# too small to trust at double precision.
NEAR_SINGULAR_RELATIVE = 1e-12


@unique
class Method(Enum):
    """Inverse engine selector."""

    CLOSED_FORM = "closed"
    TELESCOPE = "telescope"
    ORACLE = "oracle"


class SignedTerm(NamedTuple):
    """One signed product of a determinant expansion.

    columns[r - 1] is the original column read by row r; sign carries the
    accumulated expansion parity. The cached expansion is a tuple of these,
    and `expand_terms` returns it as it is.
    """

    sign: int
    columns: tuple[int, ...]


def _step(z: int, p: int, repr_kind: ReprKind) -> int:
    """heav(z - p) through the selected encoding.

    The expansion asks for z in 1..n and p in 2..n. `repr_heav` owns every
    encoding's domain; outside the gamma domains the step comes from the
    private factorial-parity closure, which covers the rest of n = 4, 5.
    Other encodings raise there, as `check_combination` keeps them at n = 3.
    """
    try:
        return repr_heav(z, p, repr_kind)
    except DomainError:
        if repr_kind is not ReprKind.GAMMA:
            raise
        return _heav_gamma_extended(z - p)


def _expand(colmap: tuple[int, ...], sign: int, chosen: tuple[int, ...], repr_kind: ReprKind):
    """Yield the SignedTerm of every product of the determinant over colmap.

    chosen holds the columns taken by the rows above and sign their parity.
    Deleting position s leaves the child map colmap[kappa(t, s) - 1] for
    t = 1..len-1, where kappa(t, s) - 1 = t - heav(s - t - 1) is the survivor
    step read through the encoding.
    """
    if len(colmap) == 1:
        yield SignedTerm(sign, chosen + colmap)
        return
    for s in range(1, len(colmap) + 1):
        child = tuple(colmap[t - _step(s, t + 1, repr_kind)] for t in range(1, len(colmap)))
        yield from _expand(child, sign if s % 2 else -sign, chosen + (colmap[s - 1],), repr_kind)


@lru_cache(maxsize=None)
def _column_terms(n: int, repr_kind: ReprKind) -> tuple[SignedTerm, ...]:
    """Signed column tuples of the n x n determinant in expansion order."""
    return tuple(_expand(tuple(range(1, n + 1)), 1, (), repr_kind))


@lru_cache(maxsize=None)
def _det_terms(n: int, repr_kind: ReprKind) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Signed flat-offset products of the n x n determinant."""
    return tuple(
        (sign, tuple(r * n + c - 1 for r, c in enumerate(columns)))
        for sign, columns in _column_terms(n, repr_kind)
    )


@lru_cache(maxsize=None)
def _inverse_terms(n: int) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
    """Signed flat-offset numerator products of each inverse entry, row-major.

    The cofactor of a[i, j] is d det / d a[i, j]: every det product that
    holds offset i*n + j, in expansion order, with that factor dropped and
    its sign kept. Over the determinant it is inverse entry (j, i).
    """
    numerators = [[] for _ in range(n * n)]
    for sign, offsets in _det_terms(n, ReprKind.DIRECT):
        for k, o in enumerate(offsets):
            numerators[o % n * n + o // n].append((sign, offsets[:k] + offsets[k + 1 :]))
    return tuple(map(tuple, numerators))


def check_combination(n: int, method: Method, repr_kind: ReprKind) -> None:
    """Raise UnsupportedCombinationError unless the engine covers (n, encoding)."""
    if method is Method.CLOSED_FORM:
        if n not in CLOSED_FORM_SIZES:
            raise UnsupportedCombinationError(
                f"closed form covers sizes {CLOSED_FORM_SIZES}, got {n}"
            )
        if repr_kind in (ReprKind.COSINE, ReprKind.BESSEL, ReprKind.HERMITE) and n != 3:
            raise UnsupportedCombinationError(
                f"{repr_kind.value} encoding only covers size 3, got {n}"
            )
        return
    if repr_kind is not ReprKind.DIRECT:
        raise UnsupportedCombinationError(
            f"{method.value} method only runs the direct encoding"
        )
    limit = GENERAL_SIZE_CAP if method is Method.TELESCOPE else _LEIBNIZ_MAX
    if not 2 <= n <= limit:
        raise UnsupportedCombinationError(
            f"{method.value} method covers sizes 2..{limit}, got {n}"
        )


def _signed_sum(data: tuple[complex, ...], terms) -> complex:
    total = 0.0 + 0.0j
    for sign, offsets in terms:
        product = 1.0 + 0.0j
        for o in offsets:
            product *= data[o]
        total += product if sign > 0 else -product
    return total


def closed_form_det(a: Matrix, repr_kind: ReprKind = ReprKind.DIRECT) -> complex:
    """Determinant by the unrolled closed-form sum (sizes 2..5)."""
    check_combination(a.n, Method.CLOSED_FORM, repr_kind)
    return _finite(_signed_sum(a.data, _det_terms(a.n, repr_kind)))


def _row_max_product(a: Matrix) -> float:
    scale = 1.0
    for r in range(a.n):
        scale *= max(abs(v) for v in a.data[r * a.n : (r + 1) * a.n])
    return scale


def _guard_determinant(a: Matrix, det: complex) -> None:
    """Refuse a zero determinant and warn on a tiny one; det is already finite."""
    if det == 0:
        raise SingularMatrixError("determinant is exactly zero")
    if abs(det) < NEAR_SINGULAR_RELATIVE * _row_max_product(a):
        warnings.warn(
            NearSingularWarning(
                f"determinant magnitude {abs(det):.3e} is below the "
                f"scale-relative trust threshold; entries may be inaccurate"
            ),
            stacklevel=3,
        )


def closed_form_inverse(a: Matrix) -> Matrix:
    """Inverse by the unrolled adjugate sums over one shared determinant.

    `closed_form_det` checks the size. The encoding parameter is
    deliberately absent: every allowed encoding expands to the direct
    columns, so the numerators read the direct det table.
    """
    det = closed_form_det(a)
    _guard_determinant(a, det)
    return Matrix(a.n, tuple(_signed_sum(a.data, terms) / det for terms in _inverse_terms(a.n)))


def _telescope_det(a: Matrix) -> complex:
    """Determinant by first-row expansion over sets of surviving columns.

    After any chain of first-row deletions the composed survivor map
    depends only on which columns are gone, so a minor is named by the
    bitmask of its k surviving columns; its rows are the last k rows of
    `a`. Each minor is expanded once, along its own first row with the
    columns in ascending order, and memoised by its mask for the rest of
    the call. Zero pivots are skipped and 2x2 minors use the closed form,
    so every value is the one the unmemoised recursion computes.
    """
    n, data = a.n, a.data
    if n == 1:
        return data[0]
    memo: dict[int, complex] = {}

    def minor_det(mask: int) -> complex:
        if mask in memo:
            return memo[mask]
        cols = [c for c in range(n) if mask >> c & 1]
        row = (n - len(cols)) * n
        if len(cols) == 2:
            c0, c1 = cols
            value = data[row + c0] * data[row + n + c1] - data[row + c1] * data[row + n + c0]
        else:
            value = 0.0 + 0.0j
            for i, c in enumerate(cols):
                pivot = data[row + c]
                if pivot == 0:
                    continue
                term = pivot * minor_det(mask & ~(1 << c))
                value += -term if i % 2 else term
        memo[mask] = value
        return value

    return minor_det((1 << n) - 1)


def general_det(a: Matrix) -> complex:
    """Determinant by telescoping first-row expansion (sizes 2..GENERAL_SIZE_CAP)."""
    check_combination(a.n, Method.TELESCOPE, ReprKind.DIRECT)
    return _finite(_telescope_det(a))


def element_inverse(a: Matrix, p: int, q: int) -> complex:
    """Single inverse entry: the (q, p) entry of the inverse of `a`.

    Computed directly as (-1)^(p+q) det(minor(a, p, q)) / det(a) with both
    determinants telescoped, so one entry never costs a full inverse.
    """
    a._check_index("row", p)
    a._check_index("column", q)
    det = general_det(a)
    _guard_determinant(a, det)
    numer = _telescope_det(minor_by_formula(a, p, q))
    return (numer if (p + q) % 2 == 0 else -numer) / det


def general_inverse(a: Matrix) -> Matrix:
    """Full inverse from telescoped minor determinants (sizes 2..GENERAL_SIZE_CAP)."""
    det = general_det(a)
    _guard_determinant(a, det)
    n = a.n
    out = [0.0 + 0.0j] * (n * n)
    for r in range(1, n + 1):
        for s in range(1, n + 1):
            numer = _telescope_det(minor_by_formula(a, r, s))
            if (r + s) % 2:
                numer = -numer
            out[(s - 1) * n + (r - 1)] = numer / det
    return Matrix(n, tuple(out))


def expand_terms(n: int) -> tuple[SignedTerm, ...]:
    """Symbolic telescoping expansion of the n x n determinant.

    The closed-form tables' own expansion along the first row, with each
    minor's column map threaded through the survivor function. Terms arrive
    in deterministic expansion order and their signs reproduce the
    permutation parities of the Leibniz sum.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise DomainError(f"expansion needs an integer size, got {n!r}")
    check_combination(n, Method.TELESCOPE, ReprKind.DIRECT)
    return _column_terms(n, ReprKind.DIRECT)
