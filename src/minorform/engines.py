"""Closed-form determinant and inverse engines.

The determinant's first-row expansion is one DAG, stated once by
`_telescope_schedule`: a nested minor is the ascending tuple of columns it
keeps, on the last rows, and deleting position s leaves the child
`indices.survivor_map(cols, s)`, its step read through kappa and optionally
a standard-function encoding. The general engine evaluates the schedule's
2^n - n - 1 states in numbers, one pass up from the closed 2x2 forms,
without building minor matrices. Its inverses read the first-row minors
off the determinant's pass; every other cofactor's minor is extracted, and
its pass starts from the states it shares with the determinant's pass:
those on the rows below the deleted row. The same pass
read symbolically gives the products: the determinant table (n = 2..5) as
flat offsets, the symbolic expansion as column tuples. The inverse tables
are the det table's derivatives: by Jacobi's formula the cofactor of
a[i, j] is d det / d a[i, j], the det products that hold a[i, j] with that
factor dropped.

Schedules and tables are built once and cached, and each closed-form table
is compiled once into a shared-prefix product program. It stores every
distinct proper row prefix once, and each signed sum multiplies a term's
prefix by its last factor as it adds it. Products still start from 1 + 0j
and sums keep their term order, so results are bit for bit those of the
flat sums.
`check_combination` is the engines' one size check: a size, method or
encoding an engine does not cover raises UnsupportedCombinationError.
"""

from __future__ import annotations

import cmath
import warnings
from collections.abc import Sequence
from enum import Enum, unique
from functools import lru_cache
from itertools import combinations
from math import prod
from typing import NamedTuple

from .discrete import ReprKind, _check_encoding
from .errors import DomainError, NearSingularWarning, SingularMatrixError, UnsupportedCombinationError, _check_integer
from .indices import survivor_map
from .matrices import Matrix, minor_by_formula
from .oracles import _LEIBNIZ_MAX, _entry_overflow, _finite, _finite_inverse

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


@lru_cache(maxsize=None)
def _telescope_schedule(n: int, repr_kind: ReprKind = ReprKind.DIRECT):
    """(pairs, states): every ascending tuple of 2..n columns, by length.

    Position s of a tuple has the child `survivor_map(cols, s, repr_kind)`.
    A pair is the offsets (p, q, r, s) of 0j + data[p] * data[q] - data[r] * data[s].
    A k-column state lists (pivot offset of c on row n - k + 1, odd position,
    child index) per column c in order.
    """
    tuples = [cols for k in range(2, n + 1) for cols in combinations(range(1, n + 1), k)]
    index = {cols: i for i, cols in enumerate(tuples)}
    pairs, states = [], []
    for cols in tuples:
        row = (n - len(cols)) * n - 1
        if len(cols) == 2:
            (q,), (s,) = survivor_map(cols, 1, repr_kind), survivor_map(cols, 2, repr_kind)
            pairs.append((row + cols[0], row + n + q, row + cols[1], row + n + s))
        else:
            states.append(tuple((row + c, s % 2 == 0, index[survivor_map(cols, s, repr_kind)]) for s, c in enumerate(cols, 1)))
    return tuple(pairs), tuple(states)


def _det_terms(n: int, repr_kind: ReprKind) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Signed flat-offset products of the n x n determinant, in expansion order.

    `_telescope_schedule(n, repr_kind)` read bottom-up, as `_telescope_states`
    reads it in numbers: a pair gives (1, (p, q)) and (-1, (r, s)); a state puts
    each pivot offset in front of its child's products, flipping the sign at an
    odd position. The last state's products are the table. The direct schedule
    is read under the telescope's own cache key, so each size has one.
    """
    pairs, states = _telescope_schedule(n) if repr_kind is ReprKind.DIRECT else _telescope_schedule(n, repr_kind)
    products = [((1, (p, q)), (-1, (r, s))) for p, q, r, s in pairs]
    for state in states:
        products.append(tuple(
            (-sign if odd else sign, (o, *offsets)) for o, odd, child in state for sign, offsets in products[child]
        ))
    return products[-1]


@lru_cache(maxsize=None)
def _column_terms(n: int, repr_kind: ReprKind) -> tuple[SignedTerm, ...]:
    """Signed column tuples of the n x n determinant in expansion order."""
    return tuple(SignedTerm(sign, tuple(o % n + 1 for o in offsets)) for sign, offsets in _det_terms(n, repr_kind))


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
    """Raise UnsupportedCombinationError unless the engine covers (n, encoding).

    A method or encoding that is not a member of its enum raises DomainError.
    """
    if not isinstance(method, Method):
        raise DomainError(f"method must be a Method, got {method!r}")
    _check_encoding(repr_kind)
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


def _compile(tables):
    """(ops, sums): each distinct proper row prefix of the tables' products is a node.

    Node 0 is 1 + 0j and op (src, o) makes the next node v[src] * data[o].
    Each table's sum lists (positive, node, o) in its term order, and the
    sum forms that term's product v[node] * data[o] as it reads it, so every
    product is still formed left to right from 1 + 0j and no full product
    is stored.
    """
    nodes: dict[tuple[int, ...], int] = {(): 0}
    ops: list[tuple[int, int]] = []
    sums = []
    for table in tables:
        terms = []
        for sign, offsets in table:
            node = 0
            for k, o in enumerate(offsets[:-1], 1):
                child = nodes.setdefault(offsets[:k], len(nodes))
                if child > len(ops):
                    ops.append((node, o))
                node = child
            terms.append((sign > 0, node, offsets[-1]))
        sums.append(tuple(terms))
    return tuple(ops), tuple(sums)


@lru_cache(maxsize=None)
def _det_program(n: int, repr_kind: ReprKind):
    return _compile((_det_terms(n, repr_kind),))


@lru_cache(maxsize=None)
def _inverse_program(n: int):
    return _compile(_inverse_terms(n))


def _run(data: tuple[complex, ...], program) -> list[complex]:
    """Evaluate a compiled program: every node once, then each signed sum in order.

    A term's product v[node] * data[o] is formed as its sum adds it.
    """
    ops, sums = program
    v = [1.0 + 0.0j]
    push = v.append
    for src, o in ops:
        push(v[src] * data[o])
    out = []
    for terms in sums:
        total = 0.0 + 0.0j
        for positive, i, o in terms:
            total = total + v[i] * data[o] if positive else total - v[i] * data[o]
        out.append(total)
    return out


def closed_form_det(a: Matrix, repr_kind: ReprKind = ReprKind.DIRECT) -> complex:
    """Determinant by the unrolled closed-form sum (sizes 2..5)."""
    check_combination(a.n, Method.CLOSED_FORM, repr_kind)
    return _finite(_run(a.data, _det_program(a.n, repr_kind))[0])


def _guard_determinant(a: Matrix, det: complex) -> None:
    """Refuse a zero determinant and warn on a tiny one; det is already finite."""
    if det == 0:
        raise SingularMatrixError("determinant is exactly zero")
    if abs(det) < NEAR_SINGULAR_RELATIVE * prod(max(map(abs, row)) for row in a.rows()):
        warnings.warn(
            NearSingularWarning(
                f"determinant magnitude {abs(det):.3e} is below the "
                f"scale-relative trust threshold; entries may be inaccurate"
            ),
            stacklevel=3,
        )


def closed_form_inverse(a: Matrix) -> Matrix:
    """Inverse by the unrolled adjugate sums over one shared determinant.

    `closed_form_det` checks the size, and the determinant is read through
    that public name, so whatever wraps it sees every closed-form
    determinant. The encoding parameter is deliberately absent: every
    allowed encoding expands to the direct columns, so the numerators read
    the direct det table. DomainError names an entry that overflows.
    """
    det = closed_form_det(a)
    _guard_determinant(a, det)
    return _finite_inverse(a.n, tuple(numer / det for numer in _run(a.data, _inverse_program(a.n))))


@lru_cache(maxsize=None)
def _shared_prefix(n: int, r: int, s: int) -> tuple[int, ...]:
    """Indices in the n x n pass of the states minor (r, s)'s pass shares with it.

    A state is the determinant of the last k rows on its columns, so on the
    n - r rows below row r the minor's states are the parent's states on
    the same original columns. These are the parent's tuples of 2..n - r
    columns without s, in the parent's order; dropping s keeps that order,
    so the list is the minor's own schedule prefix.
    """
    tuples = (cols for k in range(2, n - r + 1) for cols in combinations(range(1, n + 1), k))
    return tuple(i for i, cols in enumerate(tuples) if s not in cols)


def _telescope_states(a: Matrix, known: Sequence[complex] = ()) -> list[complex]:
    """Every state of `_telescope_schedule(a.n)` on `a`, the determinant last.

    A chain of first-row deletions leaves a minor named by the tuple of
    its k surviving columns, on the last k rows of `a`. One pass over the
    schedule evaluates each minor once, bit for bit as the recursion
    `oracles.laplace_det`: sums start from 0j and skip zero pivots, and
    `-= term` is its `+= -term` exactly, as IEEE 754 defines x - y as x + (-y).
    The last state's children are the n first-row minors, which the
    inverses read through `_first_row_minors`, those behind zero pivots
    included.

    `known` is empty or a prefix of the states that covers at least every
    pair, such as a parent pass's states read through `_shared_prefix`; it
    is copied and only the states after it are evaluated.
    """
    n, data = a.n, a.data
    if n == 1:
        return [data[0]]
    pairs, states = _telescope_schedule(n)
    v = list(known) or [0j + data[p] * data[q] - data[r] * data[s] for p, q, r, s in pairs]
    push = v.append
    for state in states[len(v) - len(pairs) :]:
        value = 0.0 + 0.0j
        for o, odd, child in state:
            pivot = data[o]
            if pivot:
                if odd:
                    value -= pivot * v[child]
                else:
                    value += pivot * v[child]
        push(value)
    return v


def _first_row_minors(a: Matrix, v: Sequence[complex]) -> Sequence[complex]:
    """The n first-row minors of `a` off its pass `v`: the last state's
    children, or at n = 2 the entries a[2][2] and a[2][1]."""
    if a.n == 2:
        return a.data[3], a.data[2]
    _, states = _telescope_schedule(a.n)
    return [v[child] for _, _, child in states[-1]]


def general_det(a: Matrix) -> complex:
    """Determinant by telescoping first-row expansion (sizes 2..GENERAL_SIZE_CAP)."""
    check_combination(a.n, Method.TELESCOPE, ReprKind.DIRECT)
    return _finite(_telescope_states(a)[-1])


def element_inverse(a: Matrix, p: int, q: int) -> complex:
    """Single inverse entry: the (q, p) entry of the inverse of `a`.

    Computed directly as (-1)^(p+q) det(minor(a, p, q)) / det(a): one pass
    over `a`, which at p = 1 already holds the minor, else the minor's pass
    from the states the two share, so one entry never costs a full inverse.
    DomainError names the entry if it overflows.
    """
    _check_integer(p, "row index", 1, a.n)
    _check_integer(q, "column index", 1, a.n)
    check_combination(a.n, Method.TELESCOPE, ReprKind.DIRECT)
    v = _telescope_states(a)
    det = _finite(v[-1])
    _guard_determinant(a, det)
    if p == 1:
        numer = _first_row_minors(a, v)[q - 1]
    else:
        numer = _telescope_states(minor_by_formula(a, p, q), [v[i] for i in _shared_prefix(a.n, p, q)])[-1]
    value = (numer if (p + q) % 2 == 0 else -numer) / det
    if not cmath.isfinite(value):
        raise _entry_overflow(q, p, value)
    return value


def general_inverse(a: Matrix) -> Matrix:
    """Full inverse from telescoped minor determinants (sizes 2..GENERAL_SIZE_CAP).

    The determinant's own pass also holds the n first-row minors, read by
    `_first_row_minors`. The other n^2 - n minors are extracted, and each
    one's pass starts from the states on the rows below its deleted row,
    read off the determinant's pass through `_shared_prefix`: a row-2 minor
    evaluates only its last state, and the minors of the last two rows share
    none.
    """
    n = a.n
    check_combination(n, Method.TELESCOPE, ReprKind.DIRECT)
    v = _telescope_states(a)
    det = _finite(v[-1])
    _guard_determinant(a, det)
    first_row = _first_row_minors(a, v)
    out = [0.0 + 0.0j] * (n * n)
    for r in range(1, n + 1):
        for s in range(1, n + 1):
            if r == 1:
                numer = first_row[s - 1]
            else:
                known = [v[i] for i in _shared_prefix(n, r, s)] if r < n - 1 else ()
                numer = _telescope_states(minor_by_formula(a, r, s), known)[-1]
            if (r + s) % 2:
                numer = -numer
            out[(s - 1) * n + (r - 1)] = numer / det
    return _finite_inverse(n, tuple(out))


def expand_terms(n: int) -> tuple[SignedTerm, ...]:
    """Symbolic telescoping expansion of the n x n determinant.

    The telescope schedule's products as column tuples, the closed-form
    tables' own expansion along the first row. Terms arrive in
    deterministic expansion order and their signs reproduce the
    permutation parities of the Leibniz sum.
    """
    _check_integer(n, "expansion size")
    check_combination(n, Method.TELESCOPE, ReprKind.DIRECT)
    return _column_terms(n, ReprKind.DIRECT)
