"""Closed-form determinant and inverse engines.

The determinant's first-row expansion is one DAG, stated once by
`_telescope_schedule`: a nested minor is the ascending tuple of columns it
keeps, on the last rows, and deleting position s leaves the child
`indices.survivor_map(cols, s)`, its step read through kappa and optionally
a standard-function encoding. The schedule is one level per tuple length
k = 2..n, and a state names its children by position in level k - 1. The
general engine evaluates the 2^n - n - 1 states in numbers, one pass up
from the closed 2x2 forms, without building minor matrices. The pass
runs as straight-line Python, compiled once per size into one function
per level: each unpacks its pivot row and the level below, and returns
its level, one expression per state. Its inverses read every cofactor
through `_cofactors`: the first-row minors off the determinant's pass,
row r's other minors by one top-level call each, on the level of n - 2
columns with row r on top. The same levels read symbolically give the
products: the determinant table (n = 2..5) as flat offsets, the symbolic
expansion as column tuples. The
inverse tables are the det table's derivatives: by Jacobi's formula the
cofactor of a[i, j] is d det / d a[i, j], the det products that hold
a[i, j] with that factor dropped.

Schedules and tables are built once and cached, and each closed-form table
runs as one straight-line Python function, emitted once from its signed
offsets by `_kernel`: one statement per distinct proper row prefix, one
expression per signed sum, which multiplies a term's prefix by its last
factor as it adds it. Products still start from 1 + 0j and sums keep
their term order, so results are bit for bit those of the flat sums. The
inverse has one table per size, the last row's cofactors over the rows
above it: run on the matrix without row i, it gives row i's cofactors,
with every sign flipped where n - 1 - i is odd. Kernels and level
functions are built from integer offsets by one helper, `_function`.
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
from math import comb, frexp, ldexp, prod
from operator import itemgetter
from typing import NamedTuple

from .discrete import ReprKind, _check_encoding
from .errors import DomainError, NearSingularWarning, SingularMatrixError, UnsupportedCombinationError, _check_integer
from .indices import survivor_map
from .matrices import Matrix, minor_by_formula
from .oracles import _LEIBNIZ_MAX, _entry_overflow, _finite, _finite_inverse, _modulus

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
    """(pairs, levels): every ascending tuple of 2..n columns, one level per length.

    Position s of a tuple has the child `survivor_map(cols, s, repr_kind)`.
    A pair, a 2-column tuple, is the offsets (p, q, r, s) of
    0j + data[p] * data[q] - data[r] * data[s]. levels[k - 3] holds the
    k-column states, k = 3..n: each lists (pivot offset of c on row
    n - k + 1, odd position, child's position in level k - 1) per column c
    in order.
    """
    columns, row = range(1, n + 1), (n - 2) * n - 1
    pairs = []
    for cols in combinations(columns, 2):
        (q,), (s,) = survivor_map(cols, 1, repr_kind), survivor_map(cols, 2, repr_kind)
        pairs.append((row + cols[0], row + n + q, row + cols[1], row + n + s))
    levels = []
    for k in range(3, n + 1):
        row, below = (n - k) * n - 1, {cols: i for i, cols in enumerate(combinations(columns, k - 1))}
        levels.append(tuple(
            tuple((row + c, s % 2 == 0, below[survivor_map(cols, s, repr_kind)]) for s, c in enumerate(cols, 1))
            for cols in combinations(columns, k)
        ))
    return tuple(pairs), tuple(levels)


def _det_terms(n: int, repr_kind: ReprKind) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Signed flat-offset products of the n x n determinant, in expansion order.

    `_telescope_schedule(n, repr_kind)` read bottom-up, as `_telescope_states`
    reads it in numbers: a pair gives (1, (p, q)) and (-1, (r, s)); a state puts
    each pivot offset in front of its child's products, flipping the sign at an
    odd position. Only the level below is kept; the last level's one state
    holds the table. The direct schedule is read under the telescope's own
    cache key, so each size has one.
    """
    pairs, levels = _telescope_schedule(n) if repr_kind is ReprKind.DIRECT else _telescope_schedule(n, repr_kind)
    below = [((1, (p, q)), (-1, (r, s))) for p, q, r, s in pairs]
    for level in levels:
        below = [
            tuple((-sign if odd else sign, (o, *offsets)) for o, odd, child in state for sign, offsets in below[child])
            for state in level
        ]
    return below[-1]


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


def _function(name: str, params: str, body: Sequence[str]):
    """`def name(params):` with these body lines, compiled and returned.

    Every straight-line function is built here, from integer offsets alone,
    never from a value.
    """
    namespace: dict = {}
    source = "\n".join([f"def {name}({params}):", *(f"    {line}" for line in body)])
    exec(compile(source, f"<{name}>", "exec"), namespace)
    return namespace[name]


def _kernel(tables, flip: bool = False):
    """Signed offset tables as one straight-line function of the flat data.

    The function unpacks d0, d1, ... = data, up to the largest offset the
    tables read, and returns the tuple of their signed sums. Each distinct
    proper row prefix of a product is stored once, as `vK = vS * dO` in
    order of first use, with the empty prefix the constant (1+0j); each sum
    is one expression `0j + vI * dO - vJ * dP ...`, multiplying a term's
    prefix by its last factor as it adds it. Python evaluates that as
    `((0j + vI * dO) - vJ * dP) ...`: every product formed left to right
    from 1 + 0j and every sum in term order, so every bit is that of the
    flat sums. flip swaps every sign; negating the results instead would
    change signed zeros.
    """
    add, sub = (" - ", " + ") if flip else (" + ", " - ")
    nodes: dict[tuple[int, ...], str] = {(): "(1+0j)"}
    lines, sums = [], []
    for table in tables:
        terms = []
        for sign, offsets in table:
            for k in range(1, len(offsets)):
                if offsets[:k] not in nodes:
                    nodes[offsets[:k]] = f"v{len(nodes)}"
                    lines.append(f"{nodes[offsets[:k]]} = {nodes[offsets[: k - 1]]} * d{offsets[k - 1]}")
            terms.append(f"{add if sign > 0 else sub}{nodes[offsets[:-1]]} * d{offsets[-1]}")
        sums.append("    0j" + "".join(terms) + ",")
    width = 1 + max(offsets[-1] for table in tables for _, offsets in table)
    unpack = f"{', '.join(f'd{o}' for o in range(width))} = data"
    return _function("kernel", "data", [unpack, *lines, "return (", *sums, ")"])


@lru_cache(maxsize=None)
def _det_kernel(n: int, repr_kind: ReprKind):
    return _kernel((_det_terms(n, repr_kind),))


@lru_cache(maxsize=None)
def _cofactor_kernels(n: int):
    """The cofactor-row kernels of size n: signs as stored, then every sign flipped.

    Both run the last row's cofactors of the n x n determinant over its
    first n - 1 rows. Row i's cofactors are these on the matrix without
    row i, its other rows kept in order: the same products of the same
    entries in the same order, with the stored signs where n - 1 - i is
    even and the flipped ones where it is odd.
    """
    tables = _inverse_terms(n)[n - 1 :: n]
    return _kernel(tables), _kernel(tables, flip=True)


def closed_form_det(a: Matrix, repr_kind: ReprKind = ReprKind.DIRECT) -> complex:
    """Determinant by the unrolled closed-form sum (sizes 2..5)."""
    check_combination(a.n, Method.CLOSED_FORM, repr_kind)
    return _finite(_det_kernel(a.n, repr_kind)(a.data)[0])


def _guard_determinant(a: Matrix, det: complex) -> None:
    """Refuse a zero determinant and warn on a tiny one; det is already finite.

    The threshold is NEAR_SINGULAR_RELATIVE times the product of the row
    maxima, held as a mantissa and an exponent, so that it neither
    overflows nor underflows. The mantissas are multiplied in the rows'
    order, so wherever the product of the maxima and the threshold are
    normal doubles the verdict is theirs. A modulus beyond double range,
    where abs raises, reads as inf: then the maxima are read by `_modulus`.
    """
    if det == 0:
        raise SingularMatrixError("determinant is exactly zero")
    n, data = a.n, a.data
    try:
        mantissas, exponents = zip(*(frexp(max(map(abs, data[i : i + n]))) for i in range(0, n * n, n)))
    except OverflowError:
        mantissas, exponents = zip(*(frexp(max(map(_modulus, data[i : i + n]))) for i in range(0, n * n, n)))
    threshold, exponent = frexp(NEAR_SINGULAR_RELATIVE * prod(mantissas))
    size = _modulus(det)
    mantissa, shift = frexp(size)
    # size < threshold * 2**(exponent + sum(exponents)): both mantissas lie
    # in [0.5, 1), so an exponent gap beyond 1 decides alone and the clamped
    # ldexp is exact; inf, nan and 0 pass through it as the product would
    if mantissa < ldexp(threshold, min(max(exponent + sum(exponents) - shift, -1), 1)):
        warnings.warn(
            NearSingularWarning(
                f"determinant magnitude {size:.3e} is below the "
                f"scale-relative trust threshold; entries may be inaccurate"
            ),
            stacklevel=3,
        )


def closed_form_inverse(a: Matrix) -> Matrix:
    """Inverse by the unrolled adjugate sums over one shared determinant.

    `closed_form_det` checks the size, and the determinant is read through
    that public name, so whatever wraps it sees every closed-form
    determinant. Row i's n cofactors, inverse column i, come from one
    cofactor-row kernel run on the entries without row i. The encoding
    parameter is deliberately absent: every allowed encoding expands to the
    direct columns, so the numerators read the direct det table. DomainError
    names an entry that overflows.
    """
    det = closed_form_det(a)
    _guard_determinant(a, det)
    n, data = a.n, a.data
    kernels = _cofactor_kernels(n)
    columns = [kernels[(n - 1 - i) % 2](data[: i * n] + data[(i + 1) * n :]) for i in range(n)]
    return _finite_inverse(n, tuple(numer / det for row in zip(*columns) for numer in row))


@lru_cache(maxsize=None)
def _telescope_levels(n: int) -> tuple:
    """`_telescope_schedule(n)` as n - 1 straight-line functions `level(data, below)`.

    One per level k = 2..n, each returning its C(n, k) states in schedule
    order from `below`, level k - 1's. Level 2 unpacks the last two rows
    and forms each pair as `0j + dP * dQ - dR * dS`, reading no `below`.
    Level k unpacks pivot row n - k + 1 and `below`, and forms each state
    as `0j + (dO * bC if dO else 0j) - (dP * bD if dP else 0j) ...`, its
    terms in schedule order. A sum that starts at +0+0j never holds a -0.0
    part, so adding 0j at a zero pivot is skipping the term, inf and nan
    children included.
    """
    pairs, levels = _telescope_schedule(n)
    base = (n - 2) * n
    functions = [_function("level", "data, below", [
        f"{', '.join(f'd{o}' for o in range(2 * n))} = data[{base}:]",
        "return (",
        *(f"    0j + d{p - base} * d{q - base} - d{r - base} * d{s - base}," for p, q, r, s in pairs),
        ")",
    ])]
    for k, level in enumerate(levels, 3):
        row = (n - k) * n
        functions.append(_function("level", "data, below", [
            f"{', '.join(f'd{c}' for c in range(n))} = data[{row}:{row + n}]",
            f"{', '.join(f'b{i}' for i in range(comb(n, k - 1)))} = below",
            "return (",
            *(
                "    0j" + "".join(
                    f" {'-' if odd else '+'} (d{o - row} * b{child} if d{o - row} else 0j)" for o, odd, child in state
                ) + ","
                for state in level
            ),
            ")",
        ]))
    return tuple(functions)


def _telescope_states(a: Matrix) -> list[tuple[complex, ...]]:
    """Every level of `_telescope_schedule(a.n)` on `a`, 2..n columns, the determinant last.

    A chain of first-row deletions leaves a minor named by the tuple of
    its k surviving columns, on the last k rows of `a`. One pass up the
    levels of `_telescope_levels` evaluates each minor once, each level
    from the one below, bit for bit as the recursion `oracles.laplace_det`:
    sums start from 0j and skip zero pivots, and subtracting a term is its
    `+= -term` exactly, as IEEE 754 defines x - y as x + (-y). The last
    state's children are the n first-row minors, which `_cofactors` reads,
    those behind zero pivots included.
    """
    v, below = [], ()
    for level in _telescope_levels(a.n):
        below = level(a.data, below)
        v.append(below)
    return v


def _row_level(a: Matrix, v: Sequence[tuple[complex, ...]], r: int) -> tuple[complex, ...]:
    """Row r's level of n - 2 columns, which holds each minor (r, s)'s level below its top.

    `_telescope_levels(a.n)` up to n - 2 columns, on `a` with row r on top,
    which they never read, from the last level of `v`, `a`'s pass, below
    row r: its levels of 2..n - r columns are reused as they are. At n = 3
    there is no such level, and it is ().
    """
    n, data = a.n, a.data
    known = max(n - r - 1, 0)  # v's levels below row r
    below = v[known - 1] if known else ()
    moved = data[(r - 1) * n : r * n] + data[: (r - 1) * n] + data[r * n :]
    for level in _telescope_levels(n)[known : n - 3]:
        below = level(moved, below)
    return below


@lru_cache(maxsize=None)
def _shared_reader(n: int, s: int):
    """Reads minor (r, s)'s n - 1 states of n - 2 columns off `_row_level(a, v, r)`.

    A state is the determinant of the last k rows on its columns, and minor
    (r, s) reads original column kappa(t, s) at its column t, so its
    tuples, in its own order, are row r's tuples without s. At n = 3 the
    minors' top level is the pair form, which reads none.
    """
    if n == 3:
        return lambda level: ()
    return itemgetter(*(i for i, cols in enumerate(combinations(range(1, n + 1), n - 2)) if s not in cols))


def _cofactors(a: Matrix, v: Sequence[tuple[complex, ...]], entries: Sequence[tuple[int, int]]) -> list[complex]:
    """The signed cofactors (-1)^(r+s) det(minor(a, r, s)) of `a`, one per (r, s) in entries.

    `v` is the pass of `a`. Row 1's minors are its last state's children in
    the level below, or at n = 2 the entries a[2][2] and a[2][1]. Every
    other minor's last state alone is evaluated, by its size's top level on
    its level below, read off its row's `_row_level`, and on one extracted
    minor per column s: from n = 4 the top level reads only row 1 without
    s, the same for every r; at n = 3 (pair forms) one per minor; at n = 2
    it is one entry.
    """
    n, data = a.n, a.data
    first_row = (data[3], data[2]) if n == 2 else [v[-2][child] for _, _, child in _telescope_schedule(n)[1][-1][0]]
    rows = {r: _row_level(a, v, r) for r in {r for r, _ in entries if r > 1}}
    top = _telescope_levels(n - 1)[-1] if n > 2 else None
    minors = {}
    out = []
    for r, s in entries:
        if r == 1:
            numer = first_row[s - 1]
        elif n == 2:
            numer = minor_by_formula(a, r, s).data[0]
        else:
            if n == 3 or s not in minors:
                minors[s] = minor_by_formula(a, r, s).data
            numer = top(minors[s], _shared_reader(n, s)(rows[r]))[0]
        out.append(numer if (r + s) % 2 == 0 else -numer)
    return out


def general_det(a: Matrix) -> complex:
    """Determinant by telescoping first-row expansion (sizes 2..GENERAL_SIZE_CAP)."""
    check_combination(a.n, Method.TELESCOPE, ReprKind.DIRECT)
    return _finite(_telescope_states(a)[-1][0])


def element_inverse(a: Matrix, p: int, q: int) -> complex:
    """Single inverse entry: the (q, p) entry of the inverse of `a`.

    Computed directly as (-1)^(p+q) det(minor(a, p, q)) / det(a): one pass
    over `a`, which at p = 1 already holds the minor, else row p's level of
    n - 2 columns and one level call for the minor's last state: never a
    full inverse.
    DomainError names the entry if it overflows.
    """
    _check_integer(p, "row index", 1, a.n)
    _check_integer(q, "column index", 1, a.n)
    check_combination(a.n, Method.TELESCOPE, ReprKind.DIRECT)
    v = _telescope_states(a)
    det = _finite(v[-1][0])
    _guard_determinant(a, det)
    value = _cofactors(a, v, [(p, q)])[0] / det
    if not cmath.isfinite(value):
        raise _entry_overflow(q, p, value)
    return value


def general_inverse(a: Matrix) -> Matrix:
    """Full inverse from telescoped minor determinants (sizes 2..GENERAL_SIZE_CAP).

    The determinant's pass is read once by `_cofactors` for all n^2
    cofactors, in row-major order: row 1 off the pass itself, every other
    row by one level call per minor on the states it reads off its row's
    level of n - 2 columns, which starts from the pass's levels below it,
    and on one extracted minor per column (one per minor at n = 3).
    """
    n = a.n
    check_combination(n, Method.TELESCOPE, ReprKind.DIRECT)
    v = _telescope_states(a)
    det = _finite(v[-1][0])
    _guard_determinant(a, det)
    cofactors = _cofactors(a, v, [(r, s) for r in range(1, n + 1) for s in range(1, n + 1)])
    # inverse entry (s, r) is cofactor (r, s) over det
    return _finite_inverse(n, tuple(c / det for s in range(n) for c in cofactors[s::n]))


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
