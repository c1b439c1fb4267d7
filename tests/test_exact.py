"""Engines against the exact determinant and inverse of their float input.

Every binary64 value is a dyadic rational, so elimination over
`fractions.Fraction` gives the true determinant and inverse of the matrix
the engines are handed. The bounds are the benchmark's: a determinant, like
any sum of signed products, is within 4 n eps per(|A|) of the exact value,
and an inverse within 32 n eps cond_inf(A) max|X|.
"""

import math
from fractions import Fraction

import pytest

from minorform import (
    Matrix,
    closed_form_det,
    closed_form_inverse,
    general_det,
    general_inverse,
    random_matrix,
)

EPS = 2.0**-52
DET_FACTOR = 4.0
INV_FACTOR = 32.0
SEEDS = range(8)


def exact_det_and_inverse(a: Matrix) -> tuple[Fraction, list[list[Fraction]]]:
    """Gauss-Jordan elimination over the rationals of a real matrix."""
    n = a.n
    rows = [
        [Fraction(v.real) for v in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(a.rows())
    ]
    det = Fraction(1)
    for k in range(n):
        p = next(r for r in range(k, n) if rows[r][k] != 0)
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            det = -det
        pivot = rows[k][k]
        det *= pivot
        rows[k] = [v / pivot for v in rows[k]]
        for r in range(n):
            factor = rows[r][k]
            if r != k and factor != 0:
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[k])]
    return det, [row[n:] for row in rows]


def permanent_abs(a: Matrix) -> float:
    """per(|A|), row by row over the sets of columns already used."""
    partial = {0: 1.0}
    for row in a.rows():
        grown: dict[int, float] = {}
        for used, value in partial.items():
            for c, v in enumerate(row):
                if not used >> c & 1:
                    grown[used | 1 << c] = grown.get(used | 1 << c, 0.0) + value * abs(v)
        partial = grown
    return partial[(1 << a.n) - 1]


def det_bound(a: Matrix) -> float:
    return DET_FACTOR * a.n * EPS * permanent_abs(a)


def assert_inverse_near_exact(a: Matrix, x: Matrix) -> None:
    _, exact = exact_det_and_inverse(a)
    ref = [[float(v) for v in row] for row in exact]
    norm_a = max(sum(abs(v) for v in row) for row in a.rows())
    norm_ref = max(sum(abs(v) for v in row) for row in ref)
    largest = max(abs(v) for row in ref for v in row)
    bound = INV_FACTOR * a.n * EPS * norm_a * norm_ref * largest
    err = max(abs(x.entry(r + 1, c + 1) - ref[r][c]) for r in range(a.n) for c in range(a.n))
    assert err <= bound, (err, bound)


def test_exact_oracle_knows_small_cases():
    det, inverse = exact_det_and_inverse(Matrix.from_rows([[3, 7], [2, 5]]))
    assert det == 1
    assert inverse == [[5, -7], [-2, 3]]
    assert permanent_abs(Matrix.from_rows([[1, -2], [3, 4]])) == 10.0


@pytest.mark.parametrize(
    "det, sizes",
    [(closed_form_det, range(2, 6)), (general_det, range(2, 9))],
    ids=["closed", "general"],
)
def test_determinant_is_within_the_bound_of_the_exact_value(det, sizes):
    for n in sizes:
        for seed in SEEDS:
            a = random_matrix(n, seed=1000 * n + seed)
            exact, _ = exact_det_and_inverse(a)
            assert abs(det(a) - float(exact)) <= det_bound(a), (n, seed)


@pytest.mark.parametrize(
    "inverse, sizes",
    [(closed_form_inverse, range(2, 6)), (general_inverse, range(2, 7))],
    ids=["closed", "general"],
)
def test_inverse_is_within_the_bound_of_the_exact_value(inverse, sizes):
    for n in sizes:
        for seed in SEEDS:
            a = random_matrix(n, seed=2000 * n + seed)
            assert_inverse_near_exact(a, inverse(a))


def test_rounded_singular_looking_matrix_keeps_its_tiny_determinant():
    # one ulp above 9 makes [[1,2,3],[4,5,6],[7,8,9]] regular: det = -3 ulp(9)
    a = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, math.nextafter(9, 10)]])
    exact, _ = exact_det_and_inverse(a)
    assert exact == Fraction(-3, 2**49)
    assert closed_form_det(a) == 0
    assert det_bound(a) == pytest.approx(1.2e-12, rel=0.01)
    assert abs(closed_form_det(a) - float(exact)) <= det_bound(a)
