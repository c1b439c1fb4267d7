"""Ground-truth engines: permutation sum, adjugate, elimination."""

import math

import pytest

from minorform import (
    DomainError,
    Matrix,
    SingularMatrixError,
    UnsupportedCombinationError,
    cofactor_inverse,
    gauss_inverse,
    identity,
    laplace_det,
    leibniz_det,
    leibniz_terms,
    random_matrix,
    residual_max_abs,
)

DET_AGREEMENT = 1e-12
INVERSE_AGREEMENT = 1e-10


def test_leibniz_known_values():
    assert leibniz_det(Matrix.from_rows([[1, 2], [3, 4]])) == -2
    assert leibniz_det(Matrix.from_rows([[1, 2, 3], [0, 1, 4], [5, 6, 0]])) == 1
    for n in range(1, 7):
        assert leibniz_det(identity(n)) == 1


def test_leibniz_enumerates_exactly_n_factorial_terms():
    for n in range(1, 7):
        terms = list(leibniz_terms(random_matrix(n, seed=n)))
        assert len(terms) == math.factorial(n)
        positives = sum(1 for sign, _ in terms if sign > 0)
        assert positives == (math.factorial(n) // 2 if n > 1 else 1)


def test_leibniz_size_cap():
    with pytest.raises(UnsupportedCombinationError):
        leibniz_det(identity(10))
    with pytest.raises(UnsupportedCombinationError):
        leibniz_terms(identity(10))  # the call itself raises, before any iteration


def test_cofactor_inverse_needs_two_rows():
    with pytest.raises(UnsupportedCombinationError):
        cofactor_inverse(identity(1))


def test_retired_names_are_not_exported():
    import minorform

    assert "CapacityError" not in minorform.__all__
    assert "elimination_det" not in minorform.__all__
    assert not hasattr(minorform.errors, "CapacityError")


def test_three_determinant_routes_agree():
    for n in range(2, 7):
        a = random_matrix(n, seed=40 + n, complex_entries=True)
        reference = leibniz_det(a)
        assert abs(laplace_det(a) - reference) <= DET_AGREEMENT * abs(reference)


def test_cofactor_inverse_two_by_two_is_the_textbook_form():
    a = Matrix.from_rows([[3, 7], [2, 5]])
    inv = cofactor_inverse(a)  # det = 1: adjugate exactly
    assert inv.data == (5 + 0j, -7 + 0j, -2 + 0j, 3 + 0j)


def test_cofactor_inverse_frozen_integer_example():
    # frozen from an exact hand computation: unimodular, so the inverse is integral
    a = Matrix.from_rows([[1, 2, 3], [0, 1, 4], [5, 6, 0]])
    inv = cofactor_inverse(a)
    assert [[v.real for v in row] for row in inv.rows()] == [
        [-24, 18, 5],
        [20, -15, -4],
        [-5, 4, 1],
    ]
    assert all(v.imag == 0 for v in inv.data)


def test_cofactor_inverse_rejects_singular():
    with pytest.raises(SingularMatrixError):
        cofactor_inverse(Matrix.from_rows([[1, 2], [2, 4]]))


def test_gauss_inverse_identity_and_diagonal():
    inv = gauss_inverse(identity(5)).inverse
    assert inv.data == identity(5).data
    assert residual_max_abs(identity(5), inv) == 0.0
    inv = gauss_inverse(Matrix.from_rows([[2, 0], [0, 4]])).inverse
    assert inv.data == (0.5 + 0j, 0j, 0j, 0.25 + 0j)


def test_gauss_inverse_matches_cofactor_inverse():
    for n in range(2, 7):
        a = random_matrix(n, seed=70 + n, complex_entries=True)
        g = gauss_inverse(a)
        c = cofactor_inverse(a)
        assert max(abs(u - v) for u, v in zip(g.inverse.data, c.data)) <= INVERSE_AGREEMENT
        assert residual_max_abs(a, g.inverse) <= 1e-12


def test_gauss_inverse_raises_on_exact_singularity():
    with pytest.raises(SingularMatrixError):
        gauss_inverse(Matrix.from_rows([[1, 2], [2, 4]]))
    with pytest.raises(SingularMatrixError):
        gauss_inverse(Matrix.from_rows([[0, 0], [0, 0]]))


def test_gauss_inverse_refuses_only_an_exact_zero_pivot():
    # every pivot is 2^-1000: tiny but not zero, and the inverse 2^1000 I is exact
    tiny = Matrix(3, tuple(2.0**-1000 * v for v in identity(3).data))
    assert gauss_inverse(tiny).inverse.data == tuple(2.0**1000 * v for v in identity(3).data)


def test_inverse_involution():
    a = random_matrix(3, seed=5)
    twice = gauss_inverse(gauss_inverse(a).inverse).inverse
    assert max(abs(u - v) for u, v in zip(twice.data, a.data)) <= 1e-8


def test_residual_is_zero_only_for_a_true_inverse():
    a = Matrix.from_rows([[2, 0], [0, 2]])
    good = Matrix.from_rows([[0.5, 0], [0, 0.5]])
    bad = Matrix.from_rows([[0.5, 0], [0, 0.6]])
    assert residual_max_abs(a, good) == 0.0
    assert residual_max_abs(a, bad) == pytest.approx(0.2)


def test_residual_sums_each_entry_in_k_order_from_int_zero():
    for seed in range(5):
        a, x = random_matrix(4, seed, True), random_matrix(4, seed + 50, True)
        reference = max(
            abs(sum(a.entry(r, k) * x.entry(k, c) for k in range(1, 5)) - (r == c))
            for r in range(1, 5)
            for c in range(1, 5)
        )
        assert repr(residual_max_abs(a, x)) == repr(reference)


def test_residual_refuses_matrices_of_different_sizes():
    with pytest.raises(DomainError, match="equal size"):
        residual_max_abs(identity(2), identity(3))


def test_residual_refuses_an_entry_that_is_not_finite():
    # (A X)[1][2] = 1e300 * -1e300 + 1e300 * 1e300 = -inf + inf
    a = Matrix.from_rows([[1e300, 1e300], [0, 1e-300]])
    x = Matrix.from_rows([[1e-300, -1e300], [0, 1e300]])
    with pytest.raises(DomainError, match=r"residual entry \(1, 2\)"):
        residual_max_abs(a, x)


@pytest.mark.parametrize(
    "oracle", [leibniz_det, cofactor_inverse], ids=["leibniz_det", "cofactor_inverse"]
)
def test_oracles_raise_on_an_overflowing_determinant(oracle):
    big = Matrix.from_rows([[1e70 if r == c else 0 for c in range(5)] for r in range(5)])
    with pytest.raises(DomainError, match="not finite"):
        oracle(big)


def test_a_modulus_beyond_double_range_is_a_domain_error():
    # hypot(1.5e308, 1.5e308) overflows, so abs() of that finite entry raises;
    # the pivot search reads it as inf, and dividing by it would read 0
    a = Matrix.from_rows([[1.5e308 + 1.5e308j, 0], [0, 1e-308]])
    with pytest.raises(DomainError, match=r"pivot \(1.5e\+308\+1.5e\+308j\) in column 1 is too wide"):
        gauss_inverse(a)
    with pytest.raises(DomainError, match=r"residual entry \(1, 1\) of A X - I is \(1.5e\+308\+1.5e\+308j\)"):
        residual_max_abs(a, identity(2))


def test_gauss_pivots_on_a_modulus_beyond_double_range():
    # the overflowing modulus is the largest candidate, so row 2 is the first
    # pivot and column 1 refuses it; read as smallest, column 2 would
    x = Matrix.from_rows([[1, 1], [1.5e308 + 1.5e308j, 0]])
    with pytest.raises(DomainError, match="in column 1 is too wide"):
        gauss_inverse(x)


@pytest.mark.parametrize("wide", [1.2e308 + 1.2e308j, -1.2e308 + 1.7e308j, 1.7e308 - 1e308j])
def test_gauss_refuses_a_pivot_it_cannot_divide_by(wide):
    # |wide| may be in range, but the quotient's denominator |p|^2 / max part
    # overflows, so 1 / wide reads 0 where the true reciprocal is about 4e-309
    assert 1 / wide == 0
    with pytest.raises(DomainError, match="in column 1 is too wide to divide by"):
        gauss_inverse(Matrix.from_rows([[wide, 0], [0, 1]]))


def test_gauss_divides_by_a_wide_pivot_whose_reciprocal_is_in_range():
    wide = 1e308 + 1e307j
    x = gauss_inverse(Matrix.from_rows([[wide, 0], [0, 2]])).inverse
    assert x.data == (1 / wide, 0, 0, 0.5)
    assert x.entry(1, 1) != 0
