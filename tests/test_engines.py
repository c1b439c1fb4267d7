"""Closed-form and telescoping engines against the ground-truth oracles."""

import math
from itertools import permutations

import pytest

from minorform import (
    DomainError,
    Matrix,
    NearSingularWarning,
    ReprKind,
    SingularMatrixError,
    UnsupportedCombinationError,
    closed_form_det,
    closed_form_inverse,
    cofactor_inverse,
    element_inverse,
    expand_terms,
    gauss_inverse,
    general_det,
    general_inverse,
    identity,
    laplace_det,
    leibniz_det,
    minor_by_formula,
    random_matrix,
    residual_max_abs,
)

DET_RTOL = 1e-12
INV_ATOL = 1e-10
ENCODED = [ReprKind.GAMMA, ReprKind.COSINE, ReprKind.BESSEL, ReprKind.HERMITE]


def max_entry_diff(a, b):
    return max(abs(u - v) for u, v in zip(a.data, b.data))


def permutation_parity(cols):
    sign = 1
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            if cols[i] > cols[j]:
                sign = -sign
    return sign


def test_closed_det_known_values():
    assert closed_form_det(Matrix.from_rows([[1, 2], [3, 4]])) == -2
    assert closed_form_det(Matrix.from_rows([[1, 2, 3], [0, 1, 4], [5, 6, 0]])) == 1
    for n in (2, 3, 4, 5):
        assert closed_form_det(identity(n)) == 1


def test_closed_det_matches_permutation_sum():
    for n in (2, 3, 4, 5):
        for trial in range(30):
            a = random_matrix(n, seed=1000 * n + trial, complex_entries=True)
            reference = leibniz_det(a)
            assert abs(closed_form_det(a) - reference) <= DET_RTOL * abs(reference)


def test_closed_det_is_exact_on_integer_matrices():
    # entries and sums stay far below 2**53, so equality must be exact
    for n in (2, 3, 4, 5):
        for trial in range(20):
            gen_seed = 7000 + 100 * n + trial
            a = integer_matrix(n, gen_seed)
            expected = int_leibniz(a)
            got = closed_form_det(a)
            assert got.real == expected
            assert got.imag == 0.0


def integer_matrix(n, seed):
    words = random_matrix(n, seed)  # reuse the normal stream as a bit source
    entries = [int(round(v.real * 2)) % 11 - 5 for v in words.data]
    return Matrix(n, tuple(complex(e) for e in entries))


def int_leibniz(a):
    n = a.n
    total = 0
    for perm in permutations(range(1, n + 1)):
        product = 1
        for row, col in enumerate(perm, start=1):
            product *= int(a.entry(row, col).real)
        total += permutation_parity(perm) * product
    return total


def test_closed_inverse_frozen_integer_example():
    a = Matrix.from_rows([[1, 2, 3], [0, 1, 4], [5, 6, 0]])
    inv = closed_form_inverse(a)
    assert [[v.real for v in row] for row in inv.rows()] == [
        [-24, 18, 5],
        [20, -15, -4],
        [-5, 4, 1],
    ]


def test_closed_inverse_matches_cofactor_oracle():
    for n in (2, 3, 4, 5):
        for trial in range(20):
            a = random_matrix(n, seed=2000 * n + trial, complex_entries=True)
            assert max_entry_diff(closed_form_inverse(a), cofactor_inverse(a)) <= INV_ATOL


def test_closed_inverse_identity_law():
    for n in (2, 3, 4, 5):
        a = random_matrix(n, seed=300 + n)
        inv = closed_form_inverse(a)
        assert residual_max_abs(a, gauss_inverse(a).inverse) <= 1e-12
        product_defect = max(
            abs(sum(a.entry(r, k) * inv.entry(k, c) for k in range(1, n + 1)) - (r == c))
            for r in range(1, n + 1)
            for c in range(1, n + 1)
        )
        assert product_defect <= 1e-12


def test_closed_sizes_are_bounded():
    with pytest.raises(UnsupportedCombinationError):
        closed_form_det(identity(6))
    with pytest.raises(UnsupportedCombinationError):
        closed_form_inverse(identity(1))


def test_encodings_reproduce_the_direct_determinant():
    m3 = random_matrix(3, seed=31, complex_entries=True)
    direct = closed_form_det(m3)
    for repr_kind in ENCODED:
        assert closed_form_det(m3, repr_kind) == direct
    for n in (2, 4, 5):
        m = random_matrix(n, seed=60 + n, complex_entries=True)
        assert closed_form_det(m, ReprKind.GAMMA) == closed_form_det(m)


@pytest.mark.parametrize("repr_kind", [ReprKind.COSINE, ReprKind.BESSEL, ReprKind.HERMITE])
@pytest.mark.parametrize("n", [2, 4, 5])
def test_window_encodings_reject_other_sizes(repr_kind, n):
    with pytest.raises(UnsupportedCombinationError):
        closed_form_det(identity(n), repr_kind)


def test_singular_matrix_raises():
    with pytest.raises(SingularMatrixError):
        closed_form_inverse(Matrix.from_rows([[1, 2], [2, 4]]))
    with pytest.raises(SingularMatrixError):
        general_inverse(Matrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]]))


def test_near_singular_inverse_warns_but_returns():
    eps = 1e-13
    a = Matrix.from_rows([[1, 1], [1, 1 + eps]])
    with pytest.warns(NearSingularWarning):
        inv = closed_form_inverse(a)
    assert abs(inv.entry(2, 2) * eps - 1) <= 2e-2  # usable, just flagged
    with pytest.warns(NearSingularWarning):
        general_inverse(a)
    with pytest.warns(NearSingularWarning):
        element_inverse(a, 1, 1)


def test_well_conditioned_inverse_does_not_warn(recwarn):
    closed_form_inverse(Matrix.from_rows([[2, 1], [1, 2]]))
    assert not [w for w in recwarn.list if issubclass(w.category, NearSingularWarning)]


def test_general_engine_matches_closed_forms():
    for n in (2, 3, 4, 5):
        a = random_matrix(n, seed=4000 + n, complex_entries=True)
        det_ref = closed_form_det(a)
        assert abs(general_det(a) - det_ref) <= DET_RTOL * abs(det_ref)
        assert max_entry_diff(general_inverse(a), closed_form_inverse(a)) <= INV_ATOL


def test_general_engine_beyond_closed_sizes():
    for n in (6, 7):
        a = random_matrix(n, seed=50 + n)
        reference = gauss_inverse(a)
        assert max_entry_diff(general_inverse(a), reference.inverse) <= 1e-9
        det = general_det(a)
        assert abs(det) > 0


def test_general_engine_cap_is_configurable():
    with pytest.raises(UnsupportedCombinationError):
        general_det(identity(9))
    with pytest.raises(UnsupportedCombinationError):
        general_inverse(random_matrix(9, seed=1))
    with pytest.raises(UnsupportedCombinationError):
        general_det(identity(1))


@pytest.mark.parametrize("n", [1, 9])
def test_uncovered_sizes_raise_one_error(n):
    a = identity(n)
    for call in (general_det, general_inverse, lambda m: element_inverse(m, 1, 1)):
        with pytest.raises(UnsupportedCombinationError, match="telescope method covers sizes 2..8"):
            call(a)
    with pytest.raises(UnsupportedCombinationError, match="telescope method covers sizes 2..8"):
        expand_terms(n)


def test_non_integer_expansion_size_is_a_domain_error():
    for size in (2.0, True):
        with pytest.raises(DomainError):
            expand_terms(size)


def test_element_inverse_picks_single_entries():
    for n in (2, 3, 4, 5, 6):
        a = random_matrix(n, seed=900 + n, complex_entries=True)
        full = general_inverse(a)
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                # element (p, q) of the sum is the (q, p) entry of the inverse
                assert element_inverse(a, p, q) == full.entry(q, p)


def test_element_inverse_validation():
    a = random_matrix(3, seed=3)
    with pytest.raises(DomainError):
        element_inverse(a, 0, 1)
    with pytest.raises(DomainError):
        element_inverse(a, 1, 4)
    with pytest.raises(UnsupportedCombinationError):
        element_inverse(random_matrix(9, seed=2), 1, 1)


def test_expand_terms_two_by_two():
    terms = expand_terms(2)
    assert [(t.sign, t.columns) for t in terms] == [(1, (1, 2)), (-1, (2, 1))]


def test_expand_terms_equals_signed_permutations():
    for n in range(2, 8):
        terms = expand_terms(n)
        assert len(terms) == math.factorial(n)
        seen = {t.columns for t in terms}
        assert len(seen) == math.factorial(n)  # no duplicates
        for t in terms:
            assert sorted(t.columns) == list(range(1, n + 1))
            assert t.sign == permutation_parity(t.columns)


def test_expand_terms_evaluates_to_the_determinant():
    a = random_matrix(5, seed=17, complex_entries=True)
    total = 0
    for t in expand_terms(5):
        product = 1
        for row, col in enumerate(t.columns, start=1):
            product *= a.entry(row, col)
        total += t.sign * product
    reference = leibniz_det(a)
    assert abs(total - reference) <= DET_RTOL * abs(reference)


def test_expand_terms_bounds():
    with pytest.raises(UnsupportedCombinationError):
        expand_terms(1)
    with pytest.raises(UnsupportedCombinationError):
        expand_terms(9)


def flat_signed_sum(a, terms):
    # the bitwise contract: each product built row by row from 1+0j, each
    # term added or subtracted by its sign, in the order given
    total = 0.0 + 0.0j
    for sign, columns in terms:
        product = 1.0 + 0.0j
        for row, col in enumerate(columns, 1):
            product *= a.entry(row, col)
        total = total + product if sign > 0 else total - product
    return total


def expansion_order(n):
    if n == 1:
        return [(1, (1,))]
    return [(t.sign, t.columns) for t in expand_terms(n)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_closed_det_is_the_flat_sum_in_expansion_order(n):
    encodings = [ReprKind.DIRECT, ReprKind.GAMMA] + (ENCODED[1:] if n == 3 else [])
    for seed in range(5):
        a = random_matrix(n, seed=700 + 10 * n + seed, complex_entries=True)
        expected = flat_signed_sum(a, expansion_order(n))
        for repr_kind in encodings:
            assert closed_form_det(a, repr_kind) == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_closed_inverse_is_the_flat_sum_over_deletion_minors(n):
    from minorform import minor_by_deletion

    for seed in range(3):
        a = random_matrix(n, seed=800 + 10 * n + seed, complex_entries=True)
        det = closed_form_det(a)
        inv = closed_form_inverse(a)
        for r in range(1, n + 1):
            for c in range(1, n + 1):
                numer = flat_signed_sum(minor_by_deletion(a, c, r), expansion_order(n - 1))
                if (r + c) % 2:
                    numer = -numer
                assert inv.entry(r, c) == numer / det


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_inverse_tables_are_the_survivor_map_reading(n):
    # the paper's construction: the numerator of inverse entry (r, c) is the
    # size n-1 expansion read through kappa(., c) on rows and kappa(., r) on
    # columns, signed by (r + c); the engine derives it from the det table
    from minorform import kappa
    from minorform.engines import _inverse_terms

    table = _inverse_terms(n)
    for r in range(1, n + 1):
        for c in range(1, n + 1):
            expected = [
                (
                    sign if (r + c) % 2 == 0 else -sign,
                    tuple(
                        (kappa(t, c) - 1) * n + kappa(k, r) - 1
                        for t, k in enumerate(columns, 1)
                    ),
                )
                for sign, columns in expansion_order(n - 1)
            ]
            assert list(table[(r - 1) * n + (c - 1)]) == expected


def test_every_allowed_encoding_expands_to_the_direct_columns():
    from minorform.engines import Method, _column_terms, check_combination

    checked = 0
    for n in (2, 3, 4, 5):
        for repr_kind in ENCODED:
            try:
                check_combination(n, Method.CLOSED_FORM, repr_kind)
            except UnsupportedCombinationError:
                continue
            assert _column_terms(n, repr_kind) == _column_terms(n, ReprKind.DIRECT)
            checked += 1
    assert checked == 7  # gamma at n = 2..5, the three window encodings at n = 3


ZERO_PIVOT_CASES = [
    [[0, 1, 2], [3, 0, 4], [5, 6, 0]],
    [[0, 0, 1, 2], [3, 0, 4, 0], [5, 6, 0, 1], [1, 1, 1, 1]],
]


def telescope_cases():
    for n in (2, 3, 4, 5, 6):
        for complex_entries in (False, True):
            for seed in range(3):
                kind = "complex" if complex_entries else "real"
                yield pytest.param(
                    random_matrix(n, seed=600 + 10 * n + seed, complex_entries=complex_entries),
                    id=f"n{n}-{kind}-{seed}",
                )
    for rows in ZERO_PIVOT_CASES:
        yield pytest.param(Matrix.from_rows(rows), id=f"zero-pivots-n{len(rows)}")


@pytest.mark.parametrize("a", telescope_cases())
def test_telescope_is_bitwise_the_laplace_recursion(a):
    # the memoised column-set expansion evaluates every minor exactly as the
    # recursion over deletion minors does, so results agree with ==
    assert general_det(a) == laplace_det(a)
    assert general_inverse(a).data == cofactor_inverse(a).data


def test_telescope_extracts_only_first_level_minors(monkeypatch):
    import minorform.engines as engines

    calls = []

    def counted(a, row, col):
        calls.append((a.n, row, col))
        return minor_by_formula(a, row, col)

    monkeypatch.setattr(engines, "minor_by_formula", counted)
    a = random_matrix(6, seed=61)
    general_inverse(a)
    assert len(calls) == 36 and {n for n, _, _ in calls} == {6}
    calls.clear()
    general_det(a)
    assert calls == []
    element_inverse(a, 2, 5)
    assert calls == [(6, 2, 5)]


@pytest.mark.parametrize(
    "invert, n, scale",
    [
        (closed_form_inverse, 5, 1e70),
        (general_inverse, 6, 1e60),
        (lambda a: element_inverse(a, 1, 1), 6, 1e60),
        (closed_form_det, 5, 1e70),
        (general_det, 6, 1e60),
    ],
    ids=["closed", "general", "element", "closed_det", "general_det"],
)
def test_overflowing_determinant_raises_instead_of_zero_inverse(invert, n, scale):
    a = Matrix.from_rows([[scale if r == c else 0 for c in range(n)] for r in range(n)])
    with pytest.raises(DomainError, match="not finite"):
        invert(a)
