"""Closed-form and telescoping engines against the ground-truth oracles."""

import cmath
import math
import random
import warnings
from itertools import combinations, permutations

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
    minor_by_deletion,
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


def test_an_encoding_that_is_not_a_member_is_a_domain_error():
    with pytest.raises(DomainError, match="encoding must be a ReprKind, got 'direct'"):
        closed_form_det(identity(3), "direct")


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
    # the term order decides every closed-form bit, so it is pinned, not
    # just the set of terms
    for n in range(2, 9):
        terms = expand_terms(n)
        assert [t.columns for t in terms] == list(permutations(range(1, n + 1)))
        assert all(t.sign == permutation_parity(t.columns) for t in terms)


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
        for repr_kind in ReprKind:
            try:
                check_combination(n, Method.CLOSED_FORM, repr_kind)
            except UnsupportedCombinationError:
                continue
            terms = _column_terms(n, repr_kind)
            assert terms == _column_terms(n, ReprKind.DIRECT)
            assert [t.columns for t in terms] == list(permutations(range(1, n + 1)))
            checked += 1
    assert checked == 11  # direct and gamma at n = 2..5, the three window encodings at n = 3


def with_signed_zeros(n, seed):
    # a seeded draw, complex for even seeds and real for odd ones, with about
    # a third of its parts, and every zero part, set to +0.0 or -0.0 at random
    pick = random.Random(seed)
    a = random_matrix(n, seed=seed, complex_entries=seed % 2 == 0)

    def part(x):
        return pick.choice((0.0, -0.0)) if x == 0 or pick.random() < 1 / 3 else x

    return Matrix(n, tuple(complex(part(v.real), part(v.imag)) for v in a.data))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_closed_forms_are_the_flat_sums_bit_for_bit(n):
    # repr, unlike ==, tells -0.0 from 0.0: the shared-prefix program must
    # reproduce every bit of the flat sums, signed zeros included
    from minorform import minor_by_deletion
    from minorform.engines import Method, check_combination

    encodings = [ReprKind.DIRECT]
    for repr_kind in ENCODED:
        try:
            check_combination(n, Method.CLOSED_FORM, repr_kind)
            encodings.append(repr_kind)
        except UnsupportedCombinationError:
            pass
    negative_zeros = 0
    for seed in range(40):
        a = with_signed_zeros(n, 9000 + 100 * n + seed)
        det = flat_signed_sum(a, expansion_order(n))
        for repr_kind in encodings:
            assert repr(closed_form_det(a, repr_kind)) == repr(det)
        if det == 0:
            continue
        expected = []
        for r in range(1, n + 1):
            for c in range(1, n + 1):
                flip = 1 if (r + c) % 2 == 0 else -1
                terms = [(flip * sign, columns) for sign, columns in expansion_order(n - 1)]
                expected.append(flat_signed_sum(minor_by_deletion(a, c, r), terms) / det)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NearSingularWarning)
            got = closed_form_inverse(a).data
        assert repr(got) == repr(tuple(expected))
        negative_zeros += sum(math.copysign(1, x) < 0 for v in got for x in (v.real, v.imag) if x == 0)
    assert negative_zeros > 0  # the draws do reach signed zeros


def test_programs_multiply_each_row_prefix_once():
    from minorform.engines import _det_program, _inverse_program

    programs = [(_det_program(n, ReprKind.DIRECT), _inverse_program(n)) for n in (2, 3, 4, 5)]
    # only proper row prefixes are stored: each full product is formed in its sum
    assert [tuple(len(ops) for ops, _ in pair) for pair in programs] == [(2, 0), (9, 6), (40, 44), (205, 310)]
    # a stored node and a sum term are one multiplication each
    multiplications = [tuple(len(ops) + sum(map(len, sums)) for ops, sums in pair) for pair in programs]
    assert multiplications == [(4, 4), (15, 24), (64, 140), (325, 910)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_closed_form_inverse_reads_the_public_det_once(monkeypatch, n):
    # perfbench traces the public name, so each inverse must call it exactly once
    import minorform.engines as engines

    calls = []

    def counted(a, *args):
        calls.append(a)
        return closed_form_det(a, *args)

    monkeypatch.setattr(engines, "closed_form_det", counted)
    a = random_matrix(n, seed=70 + n)
    for k in range(1, 4):
        engines.closed_form_inverse(a)
        assert calls == [a] * k


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
    # the compiled column-set schedule evaluates every minor exactly as the
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
    # row 1's minors are the children of the determinant pass's last state
    assert sorted(calls) == [(6, r, s) for r in range(2, 7) for s in range(1, 7)]
    calls.clear()
    general_det(a)
    assert calls == []
    element_inverse(a, 2, 5)
    assert calls == [(6, 2, 5)]
    calls.clear()
    # row 1's minor is read off the determinant pass as well
    for q in range(1, 7):
        element_inverse(a, 1, q)
    assert calls == []


SIGNED_ZERO_PIVOT_CASES = [
    [[-0.0, 1, 2], [3, 0.0, 4], [5, 6, -0.0]],
    [[0.0, -0.0, 1j, 2], [3, -0.0, 4, 0j], [5, 6, -0.0, 1], [1, complex(-0.0, 1), 1, -1]],
    [[-0.0, 1, 0.0], [2, complex(0.0, -0.0), -1], [complex(-0.0, 0.0), 3, 1]],
    # the one term's real part is -0.0, and the sum from 0 + 0j makes it +0.0
    [[complex(-0.0, 1), 0, 0], [0, 1, 0], [0, 0, 1]],
]


def signed_zero_telescope_cases():
    for n in range(2, 9):
        for seed in range(2 if n == 8 else 4):
            yield pytest.param(with_signed_zeros(n, 9700 + 10 * n + seed), id=f"n{n}-{seed}")
        # imaginary entries with real parts of either sign: every product of
        # an odd number of them has a real part that is a sum of zeros
        a = with_signed_zeros(n, 9800 + n)
        yield pytest.param(Matrix(n, tuple(complex(v.imag, v.real) for v in a.data)), id=f"n{n}-imaginary")
    for k, rows in enumerate(SIGNED_ZERO_PIVOT_CASES):
        yield pytest.param(Matrix.from_rows(rows), id=f"zero-pivots-{k}")


@pytest.mark.parametrize("a", signed_zero_telescope_cases())
def test_telescope_is_the_recursion_signed_zeros_included(a):
    # repr, unlike ==, tells -0.0 from 0.0: the telescope starts every sum,
    # its closed 2x2 minors included, from 0 + 0j as laplace_det does
    det = general_det(a)
    assert repr(det) == repr(laplace_det(a))
    if a.n > 6 or det == 0:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NearSingularWarning)
        assert repr(general_inverse(a).data) == repr(cofactor_inverse(a).data)


@pytest.mark.parametrize("n", [3, 5])
def test_minors_behind_zero_pivots_may_overflow_unread(n):
    # column 1 is zero above the last two rows, so no minor without column 1
    # is reached; the 2x2 one on the last two rows and columns 2, 3 overflows
    rows = [[0.0] * n for _ in range(n)]
    for r in range(n - 2):
        rows[r][r + 1] = 1.0
    rows[n - 2][0] = rows[n - 2][n - 1] = 1.0
    rows[n - 2][1] = rows[n - 1][2] = 1e200
    rows[n - 1][n - 1] = complex(0.5, 1e200)
    a = Matrix.from_rows(rows)
    assert not math.isfinite(abs(a.entry(n - 1, 2) * a.entry(n, 3)))
    det = general_det(a)
    assert det != 0 and math.isfinite(abs(det))
    assert repr(det) == repr(laplace_det(a))


@pytest.mark.parametrize("n", [3, 5])
def test_first_row_minor_behind_a_zero_pivot_overflows_in_the_inverse(n):
    # a[1, 1] is zero, so the determinant never reads the minor without row 1
    # and column 1, whose diagonal product 1e200 * 1e200 overflows; the
    # inverse reads it as the cofactor behind entry (1, 1)
    rows = [[float(r == c) for c in range(n)] for r in range(n)]
    rows[0][:2] = [0.0, 1.0]
    rows[1][:2] = [1.0, 1e200]
    rows[2][2] = 1e200
    a = Matrix.from_rows(rows)
    assert not math.isfinite(abs(a.entry(2, 2) * a.entry(3, 3)))
    det = general_det(a)
    assert det != 0 and math.isfinite(abs(det))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NearSingularWarning)
        with pytest.raises(DomainError, match=r"inverse entry \(1, 1\) overflowed") as telescoped:
            general_inverse(a)
        with pytest.raises(DomainError) as oracle:
            cofactor_inverse(a)
    assert str(telescoped.value) == str(oracle.value)


def overflow_unread(n):
    # the matrix of test_minors_behind_zero_pivots_may_overflow_unread
    rows = [[0.0] * n for _ in range(n)]
    for r in range(n - 2):
        rows[r][r + 1] = 1.0
    rows[n - 2][0] = rows[n - 2][n - 1] = 1.0
    rows[n - 2][1] = rows[n - 1][2] = 1e200
    rows[n - 1][n - 1] = complex(0.5, 1e200)
    return Matrix.from_rows(rows)


def overflow_behind_first_pivot(n):
    # the matrix of test_first_row_minor_behind_a_zero_pivot_overflows_in_the_inverse
    rows = [[float(r == c) for c in range(n)] for r in range(n)]
    rows[0][:2] = [0.0, 1.0]
    rows[1][:2] = [1.0, 1e200]
    rows[2][2] = 1e200
    return Matrix.from_rows(rows)


def every_state_cases():
    for n in range(2, 7):
        for seed in range(3):
            yield pytest.param(with_signed_zeros(n, 9900 + 10 * n + seed), False, id=f"n{n}-{seed}")
    for n in (3, 5):
        yield pytest.param(overflow_unread(n), True, id=f"unread-overflow-n{n}")
        yield pytest.param(overflow_behind_first_pivot(n), True, id=f"first-pivot-overflow-n{n}")


@pytest.mark.parametrize("a, overflows", every_state_cases())
def test_every_telescope_state_is_its_blocks_laplace_det(a, overflows):
    # state i names the i-th ascending column tuple of 2..n columns, by
    # length; its value is the determinant of the last k rows of a on those
    # k columns, bit for bit, including the states no determinant reads
    from minorform.engines import _telescope_states

    n = a.n
    blocks = [cols for k in range(2, n + 1) for cols in combinations(range(1, n + 1), k)]
    states = _telescope_states(a)
    assert len(states) == len(blocks)
    for cols, state in zip(blocks, states):
        k = len(cols)
        block = Matrix(k, tuple(a.entry(r, c) for r in range(n - k + 1, n + 1) for c in cols))
        assert repr(state) == repr(laplace_det(block)), cols
    assert overflows == any(not cmath.isfinite(state) for state in states)


@pytest.mark.parametrize("n", range(3, 9))
def test_shared_prefix_is_the_minors_schedule_prefix_relabeled(n):
    # minor (r, s) reads original column kappa(t, s) at its column t, so its
    # tuples of 2..n - r columns, in its own schedule order, are these parent
    # states, on the same last rows
    from minorform.engines import _shared_prefix
    from minorform.indices import kappa

    parent = {cols: i for i, cols in enumerate(c for k in range(2, n + 1) for c in combinations(range(1, n + 1), k))}
    for r in range(1, n + 1):
        for s in range(1, n + 1):
            minor = [cols for k in range(2, n - r + 1) for cols in combinations(range(1, n), k)]
            assert _shared_prefix(n, r, s) == tuple(parent[tuple(kappa(t, s) for t in cols)] for cols in minor)


def shared_pass_cases():
    for k, rows in enumerate(SIGNED_ZERO_PIVOT_CASES):
        yield pytest.param(Matrix.from_rows(rows), id=f"zero-pivots-{k}")
    for n in (3, 5):
        yield pytest.param(overflow_unread(n), id=f"unread-overflow-n{n}")
    for n in range(2, 9):
        yield pytest.param(with_signed_zeros(n, 9600 + n), id=f"signed-zeros-n{n}")
        yield pytest.param(random_matrix(n, seed=9650 + n, complex_entries=n % 2 == 0), id=f"random-n{n}")


@pytest.mark.parametrize("a", shared_pass_cases())
def test_minor_passes_from_shared_states_are_the_unshared_passes(a):
    # each cofactor is read off a pass that starts from the determinant
    # pass's states; it must be the minor telescoped from scratch, bit for bit
    from minorform.engines import _telescope_states

    n = a.n
    det = general_det(a)
    expected = [[0j] * n for _ in range(n)]
    for r in range(1, n + 1):
        for s in range(1, n + 1):
            numer = _telescope_states(minor_by_formula(a, r, s))[-1]
            expected[s - 1][r - 1] = (numer if (r + s) % 2 == 0 else -numer) / det
    entries = [v for row in expected for v in row]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NearSingularWarning)
        if all(map(cmath.isfinite, entries)):
            assert repr(general_inverse(a).data) == repr(tuple(entries))
        else:
            with pytest.raises(DomainError, match="overflowed"):
                general_inverse(a)
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                value = expected[q - 1][p - 1]
                if cmath.isfinite(value):
                    assert repr(element_inverse(a, p, q)) == repr(value), (p, q)
                else:
                    with pytest.raises(DomainError, match="overflowed"):
                        element_inverse(a, p, q)


def test_minor_passes_evaluate_only_the_states_below_their_row(monkeypatch):
    import minorform.engines as engines

    telescope = engines._telescope_states
    passes = []

    def recorded(a, known=()):
        states = telescope(a, known)
        passes.append((a.n, len(known), len(states)))
        return states

    monkeypatch.setattr(engines, "_telescope_states", recorded)
    general_inverse(random_matrix(6, seed=66))
    (parent, *minors) = passes
    assert parent == (6, 0, 2**6 - 6 - 1) and len(minors) == 30
    # row 2's minors come first, and each appends only its last state
    assert [total - known for _, known, total in minors[:6]] == [1] * 6
    products = pair_forms = 0
    for m, known, _ in minors:
        pairs, states = engines._telescope_schedule(m)
        pair_forms += 0 if known else len(pairs)
        products += sum(map(len, states[max(known - len(pairs), 0) :]))
    assert (products, pair_forms) == (1170, 120)  # (1650, 300) with no state shared
    passes.clear()
    element_inverse(random_matrix(6, seed=66), 2, 5)
    assert [(m, total - known) for m, known, total in passes] == [(6, 57), (5, 1)]
    passes.clear()
    element_inverse(random_matrix(6, seed=66), 1, 3)
    assert [(m, total - known) for m, known, total in passes] == [(6, 57)]


def test_telescope_schedule_is_built_once_per_size():
    from minorform.engines import _telescope_schedule

    _telescope_schedule.cache_clear()
    for seed in range(3):
        general_inverse(random_matrix(6, seed=62 + seed))
    assert _telescope_schedule.cache_info().misses == 2  # the 6x6 and its 5x5 minors
    pairs, states = _telescope_schedule(6)
    assert len(pairs) + len(states) == 2**6 - 6 - 1
    # every state reads only states before it, and the last is all six columns
    assert all(child < len(pairs) + i for i, state in enumerate(states) for _, _, child in state)
    assert [offset for offset, _, _ in states[-1]] == list(range(6))


def test_tables_and_telescope_share_one_schedule_per_size():
    from minorform import engines

    for cached in (engines._telescope_schedule, engines._det_program, engines._column_terms):
        cached.cache_clear()
    a = random_matrix(5, seed=55)
    closed_form_det(a)
    expand_terms(5)
    general_det(a)
    assert engines._telescope_schedule.cache_info().misses == 1


@pytest.mark.parametrize(
    "rows, p, q, named",
    [
        ([[1e300, 0, 0], [0, 1e-300, 0], [0, 0, 1e300]], 2, 2, "(2, 2)"),
        ([[0, 1e300, 0], [1e-300, 0, 0], [0, 0, 1e300]], 2, 1, "(1, 2)"),
    ],
    ids=["diagonal", "transposed"],
)
def test_element_inverse_names_an_overflowing_entry(rows, p, q, named):
    # the determinant is finite; the cofactor of a[p, q] overflows, and the
    # entry it feeds is (q, p), as general_inverse names it
    a = Matrix.from_rows(rows)
    message = rf"inverse entry \({named[1:-1]}\) overflowed"
    with pytest.raises(DomainError, match=message):
        element_inverse(a, p, q)
    with pytest.raises(DomainError, match=message):
        general_inverse(a)


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
