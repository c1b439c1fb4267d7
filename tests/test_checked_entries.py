"""Matrices built without Matrix's entry checks hold what the checks would
give: an n * n tuple of finite, exact `complex` entries, which Matrix(n, data)
then keeps as it is, signed zeros included."""

import json
import random

import pytest

from minorform import (
    Matrix,
    closed_form_inverse,
    cofactor_inverse,
    gauss_inverse,
    general_inverse,
    minor_by_deletion,
    minor_by_formula,
    parse_matrix,
    random_matrix,
)


def assert_checked_form(m, n):
    assert m.n == n and type(m.data) is tuple and len(m.data) == n * n
    assert all(type(v) is complex for v in m.data)
    # the checked constructor neither coerces nor refuses these entries
    again = Matrix(n, m.data)
    assert again.data is m.data and again == m


def sources(n):
    # a real draw, a complex one, and the complex one with about a third of
    # its parts, and every zero part, set to +0.0 or -0.0 at random
    real = random_matrix(n, seed=10 + n)
    plain = random_matrix(n, seed=20 + n, complex_entries=True)
    pick = random.Random(n)

    def part(x):
        return pick.choice((0.0, -0.0)) if x == 0 or pick.random() < 1 / 3 else x

    zeros = Matrix(n, tuple(complex(part(v.real), part(v.imag)) for v in plain.data))
    return {"real": real, "complex": plain, "signed zeros": zeros}


@pytest.mark.parametrize("n", range(2, 9))
def test_minors_are_checked_matrices_of_their_source_entries(n):
    for kind, a in sources(n).items():
        for r in range(1, n + 1):
            for s in range(1, n + 1):
                by_formula, by_deletion = minor_by_formula(a, r, s), minor_by_deletion(a, r, s)
                assert_checked_form(by_formula, n - 1)
                assert_checked_form(by_deletion, n - 1)
                assert repr(by_formula) == repr(by_deletion), (kind, r, s)


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("n", range(1, 9))
def test_random_matrices_are_checked_matrices(n, complex_entries):
    a = random_matrix(n, seed=n, complex_entries=complex_entries)
    assert_checked_form(a, n)
    if not complex_entries:
        assert all(v.imag == 0 for v in a.data)


INVERSES = {
    "closed_form_inverse": (closed_form_inverse, range(2, 6)),
    "general_inverse": (general_inverse, range(2, 9)),
    "cofactor_inverse": (cofactor_inverse, range(2, 6)),
    "gauss_inverse": (lambda a: gauss_inverse(a).inverse, range(2, 9)),
}


@pytest.mark.filterwarnings("ignore::minorform.NearSingularWarning")
@pytest.mark.parametrize("engine", sorted(INVERSES))
def test_inverse_results_are_checked_matrices(engine):
    invert, sizes = INVERSES[engine]
    for n in sizes:
        for a in sources(n).values():
            assert_checked_form(invert(a), n)


@pytest.mark.parametrize("with_im", [False, True])
def test_parsed_matrices_are_checked_matrices(with_im):
    a = sources(3)["signed zeros"]
    payload = {"n": 3, "re": [[v.real for v in row] for row in a.rows()]}
    if with_im:
        payload["im"] = [[v.imag for v in row] for row in a.rows()]
    m = parse_matrix(json.dumps(payload))
    assert_checked_form(m, 3)
    expected = a.data if with_im else tuple(complex(v.real, 0.0) for v in a.data)
    assert repr(m.data) == repr(expected)
