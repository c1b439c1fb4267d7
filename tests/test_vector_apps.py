"""Gamma-indexed curl and scalar triple product against direct expansions."""

import pytest
from hypothesis import given, strategies as st

from minorform import (
    CurlInput,
    DomainError,
    Matrix,
    closed_form_det,
    curl_components,
    scalar_triple,
    SplitMix64,
)

ATOL = 1e-13

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
vec = st.tuples(finite, finite, finite)


def curl_expanded(inp):
    """Hand-written six-term expansion, the reference the sum must match."""
    h1, h2, h3 = inp.scale_factors
    d = inp.partials
    v = h1 * h2 * h3
    return (
        h1 / v * (d[2][1] - d[1][2]),
        h2 / v * (d[0][2] - d[2][0]),
        h3 / v * (d[1][0] - d[0][1]),
    )


def cross_dot(a, b, c):
    bc = (
        b[1] * c[2] - b[2] * c[1],
        b[2] * c[0] - b[0] * c[2],
        b[0] * c[1] - b[1] * c[0],
    )
    return a[0] * bc[0] + a[1] * bc[1] + a[2] * bc[2]


def test_curl_single_partial():
    # only d(h3 A3)/du2 is nonzero: pure first component
    partials = ((0, 0, 0), (0, 0, 0), (0, 1, 0))
    out = curl_components(CurlInput((1, 1, 1), partials))
    assert out == (1 + 0j, 0j, 0j)


def test_curl_zero_field():
    out = curl_components(CurlInput((2, 3, 4), ((0,) * 3,) * 3))
    assert out == (0j, 0j, 0j)


def test_curl_scale_factors_divide_through():
    partials = tuple(tuple(complex(3 * r + c + 1) for c in range(3)) for r in range(3))
    plain = curl_components(CurlInput((1, 1, 1), partials))
    scaled = curl_components(CurlInput((2, 2, 2), partials))
    for p, s in zip(plain, scaled):
        assert abs(s - p / 4) <= ATOL  # h_l / (h1 h2 h3) shrinks by 4


def test_curl_matches_expansion_on_many_draws():
    gen = SplitMix64(314)
    for _ in range(300):
        h = tuple(abs(gen.next_normal()) + 0.1 for _ in range(3))
        partials = tuple(tuple(gen.next_normal() for _ in range(3)) for _ in range(3))
        inp = CurlInput(h, partials)
        got = curl_components(inp)
        expected = curl_expanded(inp)
        assert max(abs(g - e) for g, e in zip(got, expected)) <= ATOL


@given(
    st.tuples(
        st.floats(min_value=0.1, max_value=10),
        st.floats(min_value=0.1, max_value=10),
        st.floats(min_value=0.1, max_value=10),
    ),
    st.tuples(vec, vec, vec),
)
def test_curl_matches_expansion_property(h, partials):
    inp = CurlInput(h, partials)
    got = curl_components(inp)
    expected = curl_expanded(inp)
    scale = max(1.0, max(abs(e) for e in expected))
    assert max(abs(g - e) for g, e in zip(got, expected)) <= 1e-10 * scale


def test_curl_input_validation():
    with pytest.raises(DomainError):
        CurlInput((1, 1, 0), ((0,) * 3,) * 3)  # zero scale factor
    with pytest.raises(DomainError):
        CurlInput((1, 1), ((0,) * 3,) * 3)
    with pytest.raises(DomainError):
        CurlInput((1, 1, 1), ((0,) * 3,) * 2)
    with pytest.raises(DomainError):
        CurlInput((1, 1, 1), (("a",) * 3,) * 3)
    with pytest.raises(DomainError, match="not numeric"):
        CurlInput(5, ((0,) * 3,) * 3)  # not a sequence
    with pytest.raises(DomainError):
        CurlInput((1e-200, 1e-200, 1e-200), ((1,) * 3,) * 3)  # h1 h2 h3 underflows to 0
    with pytest.raises(DomainError):
        CurlInput((1e200, 1e200, 1), ((1,) * 3,) * 3)  # h1 h2 h3 overflows
    with pytest.raises(DomainError):
        CurlInput((1, 1, 1), ((0, float("nan"), 0), (0,) * 3, (0,) * 3))
    with pytest.raises(DomainError, match="not finite"):
        curl_components(CurlInput((1e-150, 1e-150, 1e300), ((0, 0, 0), (1e300, 0, 0), (0, 0, 0))))


@pytest.mark.parametrize("bad", ["1", True])
def test_components_are_numbers_by_the_matrix_rule(bad):
    # strings and bools are refused, as Matrix refuses them
    with pytest.raises(DomainError, match="must be numbers"):
        scalar_triple((bad, 2, 3), (0, 1, 0), (0, 0, 1))
    with pytest.raises(DomainError, match="must be numbers"):
        CurlInput((bad, 1, 1), ((0,) * 3,) * 3)
    with pytest.raises(DomainError, match="must be numbers"):
        CurlInput((1, 1, 1), ((bad, 0, 0), (0,) * 3, (0,) * 3))


def test_scalar_triple_refuses_a_vector_that_is_not_a_sequence():
    with pytest.raises(DomainError, match="not numeric"):
        scalar_triple(5, (0, 1, 0), (0, 0, 1))


def test_scale_factors_are_real():
    with pytest.raises(DomainError, match="positive reals"):
        CurlInput((1j, 1, 1), ((0,) * 3,) * 3)
    assert CurlInput((2 + 0j, 1, 1), ((0,) * 3,) * 3).scale_factors == (2.0, 1.0, 1.0)


def test_scalar_triple_refuses_an_int_beyond_float_range():
    with pytest.raises(DomainError, match="floating-point range"):
        scalar_triple((10**400, 0, 0), (0, 1, 0), (0, 0, 1))


def test_scalar_triple_unit_vectors():
    assert scalar_triple((1, 0, 0), (0, 1, 0), (0, 0, 1)) == 1
    assert scalar_triple((0, 1, 0), (1, 0, 0), (0, 0, 1)) == -1


def test_scalar_triple_degenerate_is_zero():
    assert scalar_triple((1, 2, 3), (1, 2, 3), (4, 5, 6)) == 0
    assert scalar_triple((1, 2, 3), (2, 4, 6), (4, 5, 6)) == 0


def test_scalar_triple_matches_cross_dot_on_many_draws():
    gen = SplitMix64(2718)
    for _ in range(300):
        a, b, c = (tuple(gen.next_normal() for _ in range(3)) for _ in range(3))
        got = scalar_triple(a, b, c)
        expected = cross_dot(a, b, c)
        assert abs(got - expected) <= ATOL * max(1.0, abs(expected))


def cubed_scale(*vectors):
    # products of three components bound the rounding error of the sums
    biggest = max((abs(x) for v in vectors for x in v), default=1.0)
    return max(1.0, biggest) ** 3


@given(vec, vec, vec)
def test_scalar_triple_alternates_under_swap(a, b, c):
    forward = scalar_triple(a, b, c)
    swapped = scalar_triple(b, a, c)
    assert abs(forward + swapped) <= 1e-12 * cubed_scale(a, b, c)


@given(vec, vec, vec)
def test_scalar_triple_is_the_row_determinant(a, b, c):
    det = closed_form_det(Matrix.from_rows([a, b, c]))
    value = scalar_triple(a, b, c)
    assert abs(det - value) <= 1e-12 * cubed_scale(a, b, c)


def test_scalar_triple_accepts_complex_components():
    value = scalar_triple((1j, 0, 0), (0, 1, 0), (0, 0, 1))
    assert value == 1j


def test_scalar_triple_validation():
    with pytest.raises(DomainError):
        scalar_triple((1, 2), (0, 1, 0), (0, 0, 1))
    with pytest.raises(DomainError):
        scalar_triple((1, 2, "x"), (0, 1, 0), (0, 0, 1))
    with pytest.raises(DomainError):
        scalar_triple((float("nan"), 1, 1), (1, 1, 1), (1, 1, 1))
    with pytest.raises(DomainError):
        scalar_triple((float("inf"), 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(DomainError, match="not finite"):
        scalar_triple((1e200, 1, 1), (1, 1e200, 1), (1, 1, 1e200))
