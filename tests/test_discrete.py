"""Step/delta functions and their standard-function encodings."""

import math

import pytest
from hypothesis import given, strategies as st

from minorform import (
    DomainError,
    ReprKind,
    bessel_j0,
    conformance_report,
    gamma_int,
    heav,
    kron,
    repr_delta,
    repr_heav,
)
from minorform.discrete import (
    BESSEL_J0_FIRST_ZERO,
    HERMITE_HE2_FIRST_ZERO,
    _VARIANTS,
    _gamma_parity_sign,
    _parity_sign,
    _survivor_heav,
    hermite_he2,
)

ENCODED = [ReprKind.GAMMA, ReprKind.COSINE, ReprKind.BESSEL, ReprKind.HERMITE]

# frozen from a high-precision evaluation of J0
J0_AT_ONE = 0.76519768655796655145
J0_AT_TWELVE = 0.047689310796833536624


def test_kron_basics():
    assert kron(0) == 1
    assert all(kron(z) == 0 for z in (-3, -1, 1, 2, 17))


def test_heav_basics():
    assert heav(0) == 1  # the step is closed on the left
    assert all(heav(z) == 1 for z in (1, 2, 40))
    assert all(heav(z) == 0 for z in (-1, -2, -40))


@given(st.integers(min_value=-50, max_value=50))
def test_kron_is_backward_difference_of_heav(z):
    assert kron(z) == heav(z) - heav(z - 1)
    assert kron(z + 1) == heav(z + 1) - heav(z)


@given(st.integers(min_value=-10, max_value=10))
def test_heav_is_truncated_sum_of_kron(z):
    assert heav(z) == sum(kron(z - s) for s in range(0, max(z, 0) + 1))


def test_gamma_int_exact_values():
    assert [gamma_int(n) for n in range(1, 7)] == [1, 1, 2, 6, 24, 120]
    assert gamma_int(15) == math.factorial(14)


@pytest.mark.parametrize("bad", [0, -1, -7])
def test_gamma_int_rejects_poles(bad):
    with pytest.raises(DomainError):
        gamma_int(bad)


def test_gamma_int_rejects_non_integers():
    with pytest.raises(DomainError):
        gamma_int(2.5)
    with pytest.raises(DomainError):
        gamma_int(True)


def test_repr_heav_refuses_an_encoding_that_is_not_a_member():
    with pytest.raises(DomainError, match="encoding must be a ReprKind, got 'gamma'"):
        repr_heav(1, 2, "gamma")


def test_bessel_j0_reference_points():
    assert bessel_j0(0.0) == 1.0
    assert abs(bessel_j0(1.0) - J0_AT_ONE) < 1e-13
    assert abs(bessel_j0(12.0) - J0_AT_TWELVE) < 1e-10
    assert abs(bessel_j0(BESSEL_J0_FIRST_ZERO)) < 1e-10


@given(st.floats(min_value=-12.0, max_value=12.0, allow_nan=False))
def test_bessel_j0_is_even(x):
    assert bessel_j0(x) == bessel_j0(-x)


@pytest.mark.parametrize(
    "bad", [12.5, -13.0, math.inf, math.nan, "3", True, 1j, None, pytest.param(10**400, id="10**400")]
)
def test_bessel_j0_domain(bad):
    # the argument is read by Matrix's number rule and must be real
    with pytest.raises(DomainError):
        bessel_j0(bad)


def test_direct_encoding_is_the_plain_functions():
    for z in range(-3, 6):
        for p in range(-2, 5):
            assert repr_heav(z, p, ReprKind.DIRECT) == heav(z - p)
            assert repr_delta(z, p, ReprKind.DIRECT) == kron(z - p)


@pytest.mark.parametrize("repr_kind", [ReprKind.COSINE, ReprKind.BESSEL, ReprKind.HERMITE])
def test_delta_encodings_on_the_3x3_window(repr_kind):
    for n in (1, 2, 3):
        for z in (1, 2, 3):
            assert repr_delta(z, n, repr_kind) == kron(z - n)


@pytest.mark.parametrize("repr_kind", [ReprKind.COSINE, ReprKind.BESSEL, ReprKind.HERMITE])
def test_heav_encodings_on_the_3x3_window(repr_kind):
    for p in (2, 3):
        for z in (1, 2, 3):
            assert repr_heav(z, p, repr_kind) == heav(z - p)


def test_gamma_delta_small_window_and_general_form():
    for z in (1, 2, 3):
        assert repr_delta(z, 1, ReprKind.GAMMA) == kron(z - 1)
    # factorial-parity form reaches arbitrary z >= 1 for shifts 1 and 2
    for n in (1, 2):
        for z in range(1, 13):
            assert repr_delta(z, n, ReprKind.GAMMA) == kron(z - n)


def test_gamma_heav_all_declared_windows():
    for p in (2, 3):
        for z in range(1, 13):
            assert repr_heav(z, p, ReprKind.GAMMA) == heav(z - p)
    for z in (1, 2, 3, 4):
        assert repr_heav(z, 4, ReprKind.GAMMA) == heav(z - 4)


def test_gamma_heav_extended_closure_everywhere():
    # no gamma step form declares shift 5, so every x here is the closure's
    for x in range(-12, 13):
        assert _survivor_heav(x + 5, 5, ReprKind.GAMMA) == heav(x)


def test_gamma_parity_sign_is_the_factorials_parity():
    for m in range(1, 301):
        assert _gamma_parity_sign(m) == (-1) ** (gamma_int(m) % 2)
    for bad in (0, -1, -7):
        with pytest.raises(DomainError) as got:
            _gamma_parity_sign(bad)
        with pytest.raises(DomainError) as expected:
            gamma_int(bad)
        assert str(got.value) == str(expected.value)


def test_gamma_parity_forms_compute_no_large_factorial(monkeypatch):
    from minorform import discrete, kappa

    real = discrete.gamma_int

    def small_only(m):
        if m > 20:
            raise AssertionError(f"gamma_int({m}) computed")
        return real(m)

    monkeypatch.setattr(discrete, "gamma_int", small_only)
    assert repr_heav(10**6, 2, ReprKind.GAMMA) == 1
    assert repr_delta(10**6, 2, ReprKind.GAMMA) == 0
    assert kappa(1, 10**6, ReprKind.GAMMA) == 1
    assert kappa(10**6, 1, ReprKind.GAMMA) == 10**6 + 1  # the reflected closure


@pytest.mark.parametrize(
    "repr_kind,z,shift",
    [
        (ReprKind.COSINE, 4, 3),
        (ReprKind.BESSEL, 4, 3),
        (ReprKind.HERMITE, 0, 1),
        (ReprKind.GAMMA, 1, 3),  # no gamma delta form for shift 3
    ],
)
def test_delta_out_of_domain_is_rejected(repr_kind, z, shift):
    with pytest.raises(DomainError):
        repr_delta(z, shift, repr_kind)


@pytest.mark.parametrize(
    "repr_kind,z,shift",
    [
        (ReprKind.COSINE, 4, 2),
        (ReprKind.BESSEL, 1, 4),
        (ReprKind.HERMITE, 2, 5),
        (ReprKind.GAMMA, 0, 2),
        (ReprKind.GAMMA, 5, 4),  # reflected form stops at z = 4
    ],
)
def test_heav_out_of_domain_is_rejected(repr_kind, z, shift):
    with pytest.raises(DomainError):
        repr_heav(z, shift, repr_kind)


def test_conformance_scan_is_clean():
    report = conformance_report()
    assert report["failures"] == []
    assert report["unavailable"] == []
    # 5 delta + 6 heav domains: 3 + 24 + 9 + 9 + 9 and 6 + 24 + 4 + 6 + 6 + 6 points
    assert report["checked"] == 106


def test_each_conformance_report_is_a_copy():
    report = conformance_report()
    report["unavailable"].append("cosine/delta/cosine")
    report["failures"].append({"variant": "cosine"})
    report["checked"] = 0
    assert repr_delta(1, 1, ReprKind.COSINE) == 1
    assert conformance_report() == {"checked": 106, "failures": [], "unavailable": []}


# Reference implementation: each windowed encoding written out on its own.
# The variants evaluate one generic form per kind.
def _ref_peak(z, n):
    return ((n - 2) ** (n + 1) / 2.0) * (n - z) * (z - 2)


def _ref_delta_bessel(z, n):
    z1 = BESSEL_J0_FIRST_ZERO
    return _ref_peak(z, n) * bessel_j0(2.0 * z1) + _parity_sign(n + z) * bessel_j0((z - n) * z1)


def _ref_delta_cosine(z, n):
    return _ref_peak(z, n) * math.cos(2.0 * math.pi / 2.0) + _parity_sign(n + z) * math.cos(
        (z - n) * math.pi / 2.0
    )


def _ref_delta_hermite(z, n):
    z1 = HERMITE_HE2_FIRST_ZERO
    return -_ref_peak(z, n) * hermite_he2(2.0 * z1) - _parity_sign(n + z) * hermite_he2((z - n) * z1)


def _ref_heav_bessel(z, p):
    z1 = BESSEL_J0_FIRST_ZERO
    return 0.5 * (z - bessel_j0(0.0) + _parity_sign(p + z) * bessel_j0((z - 2) * z1))


def _ref_heav_cosine(z, p):
    return 0.5 * (z - math.cos(0.0) + _parity_sign(p + z) * math.cos((z - 2) * math.pi / 2.0))


def _ref_heav_hermite(z, p):
    z1 = HERMITE_HE2_FIRST_ZERO
    return 0.5 * (z + hermite_he2(0.0) - _parity_sign(p + z) * hermite_he2((z - 2) * z1))


WRITTEN_OUT = {
    ("delta", "bessel"): _ref_delta_bessel,
    ("delta", "cosine"): _ref_delta_cosine,
    ("delta", "hermite"): _ref_delta_hermite,
    ("heav", "bessel"): _ref_heav_bessel,
    ("heav", "cosine"): _ref_heav_cosine,
    ("heav", "hermite"): _ref_heav_hermite,
}


def _outcome(fn, z, shift):
    try:
        return repr(fn(z, shift))
    except Exception as exc:  # the error is part of the behaviour
        return (type(exc).__name__, str(exc))


@pytest.mark.parametrize("kind,name", sorted(WRITTEN_OUT))
def test_windowed_variant_is_the_written_out_formula_bit_for_bit(kind, name):
    (variant,) = [v for v in _VARIANTS if (v.kind, v.name) == (kind, name)]
    reference = WRITTEN_OUT[kind, name]
    for z in range(-3, 15):
        for shift in range(-2, 7):
            assert _outcome(variant.evaluate, z, shift) == _outcome(reference, z, shift), (z, shift)
