"""Discrete generalized functions and their standard-function encodings.

`kron` and `heav` are the normative integer definitions. The encodings
rebuild the same 0/1 values out of ordinary functions (factorials,
the Bessel function J0, a cosine, a Hermite polynomial), each valid on
a bounded integer domain. An encoding is evaluated as a real number,
rounded to the nearest integer, and rejected if the residual exceeds
the evaluator tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, unique
from functools import cache, partial
from typing import Callable, Iterator

from .errors import DomainError, RepresentationMismatchError

# Residual tolerances: the encodings only need to be exact after integer
# rounding; the Bessel ones inherit the series evaluator's error.
CLOSED_FORM_TOLERANCE = 1e-9
BESSEL_TOLERANCE = 1e-6

BESSEL_J0_FIRST_ZERO = 2.4048255576957727
HERMITE_HE2_FIRST_ZERO = 1.0

_J0_SERIES_TERMS = 40
_J0_MAX_ARGUMENT = 12.0


@unique
class ReprKind(Enum):
    """Selectable encodings of the discrete index functions."""

    DIRECT = "direct"
    GAMMA = "gamma"
    COSINE = "cosine"
    BESSEL = "bessel"
    HERMITE = "hermite"


def kron(z: int) -> int:
    """Kronecker delta: 1 at z == 0, else 0."""
    return 1 if z == 0 else 0


def heav(z: int) -> int:
    """Discrete Heaviside step: 1 for z >= 0, else 0."""
    return 1 if z >= 0 else 0


def gamma_int(n: int) -> int:
    """Gamma of a positive integer, exactly: (n-1)!.

    The function has poles at zero and every negative integer, so those
    arguments are domain errors rather than values.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise DomainError(f"gamma_int expects an integer, got {n!r}")
    if n <= 0:
        raise DomainError(f"gamma_int is undefined for n <= 0, got {n}")
    return math.factorial(n - 1)


def bessel_j0(x: float) -> float:
    """J0 by truncated power series, certified on |x| <= 12.

    Sum of (-1)^m (x/2)^(2m) / (m!)^2 up to m = 40; at |x| = 12 the first
    dropped term is below 1e-30, far under the 1e-10 accuracy target.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"bessel_j0 requires a finite argument, got {x!r}")
    if abs(x) > _J0_MAX_ARGUMENT:
        raise DomainError(
            f"bessel_j0 truncation bound only certified on |x| <= {_J0_MAX_ARGUMENT}, got {x!r}"
        )
    quarter_neg_sq = -(x * x) / 4.0
    term = 1.0
    total = 1.0
    for m in range(1, _J0_SERIES_TERMS + 1):
        term *= quarter_neg_sq / (m * m)
        total += term
    return total


def hermite_he2(z: float) -> float:
    """Probabilists' Hermite polynomial of degree 2: z**2 - 1."""
    return z * z - 1.0


def _parity_sign(k: int) -> float:
    """(-1)**k for any integer k, including huge factorial values."""
    return -1.0 if k % 2 else 1.0


# ---------------------------------------------------------------------------
# Encoding variants. Each entry states its integer domain once, as the
# shifts it covers and the largest z (from z = 1 up, or unbounded), and pairs
# it with a real-valued evaluator. The gamma evaluators are factorial forms
# of their own; Bessel, cosine and Hermite are one window construction over
# (f, z1), an even f with f(0) = 1 and first zero z1, bound per row. Membership
# and the conformance scan both come from the domain; the scan stops unbounded
# domains at _GAMMA_GENERAL_SCAN_LIMIT. Variants are scanned once per process
# against kron/heav; one that fails anywhere is marked unavailable and calls
# to it raise, keeping the direct form normative.
# ---------------------------------------------------------------------------


def _delta_gamma_factorial(z: int, n: int) -> float:
    # gamma(z) - z + 1 reproduces the delta against n = 1 on z in {1,2,3}
    return float(gamma_int(z) - z + 1)


def _delta_gamma_parity(z: int, n: int) -> float:
    # half the difference of consecutive factorial parities, shifted by n
    return (_parity_sign(gamma_int(z - n + 3)) - _parity_sign(gamma_int(z - n + 2))) / 2.0


def _delta_windowed(f: Callable[[float], float], z1: float, z: int, n: int) -> float:
    # f even, f(0) = 1, f(z1) = 0: f((z - n) z1) is the delta for |z - n| <= 1;
    # at |z - n| = 2 the peak coefficient is -1 and cancels f(2 z1)
    peak = ((n - 2) ** (n + 1) / 2.0) * (n - z) * (z - 2)
    return peak * f(2.0 * z1) + _parity_sign(n + z) * f((z - n) * z1)


def _heav_gamma_linear(z: int, p: int) -> float:
    # z - gamma(z) steps at 2; gamma(z) - 1 steps at 3 (z in {1,2,3})
    if p == 2:
        return float(z - gamma_int(z))
    return float(gamma_int(z) - 1)


def _heav_gamma_parity(z: int, p: int) -> float:
    return (1.0 + _parity_sign(gamma_int(z - p + 3))) / 2.0


def _heav_gamma_reflected(z: int, p: int) -> float:
    # reflected factorial-parity form; steps at p = 4 on z in {1..4}
    return (1.0 - _parity_sign(gamma_int(6 - z))) / 2.0


def _heav_windowed(f: Callable[[float], float], z1: float, z: int, p: int) -> float:
    # the same window, halved: steps at p in {2, 3} on z in {1, 2, 3}
    return 0.5 * (z - f(0.0) + _parity_sign(p + z) * f((z - 2) * z1))


def _neg_hermite_he2(z: float) -> float:
    """-He2, the Hermite window: even, 1 at 0, first zero at 1."""
    return -hermite_he2(z)


@dataclass(frozen=True)
class _Variant:
    name: str
    kind: str  # "delta" | "heav"
    repr_kind: ReprKind
    shifts: tuple[int, ...]
    z_max: int | None  # largest z of the domain; None for every z >= 1
    evaluate: Callable[[int, int], float]
    tolerance: float = CLOSED_FORM_TOLERANCE

    def member(self, z: int, shift: int) -> bool:
        return shift in self.shifts and z >= 1 and (self.z_max is None or z <= self.z_max)

    def scan_domain(self) -> Iterator[tuple[int, int]]:
        """The finite (z, shift) points of the conformance scan, shift-major."""
        top = _GAMMA_GENERAL_SCAN_LIMIT if self.z_max is None else self.z_max
        return ((z, shift) for shift in self.shifts for z in range(1, top + 1))


_GAMMA_GENERAL_SCAN_LIMIT = 12  # unbounded-domain variants are scanned this far

# (f, z1) of each windowed encoding
_J0 = (bessel_j0, BESSEL_J0_FIRST_ZERO)
_COS = (math.cos, math.pi / 2)
_HE2 = (_neg_hermite_he2, HERMITE_HE2_FIRST_ZERO)

# Order matters: a point in several domains takes the first matching variant,
# so the bounded forms come before the general parity forms.
_VARIANTS: tuple[_Variant, ...] = (
    _Variant("gamma-factorial", "delta", ReprKind.GAMMA, (1,), 3, _delta_gamma_factorial),
    _Variant("gamma-parity", "delta", ReprKind.GAMMA, (1, 2), None, _delta_gamma_parity),
    _Variant("bessel", "delta", ReprKind.BESSEL, (1, 2, 3), 3, partial(_delta_windowed, *_J0), BESSEL_TOLERANCE),
    _Variant("cosine", "delta", ReprKind.COSINE, (1, 2, 3), 3, partial(_delta_windowed, *_COS)),
    _Variant("hermite", "delta", ReprKind.HERMITE, (1, 2, 3), 3, partial(_delta_windowed, *_HE2)),
    _Variant("gamma-linear", "heav", ReprKind.GAMMA, (2, 3), 3, _heav_gamma_linear),
    _Variant("gamma-parity", "heav", ReprKind.GAMMA, (2, 3), None, _heav_gamma_parity),
    _Variant("gamma-reflected", "heav", ReprKind.GAMMA, (4,), 4, _heav_gamma_reflected),
    _Variant("bessel", "heav", ReprKind.BESSEL, (2, 3), 3, partial(_heav_windowed, *_J0), BESSEL_TOLERANCE),
    _Variant("cosine", "heav", ReprKind.COSINE, (2, 3), 3, partial(_heav_windowed, *_COS)),
    _Variant("hermite", "heav", ReprKind.HERMITE, (2, 3), 3, partial(_heav_windowed, *_HE2)),
)


@cache
def conformance_report() -> dict:
    """Scan every encoding variant over its declared domain, once per process.

    Returns {"checked": int, "failures": [...], "unavailable": [...]}. A
    failure records any point where the rounded encoding disagrees with
    kron/heav or the residual exceeds tolerance. Variants with failures
    are listed as unavailable and their evaluation raises, keeping the
    direct form normative.
    """
    checked = 0
    failures = []
    for variant in _VARIANTS:
        reference = kron if variant.kind == "delta" else heav
        for z, shift in variant.scan_domain():
            checked += 1
            raw = variant.evaluate(z, shift)
            rounded = round(raw)
            expected = reference(z - shift)
            if abs(raw - rounded) >= variant.tolerance or rounded != expected:
                failures.append(
                    {
                        "kind": variant.kind,
                        "repr": variant.repr_kind.value,
                        "variant": variant.name,
                        "z": z,
                        "shift": shift,
                        "raw": raw,
                        "expected": expected,
                    }
                )
    unavailable = sorted({f"{f['repr']}/{f['kind']}/{f['variant']}" for f in failures})
    return {"checked": checked, "failures": failures, "unavailable": unavailable}


def _evaluate_variant(kind: str, z: int, shift: int, repr_kind: ReprKind) -> int:
    # the first match wins, so a bounded form is preferred over a general parity form
    variant = next(
        (v for v in _VARIANTS if v.kind == kind and v.repr_kind is repr_kind and v.member(z, shift)),
        None,
    )
    if variant is None:
        raise DomainError(
            f"({z=}, shift={shift}) is outside every declared {repr_kind.value} domain for {kind}"
        )
    key = f"{repr_kind.value}/{kind}/{variant.name}"
    if key in conformance_report()["unavailable"]:
        raise RepresentationMismatchError(f"{key} failed its truth-table scan; direct form is normative")
    return _round_step(variant.evaluate(z, shift), variant.tolerance, f"{key} at (z={z}, shift={shift})")


def _round_step(raw: float, tolerance: float, where: str) -> int:
    """raw rounded to its 0/1 step value, or RepresentationMismatchError."""
    rounded = round(raw)
    if abs(raw - rounded) >= tolerance or rounded not in (0, 1):
        raise RepresentationMismatchError(
            f"{where} evaluated to {raw!r}, which does not round to a step value"
        )
    return int(rounded)


def repr_delta(z: int, n: int, repr_kind: ReprKind) -> int:
    """Kronecker delta of (z - n) computed through the chosen encoding."""
    if repr_kind is ReprKind.DIRECT:
        return kron(z - n)
    return _evaluate_variant("delta", z, n, repr_kind)


def repr_heav(z: int, p: int, repr_kind: ReprKind) -> int:
    """Heaviside step of (z - p) computed through the chosen encoding."""
    if repr_kind is ReprKind.DIRECT:
        return heav(z - p)
    return _evaluate_variant("heav", z, p, repr_kind)


def _heav_gamma_extended(x: int) -> int:
    """Heaviside of any integer through factorial parities alone.

    Shift/reflection closure of the two gamma step forms: arguments from -2
    upward are the parity form at shift 2, anything lower the reflected form
    at shift 4, whose factorial argument stays positive. Used by
    `indices.kappa`, whose survivor steps in the determinant expansion
    reach outside the public encoding domains.
    """
    if x >= -2:
        value = _heav_gamma_parity(x + 2, 2)
    else:
        value = _heav_gamma_reflected(x + 4, 4)
    return _round_step(value, CLOSED_FORM_TOLERANCE, f"gamma step closure at {x}")
