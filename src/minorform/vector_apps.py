"""Vector-calculus applications of the factorial index encoding.

The curl in orthogonal curvilinear coordinates and the scalar triple
product are both 3x3 determinant expansions; here their row/column
subscripts are generated arithmetically from gamma-function values instead
of being written out, so each identity is a two-term sum per component.
"""

from __future__ import annotations

import cmath
import math

from .discrete import gamma_int
from .errors import DomainError, FrozenRecord, _as_complex

Vec3 = tuple[complex, complex, complex]


def _require_finite(values, what: str) -> None:
    for v in values:
        if not cmath.isfinite(v):
            raise DomainError(f"{what} {v!r} is not finite")


def _index_pair(l: int, j: int) -> tuple[int, int]:
    # row reads the scaled field component, column the coordinate it is
    # differentiated against; gamma(l) = (l-1)! supplies the permutation
    swing = (-1) ** j * gamma_int(l) + j * (l + 2)
    return 2 + swing - l, 4 - swing


class CurlInput(FrozenRecord):
    """Scale factors h1..h3 and the 3x3 array of scaled-field partials.

    partials[a-1][b-1] holds the derivative of (h_a A_a) along coordinate b.
    """

    __slots__ = ("scale_factors", "partials")

    def __init__(
        self,
        scale_factors: tuple[float, float, float],
        partials: tuple[tuple[complex, complex, complex], ...],
    ):
        try:
            h = tuple(map(_as_complex, scale_factors))
            rows = tuple(tuple(map(_as_complex, row)) for row in partials)
        except TypeError as exc:
            raise DomainError(f"curl input is not numeric: {exc}") from exc
        if len(h) != 3 or any(v.imag or not v.real > 0 for v in h):
            raise DomainError(f"scale factors must be three positive reals, got {scale_factors!r}")
        h = tuple(v.real for v in h)
        volume = h[0] * h[1] * h[2]
        if not 0 < volume < math.inf:
            raise DomainError(f"scale factor product {volume!r} is not a positive finite float")
        if len(rows) != 3 or any(len(row) != 3 for row in rows):
            raise DomainError("partials must form a 3x3 array")
        _require_finite((v for row in rows for v in row), "partial")
        object.__setattr__(self, "scale_factors", h)
        object.__setattr__(self, "partials", rows)


def curl_components(inp: CurlInput) -> Vec3:
    """Curl components from the two-term gamma-indexed sum."""
    h1, h2, h3 = inp.scale_factors
    volume = h1 * h2 * h3
    out = []
    for l in (1, 2, 3):
        total = 0.0 + 0.0j
        for j in (0, 1):
            row, col = _index_pair(l, j)
            term = inp.partials[row - 1][col - 1]
            total += term if (j + l) % 2 == 0 else -term
        out.append(inp.scale_factors[l - 1] / volume * total)
    _require_finite(out, "curl component")
    return tuple(out)


def scalar_triple(a, b, c) -> complex:
    """Signed volume a . (b x c) via the same gamma-indexed expansion."""
    try:
        a, b, c = (tuple(map(_as_complex, v)) for v in (a, b, c))
    except TypeError as exc:
        raise DomainError(f"vector input is not numeric: {exc}") from exc
    if len(a) != 3 or len(b) != 3 or len(c) != 3:
        raise DomainError("scalar_triple takes three 3-component vectors")
    _require_finite(a + b + c, "vector component")
    total = 0.0 + 0.0j
    for l in (1, 2, 3):
        for j in (0, 1):
            row, col = _index_pair(l, j)
            term = a[l - 1] * b[col - 1] * c[row - 1]
            total += term if (j + l) % 2 == 0 else -term
    _require_finite((total,), "scalar triple product")
    return total
