"""Matrix value type, minor extraction, generators, and serialization.

All public indices are 1-based: rows and columns run 1..n, matching the
index calculus used by the determinant engines. Entries are complex
throughout; real matrices simply carry zero imaginary parts. Matrices are
immutable and every operation returns a new value.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

from .errors import DomainError, ParseError
from .indices import kappa
from .rng import SplitMix64

# One-position-per-row 5x5 patterns whose determinants stay single products
# up to sign; used by the sparse smoke suite. Row i holds its value at the
# listed column.
SPARSE_PATTERNS: dict[int, tuple[int, ...]] = {
    1: (4, 2, 1, 3, 5),
    2: (1, 2, 5, 3, 4),
    3: (2, 1, 3, 5, 4),
}


def _as_complex(value) -> complex:
    if isinstance(value, bool) or not isinstance(value, (int, float, complex)):
        raise DomainError(f"matrix entries must be numbers, got {value!r}")
    return complex(value)


@dataclass(frozen=True)
class Matrix:
    """Immutable n x n complex matrix stored row-major."""

    n: int
    data: tuple[complex, ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise DomainError(f"matrix size must be a positive integer, got {self.n!r}")
        if len(self.data) != self.n * self.n:
            raise DomainError(
                f"expected {self.n * self.n} entries for a {self.n}x{self.n} matrix, got {len(self.data)}"
            )
        coerced = tuple(_as_complex(v) for v in self.data)
        for v in coerced:
            if not cmath.isfinite(v):
                raise DomainError(f"matrix entries must be finite, got {v!r}")
        object.__setattr__(self, "data", coerced)

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise DomainError("from_rows expects a non-empty square array")
        return cls(n, tuple(v for row in rows for v in row))

    def entry(self, row: int, col: int) -> complex:
        """Entry at 1-based (row, col)."""
        self._check_index("row", row)
        self._check_index("column", col)
        return self.data[(row - 1) * self.n + (col - 1)]

    def rows(self) -> list[list[complex]]:
        return [list(self.data[i * self.n : (i + 1) * self.n]) for i in range(self.n)]

    def _check_index(self, name: str, value: int) -> None:
        if not isinstance(value, int) or isinstance(value, bool) or not 1 <= value <= self.n:
            raise DomainError(f"{name} index must be in 1..{self.n}, got {value!r}")


def identity(n: int) -> Matrix:
    return Matrix(n, tuple(1.0 + 0.0j if i == j else 0.0 + 0.0j for i in range(n) for j in range(n)))


def minor_by_deletion(a: Matrix, row: int, col: int) -> Matrix:
    """Minor matrix obtained by literally removing one row and one column."""
    if a.n < 2:
        raise DomainError("a 1x1 matrix has no minors")
    a._check_index("row", row)
    a._check_index("column", col)
    kept = [
        a.entry(r, c)
        for r in range(1, a.n + 1)
        if r != row
        for c in range(1, a.n + 1)
        if c != col
    ]
    return Matrix(a.n - 1, tuple(kept))


def minor_by_formula(a: Matrix, row: int, col: int) -> Matrix:
    """Minor matrix via the survivor map, no element shifting.

    Entry (r, s) of the minor reads the source at row kappa(r, row) and
    column kappa(s, col): positions before the deleted line map to
    themselves, later ones skip past it. Each map is computed once.
    """
    if a.n < 2:
        raise DomainError("a 1x1 matrix has no minors")
    a._check_index("row", row)
    a._check_index("column", col)
    n = a.n
    rows = [(kappa(r, row) - 1) * n for r in range(1, n)]
    cols = [kappa(s, col) - 1 for s in range(1, n)]
    return Matrix(n - 1, tuple(a.data[r + s] for r in rows for s in cols))


def random_matrix(n: int, seed: int, complex_entries: bool = False) -> Matrix:
    """Matrix of standard normal entries drawn from SplitMix64(seed).

    Entries are generated row-major, real part first; the imaginary draw is
    skipped (and left at zero) unless complex entries are requested.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"matrix size must be a positive integer, got {n!r}")
    gen = SplitMix64(seed)
    entries = []
    for _ in range(n * n):
        re = gen.next_normal()
        im = gen.next_normal() if complex_entries else 0.0
        entries.append(complex(re, im))
    return Matrix(n, tuple(entries))


def sparse_case(case_id: int, values) -> Matrix:
    """5x5 matrix with one prescribed nonzero per row.

    Three fixed placement patterns; values is the per-row sequence of five
    nonzero scalars.
    """
    if case_id not in SPARSE_PATTERNS:
        raise DomainError(f"sparse case id must be 1, 2 or 3, got {case_id!r}")
    values = [_as_complex(v) for v in values]
    if len(values) != 5:
        raise DomainError(f"sparse cases take exactly 5 values, got {len(values)}")
    if any(v == 0 for v in values):
        raise DomainError("sparse case values must be nonzero")
    cols = SPARSE_PATTERNS[case_id]
    data = [0.0 + 0.0j] * 25
    for i, col in enumerate(cols):
        data[i * 5 + (col - 1)] = values[i]
    return Matrix(5, tuple(data))


def _format_float(x: float) -> str:
    # 17 significant digits round-trips every binary64 exactly
    return format(x, ".16e")


def write_matrix(a: Matrix) -> bytes:
    """Serialize to canonical one-line JSON with exact float round-trip."""
    re_rows = ", ".join(
        "[" + ", ".join(_format_float(a.entry(r, c).real) for c in range(1, a.n + 1)) + "]"
        for r in range(1, a.n + 1)
    )
    im_rows = ", ".join(
        "[" + ", ".join(_format_float(a.entry(r, c).imag) for c in range(1, a.n + 1)) + "]"
        for r in range(1, a.n + 1)
    )
    return f'{{"n": {a.n}, "re": [{re_rows}], "im": [{im_rows}]}}'.encode("ascii")


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ParseError(f"{where} is out of floating-point range") from None
    if not math.isfinite(value):
        raise ParseError(f"{where} must be finite, got {value!r}")
    return value


def _parse_component(obj: dict, key: str, n: int, required: bool) -> list[list[float]] | None:
    if key not in obj:
        if required:
            raise ParseError(f'missing required key "{key}"')
        return None
    rows = obj[key]
    if not isinstance(rows, list) or len(rows) != n:
        raise ParseError(f'"{key}" must be a list of {n} rows')
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f'"{key}"[{i}] must be a list of {n} numbers')
        out.append([_require_number(v, f'"{key}"[{i}][{j}]') for j, v in enumerate(row)])
    return out


def parse_matrix(text: bytes | str) -> Matrix:
    """Parse the JSON matrix format; errors carry line/column when known.

    Layout: {"n": N, "re": [[...]], "im": [[...]]} with "im" optional
    (missing means all-zero imaginary parts).
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise ParseError("a number in the input is out of range") from exc
    except RecursionError as exc:
        raise ParseError("the input nests too deeply") from exc
    if not isinstance(obj, dict):
        raise ParseError("top level must be a JSON object")
    unknown = sorted(set(obj) - {"n", "re", "im"})
    if unknown:
        raise ParseError(f"unknown keys: {', '.join(unknown)}")
    n = obj.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ParseError(f'"n" must be a positive integer, got {n!r}')
    re_rows = _parse_component(obj, "re", n, required=True)
    im_rows = _parse_component(obj, "im", n, required=False)
    if im_rows is None:
        im_rows = [[0.0] * n for _ in range(n)]
    data = tuple(
        complex(re_rows[i][j], im_rows[i][j]) for i in range(n) for j in range(n)
    )
    return Matrix(n, data)
