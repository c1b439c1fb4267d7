"""Matrix value type, minor extraction, generators, and serialization.

All public indices are 1-based: rows and columns run 1..n, matching the
index calculus used by the determinant engines. Entries are complex
throughout; real matrices simply carry zero imaginary parts. Matrices are
immutable and every operation returns a new value.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from operator import itemgetter

from .errors import DomainError, FrozenRecord, ParseError, _as_complex, _check_integer
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


class Matrix(FrozenRecord):
    """Immutable n x n complex matrix stored row-major.

    `Matrix(n, data)` checks everything: n is a positive integer, data holds
    n * n numbers, each is stored as an exact `complex` in a tuple, and each
    is finite. `from_rows`, `identity`, `sparse_case`, `gauss_inverse` and
    user code go through it. `Matrix._of_checked(n, data)` skips those scans
    and is kept for callers whose entries hold by construction: minors
    select a Matrix's own entries, Box-Muller normals are finite, the parser
    has refused every non-finite number, and the inverse engines scan their
    quotients themselves to name an overflowing entry.
    """

    __slots__ = ("n", "data")

    def __init__(self, n: int, data: tuple[complex, ...]):
        _check_integer(n, "matrix size", 1)
        if len(data) != n * n:
            raise DomainError(f"expected {n * n} entries for a {n}x{n} matrix, got {len(data)}")
        if type(data) is not tuple or {*map(type, data)} != {complex}:
            data = tuple(_as_complex(v) for v in data)
        if not all(map(cmath.isfinite, data)):
            bad = next(v for v in data if not cmath.isfinite(v))
            raise DomainError(f"matrix entries must be finite, got {bad!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "data", data)

    @classmethod
    def _of_checked(cls, n: int, data: tuple[complex, ...]) -> "Matrix":
        """The n x n Matrix of data, a tuple of n * n finite exact complex values; nothing is checked."""
        m = object.__new__(cls)
        _set_n(m, n)
        _set_data(m, data)
        return m

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        try:
            rows = [list(r) for r in rows]
        except TypeError:  # rows, or one of them, is not iterable
            rows = []
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise DomainError("from_rows expects a non-empty square array")
        return cls(n, tuple(v for row in rows for v in row))

    def entry(self, row: int, col: int) -> complex:
        """Entry at 1-based (row, col)."""
        _check_integer(row, "row index", 1, self.n)
        _check_integer(col, "column index", 1, self.n)
        return self.data[(row - 1) * self.n + (col - 1)]

    def rows(self) -> list[list[complex]]:
        return [list(self.data[i * self.n : (i + 1) * self.n]) for i in range(self.n)]


_set_n, _set_data = Matrix.n.__set__, Matrix.data.__set__


def identity(n: int) -> Matrix:
    return Matrix(n, tuple(1.0 + 0.0j if i == j else 0.0 + 0.0j for i in range(n) for j in range(n)))


def minor_by_deletion(a: Matrix, row: int, col: int) -> Matrix:
    """Minor matrix obtained by literally removing one row and one column.

    Its entries are a selection of `a`'s own checked data.
    """
    if a.n < 2:
        raise DomainError("a 1x1 matrix has no minors")
    _check_integer(row, "row index", 1, a.n)
    _check_integer(col, "column index", 1, a.n)
    n, data = a.n, a.data
    kept = [
        data[(r - 1) * n + (c - 1)]
        for r in range(1, n + 1)
        if r != row
        for c in range(1, n + 1)
        if c != col
    ]
    return Matrix._of_checked(n - 1, tuple(kept))


@lru_cache(maxsize=1024)
def _minor_offsets(n: int, row: int, col: int) -> itemgetter:
    """Reader of the flat source offsets of the (row, col) minor of an n x n matrix.

    It returns the minor's entries row-major as a tuple, a 1-tuple at n = 2.
    """
    cols = [kappa(s, col) - 1 for s in range(1, n)]
    offsets = [(kappa(r, row) - 1) * n + c for r in range(1, n) for c in cols]
    if n == 2:
        return itemgetter(slice(offsets[0], offsets[0] + 1))
    return itemgetter(*offsets)


def minor_by_formula(a: Matrix, row: int, col: int) -> Matrix:
    """Minor matrix via the survivor map, no element shifting.

    Entry (r, s) of the minor reads the source at row kappa(r, row) and
    column kappa(s, col): positions before the deleted line map to
    themselves, later ones skip past it. Offsets are cached per (n, row, col),
    and the entries are a selection of `a`'s own checked data.
    """
    if a.n < 2:
        raise DomainError("a 1x1 matrix has no minors")
    _check_integer(row, "row index", 1, a.n)
    _check_integer(col, "column index", 1, a.n)
    return Matrix._of_checked(a.n - 1, _minor_offsets(a.n, row, col)(a.data))


def _check_complex_entries(complex_entries: bool) -> None:
    """complex_entries is a bool; a truthy stand-in such as "no" is refused."""
    if not isinstance(complex_entries, bool):
        raise DomainError(f"complex_entries must be a bool, got {complex_entries!r}")


def random_matrix(n: int, seed: int, complex_entries: bool = False) -> Matrix:
    """Matrix of standard normal entries drawn from SplitMix64(seed).

    Entries are generated row-major, real part first; the imaginary draw is
    skipped (and left at zero) unless complex entries are requested.
    Box-Muller normals are always finite, so the entries need no check.
    """
    _check_integer(n, "matrix size", 1)
    gen = SplitMix64(seed)
    _check_complex_entries(complex_entries)
    if complex_entries:
        draws = gen.normals(2 * n * n)
        return Matrix._of_checked(n, tuple(map(complex, draws[::2], draws[1::2])))
    return Matrix._of_checked(n, tuple(map(complex, gen.normals(n * n))))


def sparse_case(case_id: int, values) -> Matrix:
    """5x5 matrix with one prescribed nonzero per row.

    Three fixed placement patterns; values is the per-row sequence of five
    nonzero scalars.
    """
    _check_integer(case_id, "sparse case id", 1, len(SPARSE_PATTERNS))
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
    rows = a.rows()
    re_rows = ", ".join("[" + ", ".join(_format_float(v.real) for v in row) + "]" for row in rows)
    im_rows = ", ".join("[" + ", ".join(_format_float(v.imag) for v in row) + "]" for row in rows)
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
    (missing means all-zero imaginary parts). Every number has passed
    `_require_number`, so the entries are finite and need no second check.
    """
    import json  # here, not at module level: only the parser reads it, and it slows `import minorform`

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
    return Matrix._of_checked(n, data)
