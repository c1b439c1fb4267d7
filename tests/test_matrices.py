"""Matrix type, minor maps, generators, and the JSON wire format."""

import json
import math
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from minorform import (
    DomainError,
    Matrix,
    ParseError,
    heav,
    identity,
    kron,
    leibniz_det,
    minor_by_deletion,
    minor_by_formula,
    parse_matrix,
    random_matrix,
    sparse_case,
    write_matrix,
)
from minorform.matrices import SPARSE_PATTERNS


def rows_of(m):
    return [[(v.real, v.imag) for v in row] for row in m.rows()]


def test_matrix_entry_is_one_based_row_major():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    assert a.entry(1, 1) == 1
    assert a.entry(1, 2) == 2
    assert a.entry(2, 1) == 3
    with pytest.raises(DomainError):
        a.entry(0, 1)
    with pytest.raises(DomainError):
        a.entry(1, 3)


def test_matrix_validation():
    with pytest.raises(DomainError):
        Matrix(2, (1, 2, 3))  # wrong length
    with pytest.raises(DomainError):
        Matrix(0, ())
    with pytest.raises(DomainError):
        Matrix(1, (float("nan"),))
    with pytest.raises(DomainError):
        Matrix(1, (float("inf") + 0j,))
    with pytest.raises(DomainError):
        Matrix(1, ("x",))


def test_matrix_is_immutable():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    with pytest.raises(AttributeError):
        a.n = 3


def test_minor_by_deletion_shape_and_content():
    a = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    m = minor_by_deletion(a, 1, 1)
    assert rows_of(m) == [[(5, 0), (6, 0)], [(8, 0), (9, 0)]]
    m = minor_by_deletion(a, 2, 3)
    assert rows_of(m) == [[(1, 0), (2, 0)], [(7, 0), (8, 0)]]
    assert minor_by_deletion(identity(3), 2, 2).data == identity(2).data


def test_minor_maps_agree_everywhere():
    for n in range(2, 9):
        a = random_matrix(n, seed=100 + n, complex_entries=True)
        for r in range(1, n + 1):
            for c in range(1, n + 1):
                assert minor_by_formula(a, r, c).data == minor_by_deletion(a, r, c).data


def test_minor_index_map_long_and_short_forms_agree():
    # the index map can also be written with a sum of deltas instead of a
    # step; both give the same survivor index for positions >= 1
    for cut in range(1, 10):
        for t in range(1, 9):
            long_form = t + sum(kron(cut - w) for w in range(1, t + 1))
            assert long_form == t + 1 - heav(cut - t - 1)


def test_minor_rejects_bad_positions():
    a = identity(3)
    with pytest.raises(DomainError):
        minor_by_deletion(a, 4, 1)
    with pytest.raises(DomainError):
        minor_by_formula(a, 1, 0)
    with pytest.raises(DomainError):
        minor_by_deletion(identity(1), 1, 1)


def test_random_matrix_is_deterministic_and_real_by_default():
    a = random_matrix(4, seed=11)
    b = random_matrix(4, seed=11)
    assert a.data == b.data
    assert all(v.imag == 0.0 for v in a.data)
    c = random_matrix(4, seed=11, complex_entries=True)
    assert any(v.imag != 0.0 for v in c.data)
    assert random_matrix(4, seed=12).data != a.data


def test_sparse_patterns_place_one_value_per_row():
    values = (1, 2, 3, 4, 5)
    for case_id, cols in SPARSE_PATTERNS.items():
        m = sparse_case(case_id, values)
        assert m.n == 5
        assert sum(1 for v in m.data if v != 0) == 5
        for row, col in enumerate(cols, start=1):
            assert m.entry(row, col) == values[row - 1]
        assert sorted(cols) == [1, 2, 3, 4, 5]  # a permutation: det is one product
        assert leibniz_det(m) != 0


def test_sparse_case_one_has_positive_determinant():
    # frozen from the permutation oracle: the placement is an even permutation
    m = sparse_case(1, (1, 2, 3, 4, 5))
    assert leibniz_det(m) == 120


def test_sparse_case_validation():
    with pytest.raises(DomainError):
        sparse_case(4, (1, 2, 3, 4, 5))
    with pytest.raises(DomainError):
        sparse_case(1, (1, 2, 3, 4))
    with pytest.raises(DomainError):
        sparse_case(1, (1, 2, 0, 4, 5))


def test_write_matrix_format_is_stable():
    a = Matrix.from_rows([[1.0, -0.5], [0.25, 3.0]])
    text = write_matrix(a).decode("ascii")
    assert text == (
        '{"n": 2, '
        '"re": [[1.0000000000000000e+00, -5.0000000000000000e-01], '
        "[2.5000000000000000e-01, 3.0000000000000000e+00]], "
        '"im": [[0.0000000000000000e+00, 0.0000000000000000e+00], '
        "[0.0000000000000000e+00, 0.0000000000000000e+00]]}"
    )
    assert json.loads(text)["n"] == 2  # stays plain JSON


def bits(value):
    return struct.pack("<d", value)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=2**32), st.booleans())
def test_round_trip_is_bit_exact(seed, complex_entries):
    a = random_matrix(3, seed=seed, complex_entries=complex_entries)
    b = parse_matrix(write_matrix(a))
    assert b.n == a.n
    for u, v in zip(a.data, b.data):
        assert bits(u.real) == bits(v.real)
        assert bits(u.imag) == bits(v.imag)


def test_round_trip_extreme_magnitudes():
    a = Matrix.from_rows([[1e-300, 5e300], [math.pi, -2.2250738585072014e-308]])
    b = parse_matrix(write_matrix(a))
    for u, v in zip(a.data, b.data):
        assert bits(u.real) == bits(v.real)


def test_parse_accepts_missing_imaginary_block():
    m = parse_matrix(b'{"n": 2, "re": [[1, 2], [3, 4]]}')
    assert m.data == (1 + 0j, 2 + 0j, 3 + 0j, 4 + 0j)


def test_parse_reports_line_and_column_for_bad_json():
    with pytest.raises(ParseError) as err:
        parse_matrix(b'{"n": 2,\n "re": [[1, 2], [3, 4]')
    assert err.value.line == 2
    assert err.value.column is not None
    assert "line 2" in str(err.value)


@pytest.mark.parametrize(
    "payload",
    [
        b"[1, 2, 3]",  # not an object
        b'{"re": [[1]]}',  # n missing
        b'{"n": true, "re": [[1]]}',
        b'{"n": 0, "re": []}',
        b'{"n": 2, "re": [[1, 2], [3]]}',  # ragged
        b'{"n": 2, "re": [[1, 2]]}',  # short
        b'{"n": 1, "re": [["x"]]}',
        b'{"n": 1, "re": [[1]], "im": [[1, 2]]}',
        b'{"n": 1, "re": [[Infinity]]}',
        b'{"n": 1, "re": [[1]], "extra": 3}',
    ],
)
def test_parse_rejects_malformed_payloads(payload):
    with pytest.raises(ParseError):
        parse_matrix(payload)


def test_parse_rejects_non_utf8():
    with pytest.raises(ParseError):
        parse_matrix(b"\xff\xfe{}")


def test_parse_rejects_integer_beyond_float_range():
    # float() of a 400-digit integer overflows
    payload = '{"n": 1, "re": [[1' + "0" * 400 + "]]}"
    with pytest.raises(ParseError):
        parse_matrix(payload)


def test_parse_rejects_integer_beyond_json_digit_limit():
    # json.loads refuses integers past the interpreter's digit limit
    payload = '{"n": 1, "re": [[1' + "0" * 5000 + "]]}"
    with pytest.raises(ParseError):
        parse_matrix(payload.encode("ascii"))


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "re", "im", "x"]), inner, max_size=4),
)
parse_inputs = st.one_of(
    st.text(),
    st.binary(),
    json_values.map(json.dumps),
    json_values.map(lambda v: json.dumps({"n": 2, "re": v})),
    st.tuples(st.integers(1, 200_000), st.sampled_from(["[", "{", '{"n":', '{"re":['])).map(
        lambda t: t[1] * t[0]
    ),
)


@settings(max_examples=200, deadline=None)
@given(parse_inputs)
@example("[" * 100_000)
def test_parse_returns_a_matrix_or_raises_parse_or_domain_error(text):
    try:
        result = parse_matrix(text)
    except (ParseError, DomainError):
        return
    assert isinstance(result, Matrix)
