"""Command-line interface: output formats, determinism, exit codes."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import minorform
from minorform import Matrix, cli, parse_matrix, write_matrix
from minorform.cli import main

FROZEN_3X3 = Matrix.from_rows([[1, 2, 3], [0, 1, 4], [5, 6, 0]])
# a finite matrix with a finite inverse whose residual is nan
OVERFLOWING_RESIDUAL = '{"n": 2, "re": [[1e300, 1e300], [0, 1e-300]]}'
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": str(Path(minorform.__file__).parents[1])}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def matrix_file(tmp_path, matrix, name="m.json"):
    path = tmp_path / name
    path.write_bytes(write_matrix(matrix))
    return str(path)


def test_det_from_file(capsys, tmp_path):
    path = matrix_file(tmp_path, FROZEN_3X3)
    code, out, _ = run_cli(capsys, "det", "--input", path)
    assert code == 0
    assert out == "1.0000000000000000e+00 0.0000000000000000e+00\n"


def test_det_random_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "det", "--random", "5", "--seed", "42")
    code2, out2, _ = run_cli(capsys, "det", "--random", "5", "--seed", "42")
    assert code1 == code2 == 0
    assert out1 == out2
    _, other, _ = run_cli(capsys, "det", "--random", "5", "--seed", "43")
    assert other != out1


def test_det_encodings_agree_bytewise(capsys):
    outputs = set()
    for encoding in ("direct", "gamma", "cosine", "bessel", "hermite"):
        code, out, _ = run_cli(
            capsys, "det", "--random", "3", "--seed", "9", "--repr", encoding
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_det_methods_agree(capsys, tmp_path):
    path = matrix_file(tmp_path, FROZEN_3X3)
    results = {}
    for method in ("closed", "telescope", "oracle"):
        code, out, _ = run_cli(capsys, "det", "--input", path, "--method", method)
        assert code == 0
        results[method] = out
    assert len(set(results.values())) == 1


def test_det_methods_agree_on_the_sign_of_zero(capsys, tmp_path):
    # (-0.0)*1 - 1*0.0 is -0.0; every method sums from 0 + 0j, which makes it +0.0
    path = tmp_path / "m.json"
    path.write_text('{"n": 2, "re": [[-0.0, 1], [0.0, 1]]}')
    methods = ("closed", "telescope", "oracle")
    results = {run_cli(capsys, "det", "--input", str(path), "--method", m) for m in methods}
    assert results == {(0, "0.0000000000000000e+00 0.0000000000000000e+00\n", "")}


def test_invert_round_trip(capsys, tmp_path):
    path = matrix_file(tmp_path, FROZEN_3X3)
    code, out, _ = run_cli(capsys, "invert", "--input", path)
    assert code == 0
    matrix_line, residual_line = out.splitlines()
    inverse = parse_matrix(matrix_line.encode())
    assert [[v.real for v in row] for row in inverse.rows()] == [
        [-24, 18, 5],
        [20, -15, -4],
        [-5, 4, 1],
    ]
    label, value = residual_line.split()
    assert label == "residual"
    assert float(value) <= 1e-12


def test_invert_singular_exits_2(capsys, tmp_path):
    path = matrix_file(tmp_path, Matrix.from_rows([[1, 2], [2, 4]]))
    code, out, err = run_cli(capsys, "invert", "--input", path)
    assert code == 2
    assert out == ""
    assert "singular" in err


def test_invert_near_singular_warns_on_stderr(capsys, tmp_path):
    path = matrix_file(tmp_path, Matrix.from_rows([[1, 1], [1, 1 + 1e-13]]))
    code, out, err = run_cli(capsys, "invert", "--input", path)
    assert code == 0
    assert "residual" in out
    assert "warning" in err


@pytest.mark.parametrize("method", ["closed", "telescope"])
def test_row_maxima_beyond_double_range_print_no_warning(capsys, tmp_path, method):
    # the row maxima 1e300 and 1e10 multiply past double range; the
    # determinant 1e300 is far above 1e-12 of their product
    path = tmp_path / "m.json"
    path.write_text('{"n": 2, "re": [[1e300, 0], [1e10, 1]]}')
    code, out, err = run_cli(capsys, "invert", "--input", str(path), "--method", method)
    assert (code, err) == (0, "")
    assert "residual" in out


def test_minor_by_deletion_and_formula_agree(capsys, tmp_path):
    path = matrix_file(tmp_path, FROZEN_3X3)
    _, by_deletion, _ = run_cli(
        capsys, "minor", "--input", path, "--row", "2", "--col", "3"
    )
    _, by_formula, _ = run_cli(
        capsys, "minor", "--input", path, "--row", "2", "--col", "3", "--by", "formula"
    )
    assert by_deletion == by_formula
    minor = parse_matrix(by_deletion.strip().encode())
    assert [[v.real for v in row] for row in minor.rows()] == [[1, 2], [5, 6]]


def test_minor_bad_position_exits_3(capsys, tmp_path):
    path = matrix_file(tmp_path, FROZEN_3X3)
    code, _, err = run_cli(capsys, "minor", "--input", path, "--row", "9", "--col", "1")
    assert code == 3
    assert err != ""


def test_expand_exact_lines(capsys):
    code, out, _ = run_cli(capsys, "expand", "--size", "2")
    assert code == 0
    assert out == "+ 1 2\n- 2 1\n"
    code, out, _ = run_cli(capsys, "expand", "--size", "3")
    assert code == 0
    assert out.splitlines()[0] == "+ 1 2 3"
    assert len(out.splitlines()) == 6


def test_expand_unsupported_sizes_exit_4(capsys):
    assert run_cli(capsys, "expand", "--size", "1")[0] == 4
    assert run_cli(capsys, "expand", "--size", "9")[0] == 4


def test_validate_writes_csv_and_prints_summary(capsys, tmp_path):
    out_path = tmp_path / "hist.csv"
    code, out, _ = run_cli(
        capsys,
        "validate",
        "--trials", "40",
        "--size", "4",
        "--seed", "11",
        "--out", str(out_path),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["trials"] == 40
    assert summary["redraws"] == 0
    csv_text = out_path.read_text()
    lines = csv_text.splitlines()
    assert lines[0] == "bin_lo_db,bin_hi_db,count"
    assert sum(int(line.split(",")[2]) for line in lines[1:]) == 40
    # byte determinism of both outputs
    code2, out2, _ = run_cli(
        capsys,
        "validate",
        "--trials", "40",
        "--size", "4",
        "--seed", "11",
        "--out", str(out_path),
    )
    assert out2 == out
    assert out_path.read_text() == csv_text


def test_validate_rejects_bad_combo(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "validate",
        "--trials", "5",
        "--size", "6",
        "--method", "closed",
        "--out", str(tmp_path / "h.csv"),
    )
    assert code == 4
    assert "unsupported" in err


def test_sparse_check_reports_three_cases(capsys):
    code, out, _ = run_cli(capsys, "sparse-check")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert all(line.startswith(f"case {i} PASS") for i, line in enumerate(lines, 1))


def test_curl_output(capsys):
    code, out, _ = run_cli(
        capsys, "curl", "--h", "1,1,1", "--d", "0,0,0,0,0,0,0,1,0"
    )
    assert code == 0
    values = [float(v) for v in out.split()]
    assert values == [1.0, 0.0, 0.0]


def test_volume_output(capsys):
    code, out, _ = run_cli(capsys, "volume", "--a", "0,1,0", "--b", "1,0,0", "--c", "0,0,1")
    assert code == 0
    signed, absolute = (float(v) for v in out.split())
    assert signed == -1.0
    assert absolute == 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ("det",),  # no source
        ("det", "--random", "3", "--input", "x.json"),  # both sources
        ("det", "--random", "x"),
        ("minor", "--input", "nope.json", "--row", "1", "--col", "1"),  # missing file
        ("volume", "--a", "1,2", "--b", "1,0,0", "--c", "0,0,1"),  # short vector
        ("curl", "--h", "1,1,1", "--d", "1,2,3"),
        ("nonsense",),
        ("curl", "--h", "1e-200,1e-200,1e-200", "--d", "1,2,3,4,5,6,7,8,9"),  # h1 h2 h3 underflows
        ("volume", "--a", "1e200,1,1", "--b", "1,1e200,1", "--c", "1,1,1e200"),  # overflows
        ("volume", "--a", "nan,1,1", "--b", "1,1,1", "--c", "1,1,1"),
    ],
)
def test_usage_errors_exit_3(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert err != ""


@pytest.mark.parametrize(
    "argv",
    [
        ("det", "--random", "6", "--method", "closed"),
        ("det", "--random", "4", "--repr", "hermite"),
        ("det", "--random", "4", "--method", "telescope", "--repr", "gamma"),
        ("det", "--random", "10", "--method", "oracle"),
        ("invert", "--random", "9"),  # telescope default above closed sizes, cap is 8
        ("det", "--random", "1"),
        ("det", "--random", "9", "--method", "telescope"),
        ("validate", "--trials", "2", "--size", "9", "--method", "oracle", "--out", "h.csv"),
    ],
)
def test_unsupported_combinations_exit_4(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 4
    assert "unsupported" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("invert", "--random", "3", "--repr", "gamma"),
        ("validate", "--trials", "5", "--size", "3", "--out", "h.csv", "--repr", "cosine"),
    ],
)
def test_repr_is_a_det_option_only(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_volume_names_a_component_that_is_not_a_number(capsys):
    # "--a -x,0,0" never gets here: argparse takes -x for a flag
    code, out, err = run_cli(capsys, "volume", "--a=x,0,0", "--b=0,1,0", "--c=0,0,1")
    assert code == 3
    assert out == ""
    assert err == "error: --a: could not convert string to float: 'x'\n"


def test_main_reads_sys_argv_by_default(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["minorform", "expand", "--size", "2"])
    assert main() == 0
    assert capsys.readouterr().out == "+ 1 2\n- 2 1\n"


def test_the_cli_imports_from_the_standard_library_alone():
    # -S leaves site-packages off the path; dataclasses (which pulls in
    # inspect) used to be most of the package's import time
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import minorform.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    src = Path(minorform.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_importing_the_package_leaves_json_unimported():
    # only parse_matrix reads JSON, and it imports json itself; json with its
    # decoder, scanner and encoder was a measurable share of the import
    code = "import sys; sys.path.insert(0, sys.argv[1]); import minorform; print('json' in sys.modules)"
    src = Path(minorform.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


def test_help_exits_0(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "det", "--help")[0] == 0


def test_random_matrix_matches_library(capsys):
    # the CLI draw is the library draw: inverting library-written bytes of
    # the same seed gives identical output
    from minorform import random_matrix

    code, out, _ = run_cli(capsys, "det", "--random", "4", "--seed", "77", "--complex")
    assert code == 0
    from minorform import leibniz_det

    expected = leibniz_det(random_matrix(4, seed=77, complex_entries=True))
    re_str, im_str = out.split()
    assert abs(float(re_str) - expected.real) <= 1e-12 * abs(expected)
    assert abs(float(im_str) - expected.imag) <= 1e-12 * abs(expected)

GOLDEN = Path(__file__).parent / "golden"


GOLDEN_CASES = pytest.mark.parametrize(
    "name, argv",
    [
        ("det_random_5_seed_42", ("det", "--random", "5", "--seed", "42")),
        ("invert_random_5_seed_3", ("invert", "--random", "5", "--seed", "3")),
        ("invert_random_3_seed_1_complex", ("invert", "--random", "3", "--seed", "1", "--complex")),
        ("validate_trials_300_size_5_seed_4", ("validate", "--trials", "300", "--size", "5", "--seed", "4")),
        ("invert_random_8_seed_1", ("invert", "--random", "8", "--seed", "1")),
        # 25 of its fields are -0.0, a sign that == comparisons cannot see
        ("signed_zeros4", ("invert", "--input", str(GOLDEN / "signed_zeros4.json"))),
        ("sparse_check", ("sparse-check",)),
    ],
)


@GOLDEN_CASES
def test_stdout_matches_golden_bytes(capsys, tmp_path, name, argv):
    if argv[0] == "validate":
        argv += ("--out", str(tmp_path / "h.csv"))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.encode("ascii") == (GOLDEN / f"{name}.out").read_bytes()


@GOLDEN_CASES
def test_golden_commands_repeat_byte_for_byte_in_one_process(capsys, tmp_path, name, argv):
    if argv[0] == "validate":
        argv += ("--out", str(tmp_path / "h.csv"))
    first, second = run_cli(capsys, *argv), run_cli(capsys, *argv)
    assert first == second
    assert first[1].encode("ascii") == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize(
    "name, argv",
    [
        # 100 words per draw: a full 64-lane block and a 36-lane one
        ("validate_trials_200_size_5_seed_11_complex", ("--trials", "200", "--size", "5", "--seed", "11", "--complex")),
        # 128 words per draw: two full blocks
        ("validate_trials_50_size_8_telescope_seed_2", ("--trials", "50", "--size", "8", "--method", "telescope", "--seed", "2")),
    ],
)
def test_validate_stdout_and_histogram_csv_match_golden_bytes(capsys, tmp_path, name, argv):
    csv = tmp_path / "h.csv"
    code, out, _ = run_cli(capsys, "validate", *argv, "--out", str(csv))
    assert code == 0
    assert out.encode("ascii") == (GOLDEN / f"{name}.out").read_bytes()
    assert csv.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


def test_the_parser_is_built_once_and_not_at_import():
    assert cli._build_parser() is cli._build_parser()
    assert cli._build_parser.cache_info().misses <= 1
    fresh = subprocess.run(
        [sys.executable, "-c", "import minorform.cli as c; print(c._build_parser.cache_info().currsize)"],
        env=SUBPROCESS_ENV, capture_output=True, text=True, check=True,
    )
    assert fresh.stdout == "0\n"


def test_a_reused_parser_carries_nothing_between_calls(capsys, monkeypatch):
    # usage error, --help, exit 4, then a seeded draw and the default seed:
    # each must match a fresh interpreter, so no seed or value leaks forward
    monkeypatch.setenv("COLUMNS", "80")
    sequence = [
        ("det", "--random", "x"),
        ("--help",),
        ("det", "--random", "9", "--method", "closed"),
        ("det", "--random", "3", "--seed", "5"),
        ("det", "--random", "3"),
    ]
    for argv in sequence:
        code, out, _ = run_cli(capsys, *argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "minorform", *argv],
            env={**SUBPROCESS_ENV, "COLUMNS": "80"}, capture_output=True, text=True,
        )
        assert (code, out) == (fresh.returncode, fresh.stdout), argv


def test_invert_refuses_a_residual_that_is_not_finite(capsys, tmp_path):
    # the inverse is finite, but (A X)[1][2] is -inf + inf
    path = tmp_path / "m.json"
    path.write_text(OVERFLOWING_RESIDUAL)
    code, out, err = run_cli(capsys, "invert", "--input", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: residual entry (1, 2)") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, text",
    [
        # the permutation-sum determinant underflows to 0
        (("sparse-check", "--values=1e-100,1e-100,1e-100,1e-100,1e-100"), None),
        # json.loads recurses once per bracket
        (("det", "--input", "{input}"), "[" * 100_000),
    ],
    ids=["sparse-underflow", "deep-json"],
)
def test_former_tracebacks_exit_3(capsys, tmp_path, argv, text):
    if text is not None:
        path = tmp_path / "m.json"
        path.write_text(text)
        argv = tuple(str(path) if arg == "{input}" else arg for arg in argv)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_comma_lists_may_start_with_a_minus_sign(capsys):
    rest = ("--b", "0,1,0", "--c", "0,0,1")
    spaced = run_cli(capsys, "volume", "--a", "-1,0,0", *rest)
    assert spaced == run_cli(capsys, "volume", "--a=-1,0,0", *rest)
    assert spaced[:2] == (0, "-1.0000000000000000e+00 1.0000000000000000e+00\n")
    assert run_cli(capsys, "volume", "--a", "-.5,0,0", *rest)[:2] == (
        0,
        "-5.0000000000000000e-01 5.0000000000000000e-01\n",
    )
    code, out, _ = run_cli(capsys, "curl", "--h", "1,1,1", "--d", "-1,0,0,0,0,0,0,1,0")
    assert code == 0 and out.split()[0] == "1.0000000000000000e+00"
    assert run_cli(capsys, "sparse-check", "--values", "-1,-2,-3,-4,-5")[0] == 0
    assert run_cli(capsys, "volume", "--a", "-x,0,0", *rest)[0] == 3
    assert run_cli(capsys, "det", "--random", "-3")[0] == 3


def test_random_combination_is_checked_before_drawing(capsys, monkeypatch):
    import minorform.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("matrix drawn before the combination check")

    monkeypatch.setattr(cli, "random_matrix", refuse)
    code, _, err = run_cli(capsys, "det", "--random", "300")
    assert code == 4
    assert "unsupported" in err
    assert run_cli(capsys, "det", "--random", "0")[0] == 3


@pytest.mark.parametrize("digits", [400, 5000])
def test_oversized_json_integer_exits_3(capsys, tmp_path, digits):
    path = tmp_path / "big.json"
    path.write_text('{"n": 2, "re": [[1' + "0" * digits + ", 0], [0, 1]]}")
    code, out, err = run_cli(capsys, "det", "--input", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "verb, extra",
    [
        ("det", ()),
        ("invert", ()),
        ("det", ("--method", "oracle")),
        ("invert", ("--method", "oracle")),
    ],
    ids=["det", "invert", "det-oracle", "invert-oracle"],
)
def test_overflowing_determinant_exits_3_not_a_zero_inverse(capsys, tmp_path, verb, extra):
    big = Matrix.from_rows([[1e70 if r == c else 0 for c in range(5)] for r in range(5)])
    code, out, err = run_cli(capsys, verb, "--input", str(matrix_file(tmp_path, big)), *extra)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "not finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("invert", "--input", "{input}", "--method", "closed"),
        ("invert", "--input", "{input}", "--method", "telescope"),
        ("invert", "--input", "{input}", "--method", "oracle"),
        ("sparse-check", "--values=1e300,1e-300,1e300,1e-300,1"),
    ],
    ids=["closed", "telescope", "oracle", "sparse-check"],
)
def test_overflowing_inverse_entry_is_named_not_blamed_on_the_input(capsys, tmp_path, argv):
    # the entries are finite and so is the determinant; a cofactor overflows
    diag = Matrix.from_rows([[1e300, 0, 0], [0, 1e-300, 0], [0, 0, 1e300]])
    path = matrix_file(tmp_path, diag)
    code, out, err = run_cli(capsys, *(path if arg == "{input}" else arg for arg in argv))
    assert code == 3
    assert out == ""
    assert err.startswith("error: inverse entry (2, 2) overflowed")
    assert "matrix entries must be finite" not in err


@pytest.mark.parametrize("method", ["closed", "telescope", "oracle"])
def test_a_modulus_beyond_double_range_exits_3(capsys, tmp_path, method):
    # abs() of the finite (1, 1) entry raises OverflowError; entry (2, 2) overflows
    path = tmp_path / "m.json"
    path.write_text('{"n": 2, "re": [[1.5e308, 0], [0, 1e-308]], "im": [[1.5e308, 0], [0, 0]]}')
    code, out, err = run_cli(capsys, "invert", "--input", str(path), "--method", method)
    assert code == 3
    assert out == ""
    assert err.startswith("error: inverse entry (2, 2) overflowed") and "Traceback" not in err


# nan, both infinities, subnormals, values near the overflow edge and ordinary ones
edge_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([5e-324, -5e-324, 1e-310, 1e300, -1e300, 1e-200, 0.0, -0.0, 1.0]),
)


def joined(values):
    return ",".join(repr(v) for v in values)


def floats(count):
    return st.lists(edge_floats, min_size=count, max_size=count)


curl_argv = st.tuples(floats(3), floats(9)).map(
    lambda hd: ["curl", "--h=" + joined(hd[0]), "--d=" + joined(hd[1])]
)
volume_argv = floats(9).map(
    lambda v: ["volume", "--a=" + joined(v[0:3]), "--b=" + joined(v[3:6]), "--c=" + joined(v[6:9])]
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(curl_argv, volume_argv))
def test_vector_verbs_print_finite_numbers_or_exit_3(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 3)
    if code == 0:
        assert all(math.isfinite(float(v)) for v in out.getvalue().split())
    else:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")


# every verb, over edge values, sizes -2..6 and generated --input files;
# "{input}" and "{out}" stand for files in a fresh directory
sizes = st.integers(-2, 6).map(str)
entries = st.one_of(edge_floats, st.sampled_from([1e-300, -1e-300, -1.0, 2.0]))
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10, 10), entries, st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["n", "re", "im", "x"]), inner, max_size=3),
)
square = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n).map(
        lambda rows: {"n": len(rows), "re": rows}
    )
)
input_text = st.one_of(square, json_values).map(json.dumps)
method_flag = st.sampled_from([[], ["--method", "closed"], ["--method", "telescope"], ["--method", "oracle"]])


def optional(*flags):
    return st.sampled_from([[], list(flags)])


def matrix_verb(verb, extra=st.just([])):
    source = st.one_of(
        input_text.map(lambda text: (["--input", "{input}"], text)),
        sizes.map(lambda n: (["--random", n], None)),
    )
    return st.tuples(source, method_flag, optional("--complex"), optional("--seed", "7"), extra).map(
        lambda t: ([verb] + t[0][0] + t[1] + t[2] + t[3] + t[4], t[0][1])
    )


positions = st.integers(-1, 5).map(str)
any_verb = st.one_of(
    matrix_verb("det", st.sampled_from([[], ["--repr", "gamma"], ["--repr", "cosine"]])),
    matrix_verb("invert"),
    st.tuples(input_text, positions, positions, st.sampled_from(["deletion", "formula"])).map(
        lambda t: (["minor", "--input", "{input}", "--row", t[1], "--col", t[2], "--by", t[3]], t[0])
    ),
    sizes.map(lambda n: (["expand", "--size", n], None)),
    st.tuples(st.integers(-1, 3).map(str), sizes, method_flag, optional("--complex")).map(
        lambda t: (["validate", "--trials", t[0], "--size", t[1], "--out", "{out}"] + t[2] + t[3], None)
    ),
    floats(5).map(lambda v: (["sparse-check", "--values=" + joined(v)], None)),
    st.tuples(curl_argv, st.none()),
    # a list may start with a minus sign without the = form
    floats(9).map(lambda v: (["volume", "--a", joined(v[0:3]), "--b", joined(v[3:6]), "--c", joined(v[6:9])], None)),
)


@settings(max_examples=200, deadline=None)
@given(any_verb)
@example((["sparse-check", "--values=1e-100,1e-100,1e-100,1e-100,1e-100"], None))
@example((["det", "--input", "{input}"], "[" * 100_000))
@example((["invert", "--input", "{input}"], OVERFLOWING_RESIDUAL))
def test_every_verb_exits_cleanly_and_prints_finite_numbers(case):
    argv, text = case
    with tempfile.TemporaryDirectory() as tmp:
        if text is not None:
            Path(tmp, "m.json").write_text(text)
        argv = [a.format(input=Path(tmp, "m.json"), out=Path(tmp, "h.csv")) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4)
    if code == 0:
        for token in re.split(r"[\s,:=\[\]{}\"]+", out.getvalue()):
            with contextlib.suppress(ValueError):
                assert math.isfinite(float(token)), token
    else:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
