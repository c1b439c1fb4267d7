"""Command-line interface: output formats, determinism, exit codes."""

import json
from pathlib import Path

import pytest

from minorform import Matrix, parse_matrix, write_matrix
from minorform.cli import main

FROZEN_3X3 = Matrix.from_rows([[1, 2, 3], [0, 1, 4], [5, 6, 0]])


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


@pytest.mark.parametrize(
    "name, argv",
    [
        ("det_random_5_seed_42", ("det", "--random", "5", "--seed", "42")),
        ("invert_random_5_seed_3", ("invert", "--random", "5", "--seed", "3")),
        ("invert_random_3_seed_1_complex", ("invert", "--random", "3", "--seed", "1", "--complex")),
        ("validate_trials_300_size_5_seed_4", ("validate", "--trials", "300", "--size", "5", "--seed", "4")),
        ("invert_random_8_seed_1", ("invert", "--random", "8", "--seed", "1")),
    ],
)
def test_stdout_matches_golden_bytes(capsys, tmp_path, name, argv):
    if argv[0] == "validate":
        argv += ("--out", str(tmp_path / "h.csv"))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.encode("ascii") == (GOLDEN / f"{name}.out").read_bytes()


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


@pytest.mark.parametrize("verb", ["det", "invert"])
def test_overflowing_determinant_exits_3_not_a_zero_inverse(capsys, tmp_path, verb):
    big = Matrix.from_rows([[1e70 if r == c else 0 for c in range(5)] for r in range(5)])
    code, out, err = run_cli(capsys, verb, "--input", str(matrix_file(tmp_path, big)))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "not finite" in err
