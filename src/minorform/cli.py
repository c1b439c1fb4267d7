"""Command-line front end.

Verbs: det, invert, minor, expand, validate, sparse-check, curl, volume.
Only det takes --repr, the step-function encoding its closed-form table is
built with; the other verbs compute the same numbers under any encoding.
All numeric output uses 17 significant digits so runs are reproducible
byte for byte. Exit codes: 0 success, 2 singular matrix, 3 parse or flag
error or a value out of floating-point range, 4 unsupported
size/method/encoding combination.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
import warnings
from pathlib import Path

from .discrete import ReprKind
from .engines import (
    CLOSED_FORM_SIZES,
    Method,
    check_combination,
    closed_form_det,
    closed_form_inverse,
    expand_terms,
    general_det,
    general_inverse,
)
from .errors import (
    DomainError,
    NearSingularWarning,
    ParseError,
    SingularMatrixError,
    UnsupportedCombinationError,
)
from .matrices import Matrix, _format_float, parse_matrix, random_matrix, write_matrix
from .oracles import cofactor_inverse, leibniz_det, residual_max_abs
from .validation import TrialConfig, histogram_csv, run_trials, sparse_suite, summary_json
from .vector_apps import CurlInput, curl_components, scalar_triple

EXIT_OK = 0
EXIT_SINGULAR = 2
EXIT_USAGE = 3
EXIT_UNSUPPORTED = 4


class _UsageError(Exception):
    """Flag/argument problem; maps to exit code 3."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value such as -1,0,0 is a number, not a flag: no flag starts -digit
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):  # argparse would sys.exit(2); keep codes ours
        raise _UsageError(message)


def _parse_reals(text: str, count: int, flag: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise _UsageError(f"{flag} takes {count} comma-separated numbers, got {len(parts)}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise _UsageError(f"{flag}: {exc}") from exc


def _add_matrix_source(sub: argparse.ArgumentParser) -> None:
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", metavar="PATH", help="matrix JSON file")
    source.add_argument("--random", type=int, metavar="N", help="draw a random N x N matrix")
    sub.add_argument("--seed", type=int, default=0, help="seed for --random (default 0)")
    sub.add_argument(
        "--complex", action="store_true", help="draw complex entries (with --random)"
    )
    sub.add_argument(
        "--method",
        choices=[m.value for m in Method],
        default=None,
        help="engine (default: closed for sizes 2..5, telescope above)",
    )


def _load_matrix(args, repr_kind: ReprKind = ReprKind.DIRECT) -> tuple[Matrix, Method]:
    """The matrix and method of a det/invert call, checked with the encoding.

    A random draw is checked before it is made, so an unsupported size costs
    nothing to refuse.
    """
    a = None
    if args.input is not None:
        a = parse_matrix(Path(args.input).read_bytes())
        n = a.n
    else:
        n = args.random
        if n < 1:
            raise _UsageError(f"--random needs a positive size, got {n}")
    method = _resolve_method(args, n)
    check_combination(n, method, repr_kind)
    if a is None:
        a = random_matrix(n, args.seed, args.complex)
    return a, method


def _resolve_method(args, n: int) -> Method:
    if args.method is not None:
        return Method(args.method)
    return Method.CLOSED_FORM if n <= max(CLOSED_FORM_SIZES) else Method.TELESCOPE


def _cmd_det(args) -> int:
    repr_kind = ReprKind(args.repr_kind)
    a, method = _load_matrix(args, repr_kind)
    if method is Method.CLOSED_FORM:
        value = closed_form_det(a, repr_kind)
    elif method is Method.TELESCOPE:
        value = general_det(a)
    else:
        value = leibniz_det(a)
    print(f"{_format_float(value.real)} {_format_float(value.imag)}")
    return EXIT_OK


def _cmd_invert(args) -> int:
    a, method = _load_matrix(args)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NearSingularWarning)
        if method is Method.CLOSED_FORM:
            inverse = closed_form_inverse(a)
        elif method is Method.TELESCOPE:
            inverse = general_inverse(a)
        else:
            inverse = cofactor_inverse(a)
    residual = residual_max_abs(a, inverse)  # may refuse; nothing is printed yet
    for w in caught:
        if issubclass(w.category, NearSingularWarning):
            print(f"warning: {w.message}", file=sys.stderr)
    print(write_matrix(inverse).decode("ascii"))
    print(f"residual {_format_float(residual)}")
    return EXIT_OK


def _cmd_minor(args) -> int:
    from .matrices import minor_by_deletion, minor_by_formula

    a = parse_matrix(Path(args.input).read_bytes())
    extract = minor_by_deletion if args.by == "deletion" else minor_by_formula
    print(write_matrix(extract(a, args.row, args.col)).decode("ascii"))
    return EXIT_OK


def _cmd_expand(args) -> int:
    for term in expand_terms(args.size):
        sign = "+" if term.sign > 0 else "-"
        print(sign + " " + " ".join(str(c) for c in term.columns))
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = TrialConfig(
        trials=args.trials,
        size=args.size,
        seed=args.seed,
        method=_resolve_method(args, args.size),
        complex_entries=args.complex,
    )
    report = run_trials(cfg)
    Path(args.out).write_text(histogram_csv(report), encoding="ascii")
    print(summary_json(report))
    return EXIT_OK


def _cmd_sparse_check(args) -> int:
    values = _parse_reals(args.values, 5, "--values")
    for check in sparse_suite(values):
        verdict = "PASS" if check.passed else "FAIL"
        print(
            f"case {check.case_id} {verdict} "
            f"det_err={_format_float(check.det_error)} "
            f"inv_err={_format_float(check.inverse_error)}"
        )
    return EXIT_OK


def _cmd_curl(args) -> int:
    h = _parse_reals(args.scale, 3, "--h")
    d = _parse_reals(args.partials, 9, "--d")
    inp = CurlInput(h, (tuple(d[0:3]), tuple(d[3:6]), tuple(d[6:9])))
    c1, c2, c3 = curl_components(inp)
    print(f"{_format_float(c1.real)} {_format_float(c2.real)} {_format_float(c3.real)}")
    return EXIT_OK


def _cmd_volume(args) -> int:
    a = _parse_reals(args.a, 3, "--a")
    b = _parse_reals(args.b, 3, "--b")
    c = _parse_reals(args.c, 3, "--c")
    signed = scalar_triple(a, b, c)
    print(f"{_format_float(signed.real)} {_format_float(abs(signed))}")
    return EXIT_OK


@functools.cache  # built at the first main() call, reused by every later one
def _build_parser() -> _Parser:
    parser = _Parser(prog="minorform", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_det = sub.add_parser("det", help="determinant of a matrix")
    _add_matrix_source(p_det)
    p_det.add_argument(
        "--repr",
        dest="repr_kind",
        choices=[r.value for r in ReprKind],
        default=ReprKind.DIRECT.value,
        help="step-function encoding (default direct)",
    )
    p_det.set_defaults(handler=_cmd_det)

    p_inv = sub.add_parser("invert", help="inverse of a matrix, with residual")
    _add_matrix_source(p_inv)
    p_inv.set_defaults(handler=_cmd_invert)

    p_minor = sub.add_parser("minor", help="minor matrix after one deletion")
    p_minor.add_argument("--input", metavar="PATH", required=True)
    p_minor.add_argument("--row", type=int, required=True)
    p_minor.add_argument("--col", type=int, required=True)
    p_minor.add_argument("--by", choices=["deletion", "formula"], default="deletion")
    p_minor.set_defaults(handler=_cmd_minor)

    p_expand = sub.add_parser("expand", help="signed term list of the expansion")
    p_expand.add_argument("--size", type=int, required=True)
    p_expand.set_defaults(handler=_cmd_expand)

    p_val = sub.add_parser("validate", help="Monte-Carlo inverse comparison")
    p_val.add_argument("--trials", type=int, required=True)
    p_val.add_argument("--size", type=int, required=True)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--out", metavar="PATH", required=True, help="histogram CSV file")
    p_val.add_argument("--method", choices=[m.value for m in Method], default=None)
    p_val.add_argument("--complex", action="store_true")
    p_val.set_defaults(handler=_cmd_validate)

    p_sparse = sub.add_parser("sparse-check", help="sparse 5x5 pattern suite")
    p_sparse.add_argument("--values", default="1,2,3,4,5", help="five comma-separated values")
    p_sparse.set_defaults(handler=_cmd_sparse_check)

    p_curl = sub.add_parser("curl", help="curl components from scaled-field partials")
    p_curl.add_argument("--h", dest="scale", required=True, help="h1,h2,h3")
    p_curl.add_argument("--d", dest="partials", required=True, help="nine partials, row-major")
    p_curl.set_defaults(handler=_cmd_curl)

    p_vol = sub.add_parser("volume", help="scalar triple product of three vectors")
    p_vol.add_argument("--a", required=True, help="x,y,z")
    p_vol.add_argument("--b", required=True, help="x,y,z")
    p_vol.add_argument("--c", required=True, help="x,y,z")
    p_vol.set_defaults(handler=_cmd_volume)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except SingularMatrixError as exc:
        print(f"error: singular matrix: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except UnsupportedCombinationError as exc:
        print(f"error: unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (_UsageError, ParseError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())
