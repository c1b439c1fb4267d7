"""The three workloads: inputs derived from a seed, one operation each, and
the record of each output that the checks in `checks.py` read back.

This module imports `minorform`; the child process imports it only after
timing the package import on its own. Every program call goes through a
module attribute (`validation.run_trials`, `engines.general_inverse`,
`cli.main`) so that the tracer's wrappers are seen when they are installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

from minorform import Matrix, TrialConfig, cli, engines, validation

# Trials per mc-closed5 operation: a batch long enough that the per-call
# cost of run_trials is small next to the trials, short enough for over
# 1500 operations in a 30-second run.
MC_TRIALS = 20

# cli-invert3 rounds: 32 operations, of which the ones listed here read a
# fixed, seed-independent invertible matrix scaled by 2**k instead of a
# fresh random one. Every run attempts whole rounds, so the failing share
# is exactly 2/32 for as long as the closed-form determinant overflows
# (k = 400) and underflows (k = -400).
CLI_ROUND = 32
CLI_SCALED = {15: 400, 31: -400}
CLI_SCALED_BASE = ((4.0, 1.0, 0.0), (1.0, 3.0, 1.0), (0.0, 1.0, 2.0))


def op_seed(workload: str, seed: int, index: int | str) -> int:
    """63-bit seed of one operation's input, a pure function of its labels."""
    digest = hashlib.blake2b(f"{workload}/{seed}/{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def normal_rows(n: int, seed: int) -> list[list[float]]:
    """n x n standard normal entries from the benchmark's own generator."""
    rng = random.Random(seed)
    return [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)]


def scaled_rows(k: int) -> list[list[float]]:
    return [[math.ldexp(v, k) for v in row] for row in CLI_SCALED_BASE]


def _complex_rows(m: Matrix) -> list[list[list[float]]]:
    return [[[v.real, v.imag] for v in row] for row in m.rows()]


class McClosed5:
    """One op: `run_trials` over MC_TRIALS fresh 5x5 closed-form trials."""

    name = "mc-closed5"
    entry = "engines.closed_form_inverse"
    round_size = 1

    def round(self, seed: int, r: int | str) -> list[int]:
        return [op_seed(self.name, seed, r)]

    def prepare(self, s: int) -> int:
        return s

    def run(self, s: int):
        return validation.run_trials(TrialConfig(trials=MC_TRIALS, size=5, seed=s))

    def record(self, s: int, report) -> tuple[bool, dict]:
        return True, {
            "seed": s,
            "trials": report.trials,
            "redraws": report.redraws,
            "min_db": report.min_db,
            "max_db": report.max_db,
            "median_db": report.median_db,
            "mode_db": report.mode_db,
            "bin_width_db": report.bin_width_db,
            "bins": [list(b) for b in report.bins],
        }


class Telescope6:
    """One op: `general_inverse` of a fresh random 6x6 matrix."""

    name = "telescope6"
    entry = "engines.general_inverse"
    round_size = 1

    def round(self, seed: int, r: int | str) -> list[int]:
        return [op_seed(self.name, seed, r)]

    def prepare(self, s: int) -> Matrix:
        return Matrix.from_rows(normal_rows(6, s))

    def run(self, a: Matrix) -> Matrix:
        return engines.general_inverse(a)

    def record(self, s: int, x: Matrix) -> tuple[bool, dict]:
        return True, {"seed": s, "x": _complex_rows(x)}


class CliInvert3:
    """One op: in-process `minorform invert --input F` on a 3x3 JSON file."""

    name = "cli-invert3"
    entry = "engines.closed_form_inverse"
    round_size = CLI_ROUND

    def __init__(self, path: Path):
        self.path = path

    def round(self, seed: int, r: int | str) -> list[dict]:
        ops = []
        for j in range(CLI_ROUND):
            if j in CLI_SCALED:
                ops.append({"scale": CLI_SCALED[j]})
            else:
                ops.append({"seed": op_seed(self.name, seed, f"{r}.{j}")})
        return ops

    @staticmethod
    def rows(op: dict) -> list[list[float]]:
        if "scale" in op:
            return scaled_rows(op["scale"])
        return normal_rows(3, op["seed"])

    def prepare(self, op: dict) -> list[str]:
        self.path.write_text(json.dumps({"n": 3, "re": self.rows(op)}), encoding="ascii")
        return ["invert", "--input", str(self.path)]

    def run(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def record(self, op: dict, result: tuple[int, str, str]) -> tuple[bool, dict]:
        rc, out, err = result
        return rc == 0, dict(op, rc=rc, stdout=out, stderr=err)


def make(name: str, scratch: Path):
    if name == McClosed5.name:
        return McClosed5()
    if name == Telescope6.name:
        return Telescope6()
    if name == CliInvert3.name:
        return CliInvert3(scratch / "cli-invert3-input.json")
    raise ValueError(f"unknown workload {name!r}")


NAMES = (McClosed5.name, Telescope6.name, CliInvert3.name)
