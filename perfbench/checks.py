"""Output checks for every operation of a run, made apart from the program.

Each inverse is compared with `numpy.linalg.inv` under a tolerance scaled
by the condition number, and `A X` with the identity. A sample of the
operations is also compared with an exact `fractions.Fraction` determinant
and inverse of the float input (every binary64 value is a dyadic rational,
so these are the true results for the bits the program read). Properties
the method must have are checked as well: the inverse of 2**k A is 2**-k
times the inverse of A, bit for bit, because scaling by a power of two is
exact; a histogram's bins hold every trial; min <= median <= max.

Each `check_*` function raises `CheckFailure` on the first defect it sees.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
from minorform import (
    Matrix, closed_form_det, closed_form_inverse, gauss_inverse, general_det, general_inverse,
    random_matrix, stream_seed,
)

from workloads import MC_TRIALS, normal_rows, scaled_rows

EPS = 2.0**-52

# Inverse error allowed, in units of n * EPS * cond_inf(A) * max|X|, and
# residual allowed, in units of n * EPS * cond_inf(A). Over 150 000 random
# 3x3 and 30 000 random 5x5 normal draws the closed form reached at most
# 0.34 and 0.59 of these units, so a factor 32 leaves a wide margin while a
# relative error of 1e-9 in one entry still fails.
INV_FACTOR = 32.0
# Determinant error allowed against the exact value, in units of
# n * EPS * per(|A|): a rigorous bound for any sum of signed products.
DET_FACTOR = 4.0
# One operation in EXACT_EVERY gets the exact checks, and on mc-closed5 and
# telescope6 the scaling check, which cost more than the operation itself
# there. On cli-invert3 that is the first operation of every round.
EXACT_EVERY = 32


class CheckFailure(Exception):
    """An output disagrees with the independent computation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def _cond_inf(a: np.ndarray, inverse: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=1).max() * np.abs(inverse).sum(axis=1).max())


def _require_near(a: np.ndarray, x: np.ndarray, ref: np.ndarray, against: str) -> float:
    """max|x - ref| within the inverse tolerance; returns cond_inf(A)."""
    n = len(a)
    kappa = _cond_inf(a, ref)
    err = float(np.abs(x - ref).max())
    tol = INV_FACTOR * n * EPS * kappa * float(np.abs(ref).max())
    _require(err <= tol, f"inverse differs from {against} by {err:.3e} > {tol:.3e}")
    return kappa


def check_inverse(rows: list[list[float]], x: np.ndarray) -> float:
    """x against numpy.linalg.inv, and A x against the identity; returns cond_inf(A)."""
    a = np.array(rows, dtype=float)
    n = len(rows)
    _require(x.shape == (n, n), f"inverse has shape {x.shape}, expected {(n, n)}")
    _require(bool(np.isfinite(x).all()), "inverse has a non-finite entry")
    kappa = _require_near(a, x, np.linalg.inv(a), "numpy.linalg.inv")
    resid = float(np.abs(a @ x - np.eye(n)).max())
    rtol = INV_FACTOR * n * EPS * kappa
    _require(resid <= rtol, f"max|A X - I| = {resid:.3e} > {rtol:.3e}")
    return kappa


def exact_inverse(rows: list[list[float]]) -> tuple[Fraction, list[list[Fraction]]]:
    """Exact determinant and inverse of the float input, by Gauss-Jordan over Q."""
    n = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    det = Fraction(1)
    for k in range(n):
        p = next(r for r in range(k, n) if aug[r][k] != 0)
        if p != k:
            aug[k], aug[p] = aug[p], aug[k]
            det = -det
        pivot = aug[k][k]
        det *= pivot
        aug[k] = [v / pivot for v in aug[k]]
        for r in range(n):
            if r != k and aug[r][k] != 0:
                f = aug[r][k]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[k])]
    return det, [row[n:] for row in aug]


def permanent_abs(rows: list[list[float]]) -> float:
    """per(|A|), by dynamic programming over the set of used columns."""
    n = len(rows)
    level = {0: 1.0}
    for row in rows:
        nxt: dict[int, float] = {}
        for used, value in level.items():
            for c in range(n):
                if not used >> c & 1:
                    key = used | 1 << c
                    nxt[key] = nxt.get(key, 0.0) + value * abs(row[c])
        level = nxt
    return level[(1 << n) - 1]


def check_exact(rows: list[list[float]], det: complex, x: np.ndarray) -> None:
    """The program's determinant and inverse against the exact ones."""
    n = len(rows)
    exact_det, exact_inv = exact_inverse(rows)
    det_err = abs(det - float(exact_det))
    det_tol = DET_FACTOR * n * EPS * permanent_abs(rows)
    _require(det_err <= det_tol, f"determinant off the exact value by {det_err:.3e} > {det_tol:.3e}")
    ref = np.array([[float(v) for v in row] for row in exact_inv])
    _require_near(np.array(rows, dtype=float), x, ref, "the exact inverse")


def check_scaling(x: np.ndarray, x_scaled: np.ndarray, k: int) -> None:
    """inverse(2**k A) == 2**-k inverse(A), bit for bit."""
    expected = np.ldexp(x.real, -k) + 1j * np.ldexp(x.imag, -k)
    _require(bool((x_scaled == expected).all()), f"inverse of 2**{k} A is not 2**{-k} times the inverse of A")


def check_histogram(out: dict) -> None:
    """Properties every report of run_trials must have."""
    trials = out["trials"]
    bins = out["bins"]
    width = out["bin_width_db"]
    _require(trials == MC_TRIALS, f"report counts {trials} trials, asked for {MC_TRIALS}")
    _require(sum(b[2] for b in bins) == trials, "histogram bins do not sum to the trial count")
    _require(all(b[2] >= 0 for b in bins), "histogram has a negative count")
    _require(all(math.isclose(hi - lo, width) for lo, hi, _ in bins), "histogram bin of the wrong width")
    _require(all(a[1] == b[0] for a, b in zip(bins, bins[1:])), "histogram bins are not contiguous")
    lo, hi = bins[0][0], bins[-1][1]
    _require(out["min_db"] <= out["median_db"] <= out["max_db"], "not min <= median <= max")
    _require(lo <= out["min_db"] and out["max_db"] <= hi, "min or max outside the histogram")
    _require(lo <= out["mode_db"] <= hi, "mode outside the histogram")
    _require(out["redraws"] >= 0, "negative redraw count")


def _array(m) -> np.ndarray:
    return np.array(m.rows(), dtype=complex)


def _scale_k(seed: int) -> int:
    # a seed-dependent power of two that keeps every entry normal
    return (seed % 61 + 1) * (1 if seed >> 7 & 1 else -1)


def _scaled_matrix(rows, k):
    return Matrix.from_rows([[math.ldexp(v, k) for v in row] for row in rows])


def check_mc(index: int, out: dict) -> None:
    """One run_trials report: its histogram, and one of its trials redone apart."""
    check_histogram(out)
    if out["redraws"]:
        return  # the sampled substream may have been redrawn; the histogram checks stand
    r = out["seed"] % MC_TRIALS
    a = random_matrix(5, stream_seed(out["seed"], r))
    rows = [[v.real for v in row] for row in a.rows()]
    x = _array(closed_form_inverse(a))
    check_inverse(rows, x)
    diff = x - _array(gauss_inverse(a).inverse)
    mse = float((diff.real**2 + diff.imag**2).mean())
    db = -1000.0 if mse < 1e-100 else 10.0 * math.log10(mse)
    _require(
        out["min_db"] - 1e-9 <= db <= out["max_db"] + 1e-9,
        f"trial {r} scores {db:.6f} dB, outside [{out['min_db']:.6f}, {out['max_db']:.6f}]",
    )
    if index % EXACT_EVERY == 0:
        check_exact(rows, closed_form_det(a), x)
        k = _scale_k(out["seed"])
        check_scaling(x, _array(closed_form_inverse(_scaled_matrix(rows, k))), k)


def check_telescope(index: int, out: dict) -> None:
    """One general_inverse output against numpy, and on a sample exactly."""
    rows = normal_rows(6, out["seed"])
    x = np.array([[complex(re, im) for re, im in row] for row in out["x"]])
    check_inverse(rows, x)
    if index % EXACT_EVERY == 0:
        check_exact(rows, general_det(Matrix.from_rows(rows)), x)
        k = _scale_k(out["seed"])
        check_scaling(x, _array(general_inverse(_scaled_matrix(rows, k))), k)


def parse_invert_stdout(text: str) -> tuple[np.ndarray, float]:
    """The inverse and residual printed by `minorform invert`."""
    lines = text.splitlines()
    _require(len(lines) == 2, f"invert printed {len(lines)} lines, expected 2")
    obj = json.loads(lines[0])
    _require(set(obj) == {"n", "re", "im"}, "inverse JSON has unexpected keys")
    x = np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float)
    word, value = lines[1].split(" ")
    _require(word == "residual", "second line is not the residual")
    return x, float(value)


def check_cli(index: int, out: dict) -> None:
    """One `invert` output: the inverse, its printed residual, its scaling."""
    rows = normal_rows(3, out["seed"]) if "seed" in out else scaled_rows(out["scale"])
    x, residual = parse_invert_stdout(out["stdout"])
    rtol = INV_FACTOR * 3 * EPS * check_inverse(rows, x)
    _require(math.isfinite(residual) and 0.0 <= residual <= rtol, f"printed residual {residual!r} > {rtol:.3e}")
    if "scale" in out:
        return  # fixed input, not seed-derived: covered by the checks above
    k = _scale_k(out["seed"])
    check_scaling(x, _array(closed_form_inverse(_scaled_matrix(rows, k))), k)
    if index % EXACT_EVERY == 0:
        check_exact(rows, closed_form_det(Matrix.from_rows(rows)), x)


CHECKS = {"mc-closed5": check_mc, "telescope6": check_telescope, "cli-invert3": check_cli}

