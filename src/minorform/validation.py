"""Monte-Carlo validation harness and the sparse smoke suite.

Each trial draws a random matrix from its own deterministic substream,
inverts it with the engine under test, inverts it again by elimination,
and scores the disagreement as a mean squared error in decibels. The
harness aggregates the scores into a fixed-width histogram plus summary
statistics, all reproducible byte for byte from the seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .discrete import ReprKind
from .engines import (
    GENERAL_SIZE_CAP,
    Method,
    check_combination,
    closed_form_det,
    closed_form_inverse,
    general_inverse,
)
from .errors import DomainError, NearSingularWarning, SingularMatrixError, UnsupportedCombinationError
from .matrices import Matrix, random_matrix, sparse_case, _format_float
from .oracles import cofactor_inverse, gauss_inverse, leibniz_det
from .rng import stream_seed

BIN_WIDTH_DB = 2.0
MSE_CLAMP_FLOOR = 1e-100
DB_FLOOR = -1000.0
SPARSE_TOLERANCE = 1e-12
SPARSE_DEFAULT_VALUES = (1.0, 2.0, 3.0, 4.0, 5.0)


@dataclass(frozen=True)
class TrialConfig:
    """Validated harness parameters.

    There is no encoding field: the inverse engines read step-exact index
    tables, so every encoding gives the same trials. The combination is
    checked with the direct encoding.
    """

    trials: int
    size: int
    seed: int = 0
    method: Method = Method.CLOSED_FORM
    complex_entries: bool = False

    def __post_init__(self):
        if not isinstance(self.trials, int) or isinstance(self.trials, bool) or self.trials < 1:
            raise DomainError(f"trials must be a positive integer, got {self.trials!r}")
        if not isinstance(self.size, int) or isinstance(self.size, bool):
            raise DomainError(f"size must be an integer, got {self.size!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise DomainError(f"seed must be an integer, got {self.seed!r}")
        if not 2 <= self.size <= GENERAL_SIZE_CAP:
            raise UnsupportedCombinationError(
                f"harness sizes run 2..{GENERAL_SIZE_CAP}, got {self.size}"
            )
        check_combination(self.size, self.method, ReprKind.DIRECT)


@dataclass(frozen=True)
class HistogramReport:
    """Aggregated dB scores: fixed 2 dB bins plus order statistics."""

    trials: int
    redraws: int
    min_db: float
    max_db: float
    median_db: float
    mode_db: float
    bins: tuple[tuple[float, float, int], ...]
    bin_width_db: float = field(default=BIN_WIDTH_DB)


def mse(x: Matrix, y: Matrix) -> float:
    """Mean squared entrywise error between two equal-size matrices."""
    if x.n != y.n:
        raise DomainError("mse requires matrices of equal size")
    total = 0.0
    for xv, yv in zip(x.data, y.data):
        d = xv - yv
        total += d.real * d.real + d.imag * d.imag
    return max(total / (x.n * x.n), 0.0)


def _db_score(value: float) -> float:
    # scores below the clamp floor (including exact zero) pin to the dB floor
    if value < MSE_CLAMP_FLOOR:
        return DB_FLOOR
    return 10.0 * math.log10(value)


def _build_report(dbs: list[float], redraws: int) -> HistogramReport:
    start = math.floor(min(dbs))
    stop = math.ceil(max(dbs))
    nbins = max(1, math.ceil((stop - start) / BIN_WIDTH_DB))
    counts = [0] * nbins
    for db in dbs:
        idx = min(int((db - start) // BIN_WIDTH_DB), nbins - 1)
        counts[idx] += 1
    bins = tuple(
        (start + i * BIN_WIDTH_DB, start + (i + 1) * BIN_WIDTH_DB, counts[i])
        for i in range(nbins)
    )
    peak = counts.index(max(counts))  # first bin among ties
    mode_db = bins[peak][0] + BIN_WIDTH_DB / 2.0
    ordered = sorted(dbs)
    half = len(ordered) // 2
    if len(ordered) % 2:
        median = ordered[half]
    else:
        median = (ordered[half - 1] + ordered[half]) / 2.0
    return HistogramReport(
        trials=len(dbs),
        redraws=redraws,
        min_db=min(dbs),
        max_db=max(dbs),
        median_db=median,
        mode_db=mode_db,
        bins=bins,
    )


def _inverse_for(cfg: TrialConfig, a: Matrix) -> Matrix:
    if cfg.method is Method.CLOSED_FORM:
        return closed_form_inverse(a)
    if cfg.method is Method.TELESCOPE:
        return general_inverse(a)
    return cofactor_inverse(a)


def run_trials(cfg: TrialConfig) -> HistogramReport:
    """Run the Monte-Carlo comparison described by cfg.

    Trial r draws from substream r of the master seed; a draw whose
    determinant is exactly zero is redrawn from a re-mixed seed of the same
    substream (counted, and independent of every other trial). Ill
    conditioned draws are kept: their scores are part of the distribution,
    so near-singular warnings are suppressed here.
    """
    dbs: list[float] = []
    redraws = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NearSingularWarning)
        for r in range(cfg.trials):
            base = stream_seed(cfg.seed, r)
            while True:
                a = random_matrix(cfg.size, base, cfg.complex_entries)
                try:
                    formula = _inverse_for(cfg, a)
                    reference = gauss_inverse(a).inverse
                except SingularMatrixError:
                    redraws += 1
                    base = stream_seed(base, 0)
                    continue
                break
            dbs.append(_db_score(mse(formula, reference)))
    return _build_report(dbs, redraws)


@dataclass(frozen=True)
class SparseCheck:
    """Result of one sparse-pattern case; failures are reported, not raised."""

    case_id: int
    det_value: complex
    det_reference: complex
    det_error: float
    inverse_error: float
    passed: bool


def sparse_suite(values=SPARSE_DEFAULT_VALUES) -> tuple[SparseCheck, ...]:
    """Exercise the closed-form engines on the three sparse 5x5 patterns.

    The determinant is compared relatively against the permutation sum, and
    the inverse entrywise against elimination, relative to the largest
    reference entry. Nonzero values never have a zero determinant, so a
    zero reference means the product underflowed: DomainError.
    """
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NearSingularWarning)
        for case_id in (1, 2, 3):
            a = sparse_case(case_id, values)
            det = closed_form_det(a)
            ref = leibniz_det(a)
            if ref == 0:
                raise DomainError("the determinant of the sparse case underflows to 0")
            det_error = abs(det - ref) / abs(ref)
            inverse = closed_form_inverse(a)
            reference = gauss_inverse(a).inverse
            inverse_error = max(abs(x - y) for x, y in zip(inverse.data, reference.data))
            inverse_error /= max(abs(y) for y in reference.data)
            results.append(
                SparseCheck(
                    case_id=case_id,
                    det_value=det,
                    det_reference=ref,
                    det_error=det_error,
                    inverse_error=inverse_error,
                    passed=det_error <= SPARSE_TOLERANCE and inverse_error <= SPARSE_TOLERANCE,
                )
            )
    return tuple(results)


def histogram_csv(report: HistogramReport) -> str:
    """Histogram as CSV: bin edges to 0.1 dB, one row per bin."""
    lines = ["bin_lo_db,bin_hi_db,count"]
    for lo, hi, count in report.bins:
        lines.append(f"{lo:.1f},{hi:.1f},{count}")
    return "\n".join(lines) + "\n"


def summary_json(report: HistogramReport) -> str:
    """Summary statistics as one-line JSON with exact float formatting."""
    return (
        "{"
        f'"trials": {report.trials}, '
        f'"min_db": {_format_float(report.min_db)}, '
        f'"max_db": {_format_float(report.max_db)}, '
        f'"median_db": {_format_float(report.median_db)}, '
        f'"mode_db": {_format_float(report.mode_db)}, '
        f'"redraws": {report.redraws}'
        "}"
    )
