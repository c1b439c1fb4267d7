"""Monte-Carlo harness: scoring, binning, determinism, sparse suite."""

import math

import pytest

from minorform import (
    DomainError,
    Matrix,
    Method,
    TrialConfig,
    UnsupportedCombinationError,
    closed_form_inverse,
    gauss_inverse,
    histogram_csv,
    identity,
    mse,
    random_matrix,
    run_trials,
    sparse_suite,
    stream_seed,
    summary_json,
)
from minorform.validation import BIN_WIDTH_DB, DB_FLOOR, MSE_CLAMP_FLOOR, HistogramReport, _build_report, _db_score


def test_mse_definition():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    assert mse(a, a) == 0.0
    b = Matrix.from_rows([[1, 2], [3, 4.4]])
    assert mse(a, b) == pytest.approx(0.4**2 / 4)
    c = Matrix.from_rows([[1 + 1j, 2], [3, 4]])
    assert mse(a, c) == pytest.approx(0.25)
    with pytest.raises(DomainError):
        mse(a, identity(3))


def test_mse_refuses_a_mean_that_is_not_finite():
    # (1e200 - -1e200)^2 overflows; an inf score would reach math.floor in the report
    with pytest.raises(DomainError, match="mean squared error is inf"):
        mse(Matrix.from_rows([[1e200]]), Matrix.from_rows([[-1e200]]))


def test_db_score_clamps_tiny_values_to_the_floor():
    assert _db_score(0.0) == DB_FLOOR
    assert _db_score(MSE_CLAMP_FLOOR / 10) == DB_FLOOR
    assert _db_score(1e-20) == pytest.approx(-200.0)
    assert _db_score(1.0) == 0.0


def test_report_binning_covers_all_trials():
    dbs = [-3.7, -3.1, -2.0, -0.4, 0.9]
    report = _build_report(dbs, redraws=2)
    assert report.trials == 5
    assert report.redraws == 2
    assert report.min_db == -3.7
    assert report.max_db == 0.9
    assert report.bin_width_db == 2.0
    assert sum(count for _, _, count in report.bins) == 5
    # edges are integer-aligned to the floor of the minimum
    assert report.bins[0][0] == -4.0
    assert report.bins[-1][1] >= report.max_db
    for lo, hi, _ in report.bins:
        assert hi - lo == 2.0


def test_report_median_and_mode():
    report = _build_report([-10.0, -9.0, -8.9, -1.0], redraws=0)
    assert report.median_db == pytest.approx((-9.0 + -8.9) / 2)
    assert report.mode_db == -9.0  # midpoint of the fullest bin [-10, -8)
    odd = _build_report([-5.0, -4.0, -3.0], redraws=0)
    assert odd.median_db == -4.0


def test_report_single_value_produces_one_bin():
    report = _build_report([DB_FLOOR] * 4, redraws=0)
    assert len(report.bins) == 1
    assert report.bins[0][2] == 4
    assert report.mode_db == DB_FLOOR + 1.0


def test_bin_width_is_a_constant_not_a_field():
    assert HistogramReport.bin_width_db == BIN_WIDTH_DB
    with pytest.raises(TypeError):
        HistogramReport(1, 0, 0.0, 0.0, 0.0, 1.0, ((0.0, 2.0, 1),), bin_width_db=5.0)


def test_trial_config_validation():
    TrialConfig(trials=10, size=5)
    with pytest.raises(DomainError):
        TrialConfig(trials=0, size=5)
    with pytest.raises(UnsupportedCombinationError):
        TrialConfig(trials=1, size=9)
    with pytest.raises(UnsupportedCombinationError):
        TrialConfig(trials=1, size=6)  # closed form stops at 5
    TrialConfig(trials=1, size=6, method=Method.TELESCOPE)


def test_trial_config_refuses_a_method_that_is_not_a_member():
    with pytest.raises(DomainError, match="method must be a Method, got 'closed'"):
        TrialConfig(trials=3, size=5, method="closed")


def test_trial_config_refuses_complex_entries_that_is_not_a_bool():
    with pytest.raises(DomainError, match="complex_entries must be a bool, got 'yes'"):
        TrialConfig(trials=2, size=3, complex_entries="yes")


def test_run_trials_is_deterministic():
    cfg = TrialConfig(trials=60, size=3, seed=5, complex_entries=True)
    first = run_trials(cfg)
    second = run_trials(cfg)
    assert first == second
    assert first.trials == 60
    assert sum(count for _, _, count in first.bins) == 60


def test_run_trials_scores_are_tiny_for_closed_form():
    report = run_trials(TrialConfig(trials=200, size=5, seed=7))
    assert report.max_db < -80.0  # closed form tracks elimination closely
    assert report.median_db < -200.0
    assert report.redraws == 0


def test_run_trials_other_methods():
    tele = run_trials(TrialConfig(trials=40, size=6, seed=3, method=Method.TELESCOPE))
    assert tele.trials == 40
    assert tele.max_db < -80.0
    oracle = run_trials(TrialConfig(trials=40, size=3, seed=3, method=Method.ORACLE))
    assert oracle.max_db < -80.0


def test_a_singular_draw_is_redrawn_from_its_remixed_seed(monkeypatch):
    seed = 17
    draws = []

    def zero_first(n, draw_seed, complex_entries=False):
        draws.append(draw_seed)
        if len(draws) == 1:
            return Matrix(n, (0.0,) * (n * n))
        return random_matrix(n, draw_seed, complex_entries)

    monkeypatch.setattr("minorform.validation.random_matrix", zero_first)
    report = run_trials(TrialConfig(trials=1, size=3, seed=seed))
    redrawn = stream_seed(stream_seed(seed, 0), 0)
    assert draws == [stream_seed(seed, 0), redrawn]
    assert report.redraws == 1
    a = random_matrix(3, redrawn)
    expected = _db_score(mse(closed_form_inverse(a), gauss_inverse(a).inverse))
    assert report.min_db == report.max_db == expected
    assert '"redraws": 1' in summary_json(report)


def test_histogram_csv_shape():
    report = _build_report([-7.5, -6.5, -2.5], redraws=1)
    text = histogram_csv(report)
    lines = text.splitlines()
    assert lines[0] == "bin_lo_db,bin_hi_db,count"
    assert lines[1] == "-8.0,-6.0,2"
    assert text.endswith("\n")
    assert len(lines) == 1 + len(report.bins)


def test_summary_json_is_exact_and_one_line():
    report = _build_report([-4.0, -2.0], redraws=3)
    text = summary_json(report)
    assert "\n" not in text
    import json

    decoded = json.loads(text)
    assert decoded["trials"] == 2
    assert decoded["redraws"] == 3
    assert decoded["min_db"] == -4.0
    assert decoded["mode_db"] == -3.0
    assert math.isclose(decoded["median_db"], -3.0)


def test_sparse_suite_all_cases_pass():
    checks = sparse_suite()
    assert [c.case_id for c in checks] == [1, 2, 3]
    assert all(c.passed for c in checks)
    assert checks[0].det_value == 120  # frozen from the permutation oracle
    for c in checks:
        assert c.det_error <= 1e-12
        assert c.inverse_error <= 1e-12


def test_sparse_suite_reports_failures_instead_of_raising():
    # tiny values stress the relative comparison but must not throw
    checks = sparse_suite((1e-6, 2e-6, 3e-6, 4e-6, 5e-6))
    assert len(checks) == 3
    assert all(isinstance(c.passed, bool) for c in checks)


def test_sparse_suite_verdict_does_not_depend_on_scale():
    # the inverse error is relative to the largest reference entry
    for scale in (1e-60, 1e-6, 1.0, 1e60):
        checks = sparse_suite(tuple(v * scale for v in (1.0, 2.0, 3.0, 4.0, 5.0)))
        assert all(c.passed for c in checks), scale


def test_sparse_suite_refuses_an_underflowing_determinant():
    with pytest.raises(DomainError, match="underflows"):
        sparse_suite((1e-100,) * 5)
