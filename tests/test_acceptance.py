"""Acceptance gate: one test per exit criterion, each at its pinned
tolerance, printing a pass/fail line (visible under pytest -s, and in the
captured output on failure)."""

import tracemalloc

from expmoments import acceptance, schur


def _check(fn):
    result = fn()
    print(result.line())
    assert result.passed, result.line()


def test_criterion_01_pstar_solver():
    _check(acceptance.criterion_01_pstar)


def test_criterion_02_p0_solver():
    _check(acceptance.criterion_02_p0)


def test_criterion_03_power_tail_integral_grid():
    _check(acceptance.criterion_03_iqs)


def test_criterion_04_fourier_engine_laplace():
    _check(acceptance.criterion_04_fourier_laplace)


def test_criterion_05_density_vs_exact_moments():
    _check(acceptance.criterion_05_density_vs_exact)


def test_criterion_06_exact_certificate_sweep():
    _check(acceptance.criterion_06_hunter)


def test_criterion_07_gaussian_lower_bound_sweep():
    _check(acceptance.criterion_07_theorem1)


def test_criterion_08_phase_map():
    _check(acceptance.criterion_08_phase_map)


def test_criterion_09_failure_profile():
    _check(acceptance.criterion_09_failure_profile)


def test_criterion_10_equal_coefficient_suite():
    _check(acceptance.criterion_10_all_equal)


def test_criterion_11_integral_representation():
    _check(acceptance.criterion_11_representation)


def test_criterion_12_psi_monotonicity():
    _check(acceptance.criterion_12_psi)


def test_criterion_13_minimizer_certificate():
    _check(acceptance.criterion_13_minimizer)


def test_criterion_14_gradient_identity():
    _check(acceptance.criterion_14_gradient)


def test_criterion_15_logconvexity_symmetric():
    _check(acceptance.criterion_15_logconvexity)


def test_criterion_16_monte_carlo_honesty():
    _check(acceptance.criterion_16_mc_honesty)


def test_criterion_08_holds_one_scan_at_a_time():
    # eight ScanResults of 500 rows held at once would pass 2 MB; the shared
    # trials and the batch for all p stay well below it
    tracemalloc.start()
    try:
        acceptance.criterion_08_phase_map()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_criterion_08_builds_no_scan_rows(monkeypatch):
    # the phase map reads verdicts only; a row is built only where it is read
    def unread(rows, t):
        raise AssertionError(f"criterion 8 built scan row {t!r}")

    monkeypatch.setattr(schur.ScanRows, "__getitem__", unread)
    _check(acceptance.criterion_08_phase_map)
