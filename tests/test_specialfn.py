import math

import mpmath
import numpy as np
import pytest

from expmoments.quadrature import integrate
from expmoments.specialfn import (
    closed_integral_iqs,
    fourier_constant,
    gaussian_abs_moment,
    gaussian_even_moment_exact,
    loggamma,
    psi,
    ratio_r,
)


def test_loggamma_matches_stdlib_on_wide_grid():
    # scale by max(1, |ln Gamma|): the function crosses zero at x = 1, 2
    for x in np.geomspace(0.5, 1e6, 400):
        mine = loggamma(float(x))
        ref = math.lgamma(float(x))
        assert abs(mine - ref) <= 1e-13 * max(1.0, abs(ref))


def test_loggamma_reflection_below_half():
    for x in (0.01, 0.1, 0.3, 0.49):
        assert loggamma(x) == pytest.approx(math.lgamma(x), rel=1e-13)


def test_loggamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        loggamma(0.0)
    with pytest.raises(ValueError):
        loggamma(-3.0)


def test_gaussian_even_moments_are_exact_double_factorials():
    assert gaussian_even_moment_exact(0) == 1
    assert gaussian_even_moment_exact(2) == 1
    assert gaussian_even_moment_exact(4) == 3
    assert gaussian_even_moment_exact(6) == 15
    assert gaussian_even_moment_exact(8) == 105
    with pytest.raises(ValueError):
        gaussian_even_moment_exact(3)


def test_gaussian_abs_moment_values():
    assert gaussian_abs_moment(2) == 1.0  # unit variance, exact path
    assert gaussian_abs_moment(4) == 3.0
    # sqrt(2/pi), from the Gamma(1) closed form; quadrature oracle below
    assert gaussian_abs_moment(1) == pytest.approx(0.7978845608028654, rel=1e-14)
    # 2 sqrt(2) / sqrt(pi)
    assert gaussian_abs_moment(3) == pytest.approx(1.5957691216057308, rel=1e-14)


def test_gaussian_abs_moment_against_quadrature_of_density():
    for p in (0.5, 1.0, 1.7, 3.0, 4.2):
        def integrand(t, _p=p):
            return 2.0 * t**_p * np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)

        val, _ = integrate(integrand, 0.0, math.inf)
        assert gaussian_abs_moment(p) == pytest.approx(val, rel=1e-9)


def test_gaussian_abs_moment_domain():
    with pytest.raises(ValueError):
        gaussian_abs_moment(-1.0)


def test_gamma_recurrence_identity():
    # (p-1) E|G|^(p-2) = E|G|^p
    for p in (1.5, 2.0, 2.7, 4.0, 6.3, 9.0):
        lhs = (p - 1.0) * gaussian_abs_moment(p - 2.0)
        rhs = gaussian_abs_moment(p)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_duplication_identity():
    # 2^(p/2) Gamma(p/2 + 1) E|G|^p = Gamma(p+1)
    for p in (-0.5, 0.5, 1.0, 2.5, 4.0, 7.3):
        lhs = 2.0 ** (0.5 * p) * math.exp(loggamma(0.5 * p + 1.0)) * gaussian_abs_moment(p)
        rhs = math.exp(loggamma(p + 1.0))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_fourier_constant_values():
    assert fourier_constant(1.0) == pytest.approx(2.0 / math.pi, rel=1e-14)
    assert fourier_constant(0.5) == pytest.approx(0.3989422804014327, rel=1e-12)
    # small-angle limit c_q / q -> 1
    assert fourier_constant(1e-6) / 1e-6 == pytest.approx(1.0, abs=1e-5)
    for q in np.linspace(0.05, 1.95, 25):
        assert fourier_constant(float(q)) > 0.0
    with pytest.raises(ValueError):
        fourier_constant(2.0)
    with pytest.raises(ValueError):
        fourier_constant(0.0)


def test_psi_closed_form_at_beta_one():
    # Gamma recurrence collapses Psi_1(x) to 1 + 1/(2x)
    assert psi(1.0, 1.0) == pytest.approx(1.5, rel=1e-12)
    assert psi(1.0, 2.0) == pytest.approx(1.25, rel=1e-12)
    for x in (0.1, 0.7, 5.0, 300.0):
        assert psi(1.0, x) == pytest.approx(1.0 + 0.5 / x, rel=1e-12)


def test_psi_monotone_decreasing_with_unit_limit():
    grid = np.geomspace(1e-2, 1e4, 200)
    for beta in (0.1, 0.5, 1.0, 2.5):
        vals = [psi(beta, float(x)) for x in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > 1.0 for v in vals)
        assert 1.0 < psi(beta, 1e4) < 1.001


def test_psi_stirling_band():
    assert 1.0 < psi(0.5, 100.0) < 1.01


def test_ratio_r_values_and_monotonicity():
    assert ratio_r(1.0, 1.0) == pytest.approx(1.2, rel=1e-14)
    grid = np.geomspace(1e-2, 1e4, 200)
    for beta in (0.1, 0.5, 1.0, 2.5):
        vals = [ratio_r(beta, float(x)) for x in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
    assert ratio_r(3.7, 1e9) == pytest.approx(1.0, abs=1e-8)


def test_ratio_product_telescopes_to_psi():
    # Psi_b(x) = prod_k R_b(x + k); finite products leave a Psi_b(x + K + 1) factor
    for beta, x in ((1.0, 1.0), (0.5, 2.0), (2.5, 0.7)):
        prod = 1.0
        K = 60
        for k in range(K + 1):
            prod *= ratio_r(beta, x + k)
        assert prod == pytest.approx(psi(beta, x) / psi(beta, x + K + 1), rel=1e-11)
    # the trailing factor tends to 1, so long products approach Psi itself
    prod = 1.0
    for k in range(4000):
        prod *= ratio_r(1.0, 1.0 + k)
    assert prod == pytest.approx(1.5, abs=5e-4)


def test_closed_integral_iqs_values():
    assert closed_integral_iqs(1.0, 1.0) == pytest.approx(math.pi / 2.0, abs=1e-12)
    with pytest.raises(ValueError):
        closed_integral_iqs(2.0, 1.0)
    with pytest.raises(ValueError):
        closed_integral_iqs(1.0, 0.0)


def test_closed_integral_iqs_decreasing_in_s():
    for q in (0.25, 0.9, 1.5, 1.9):
        vals = [closed_integral_iqs(q, float(s)) for s in np.geomspace(0.1, 1e3, 40)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("q", [0.25, 0.75, 1.5])
@pytest.mark.parametrize("s", [1e2, 1e6, 1e9])
def test_closed_integral_iqs_at_large_s_against_mpmath(q, s):
    # the Gamma ratio of two huge loggamma values would lose up to 1e-6
    # relative at s = 1e9; the reference takes it at 40 digits
    with mpmath.workdps(40):
        ref = (
            mpmath.gamma(1 - mpmath.mpf(q) / 2)
            * mpmath.exp(mpmath.loggamma((1 + mpmath.mpf(q) + s) / 2) - mpmath.loggamma((1 + mpmath.mpf(s)) / 2))
            / (q * mpmath.mpf(s) ** (mpmath.mpf(q) / 2))
        )
        assert abs(closed_integral_iqs(q, s) - ref) <= 1e-13 * ref


@pytest.mark.parametrize("beta", [0.1, 0.5, 1.0, 2.5])
@pytest.mark.parametrize("x", [1e2, 1e4, 1e6, 1e9])
def test_psi_at_large_x_against_mpmath(beta, x):
    # the difference of two huge loggamma values would lose up to 4e-6
    # relative at x = 1e9; the reference takes it at 60 digits
    with mpmath.workdps(60):
        b, t = mpmath.mpf(beta), mpmath.mpf(x)
        ref = mpmath.exp(mpmath.loggamma(t + b + 0.5) - b * mpmath.log(t) - mpmath.loggamma(t + 0.5))
        assert abs(psi(beta, x) - ref) <= 1e-14 * ref
