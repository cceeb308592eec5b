import math
import warnings

import mpmath
import numpy as np
import pytest

from expmoments import quadrature
from expmoments.engines import _shifted_re_phi, fourier_abs_moment_from_cf
from expmoments.model import GammaSumModel
from expmoments.quadrature import (
    QuadratureError,
    integral_iqs,
    integrate,
    integrate_abs_power,
    integrate_doubling,
)
from expmoments.specialfn import closed_integral_iqs, fourier_constant, gaussian_abs_moment

SQRT_HALF_PI = 1.2533141373155003  # sqrt(pi/2), by parts down to the Gaussian integral


def test_exponential_integral():
    val, err = integrate(lambda t: np.exp(-t), 0.0, math.inf)
    assert val == pytest.approx(1.0, abs=1e-12)
    assert err >= abs(val - 1.0)


def test_gaussian_tail_integral():
    def f(t):
        return np.where(t > 1e-8, -np.expm1(-0.5 * t * t) / (t * t), 0.5)

    val, err = integrate(f, 0.0, math.inf)
    assert val == pytest.approx(SQRT_HALF_PI, rel=1e-9)
    assert err >= abs(val - SQRT_HALF_PI)


def test_arctangent_family_integral():
    def f(t):
        return (1.0 - 1.0 / (1.0 + t * t)) / (t * t)

    val, _ = integrate(f, 0.0, math.inf)
    assert val == pytest.approx(math.pi / 2.0, rel=1e-9)


def test_finite_interval_polynomial():
    val, err = integrate(lambda t: t**4, 0.0, 1.0)
    assert val == pytest.approx(0.2, rel=1e-13)
    # both embedded rules are exact on quartics; only roundoff remains
    assert err + 4e-16 * abs(val) >= abs(val - 0.2)


def test_split_at_interior_kink():
    val, _ = integrate_abs_power(np.ones_like, 1.0, 0.3, 0.0, 1.0)
    truth = 0.5 * (0.3**2 + 0.7**2)
    assert val == pytest.approx(truth, rel=1e-12)


def test_integrate_calls_f_once_per_round_on_a_node_array():
    shapes = []

    def f(t):
        shapes.append(t.shape)
        return np.exp(-t) * np.sqrt(np.abs(t - 1.0) * np.abs(t - 2.0))

    integrate(f, 0.0, math.inf)
    assert all(len(shape) == 2 and shape[1] == 15 for shape in shapes)
    # one row for the whole interval, then the halves of the panels split
    # in a round
    assert shapes[0][0] == 1
    assert all(rows % 2 == 0 for rows, _ in shapes[1:])
    assert len(shapes) - 1 < sum(rows for rows, _ in shapes[1:]) // 2


def test_kinked_integrand_meets_the_tolerance():
    # kinks at 1 and 2 and an infinite tail, refined as one interval
    def f(t):
        return np.exp(-t) * (np.sqrt(np.abs(t - 1.0)) + np.sqrt(np.abs(t - 2.0)))

    with mpmath.workdps(30):
        truth = float(mpmath.quad(
            lambda t: mpmath.exp(-t) * (mpmath.sqrt(abs(t - 1)) + mpmath.sqrt(abs(t - 2))),
            [0, 1, 2, mpmath.inf],
        ))
    val, err = integrate(f, 0.0, math.inf)
    assert err <= max(quadrature._ABS_TOL, quadrature._REL_TOL * abs(val))
    assert abs(val - truth) <= err


def test_nonconvergence_carries_best_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "_ABS_TOL", 1e-16)
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 10)
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 40)
    with pytest.raises(QuadratureError) as info:
        integrate(lambda t: np.abs(t - 1.0 / 3.0) ** -0.9, 0.0, 1.0)
    assert math.isfinite(info.value.value)
    assert info.value.err_estimate > 0.0


def test_abs_power_negative_exponent_endpoint():
    # int_0^inf |t-1|^(-1/2) e^(-t) dt; oracle: the density engine's closed
    # form of the same centered-exponential moment (no quadrature)
    from expmoments.analysis import centered_exp_abs_moment

    val, err = integrate_abs_power(lambda t: np.exp(-t), -0.5, 1.0, 0.0, math.inf)
    truth = centered_exp_abs_moment(-0.5)
    assert val == pytest.approx(truth, rel=1e-10)
    assert err >= abs(val - truth)


def test_abs_power_positive_exponent():
    val, _ = integrate_abs_power(lambda t: np.exp(-t), 1.0, 1.0, 0.0, math.inf)
    assert val == pytest.approx(2.0 / math.e, rel=1e-10)


def test_abs_power_beyond_the_float_range_is_a_quadrature_error():
    # |t|^400.5 overflows on [1e3, 2e3] while e^(-t) underflows; the true
    # integral is about 1e767, so no finite value with a bar is honest
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="non-finite integrand"):
            integrate_abs_power(lambda t: np.exp(-t), 400.5, 0.0, 1e3, 2e3)


def test_abs_power_rejects_bad_power():
    with pytest.raises(ValueError):
        integrate_abs_power(lambda t: 1.0, -1.0, 0.0, 0.0, 1.0)


def test_iqs_quadrature_matches_closed_form_on_grid():
    for q in (0.25, 0.75, 1.0, 1.25, 1.75):
        for s in (0.5, 1.0, 2.0, 10.0, 100.0):
            closed = closed_integral_iqs(q, s)
            quad, err = integral_iqs(q, s)
            assert quad == pytest.approx(closed, rel=1e-8)
            assert err >= abs(quad - closed)


def test_gaussian_fourier_identity():
    # c_q int (1 - e^(-t^2/2)) / t^(q+1) dt = E|G|^q; the s -> infinity
    # limit of the power-tail family
    for q in (0.3, 0.9, 1.5):
        val, err = fourier_abs_moment_from_cf(
            lambda t: np.exp(-0.5 * t * t),
            q,
            (1.0, 3.0, 15.0),
            lambda t: np.exp(-0.5 * t * t),
        )
        truth = gaussian_abs_moment(q)
        assert val == pytest.approx(truth, rel=1e-7)
        assert err >= abs(val - truth) * 0.1


def test_fourier_constant_consistency_with_arctangent_cell():
    # q = 1 ties the Laplace transform square to the arctangent integral
    val, _ = integral_iqs(1.0, 1.0)
    assert fourier_constant(1.0) * val == pytest.approx(
        fourier_constant(1.0) * math.pi / 2.0, rel=1e-9
    )


def test_blocks_agree_with_integrate_block_by_block():
    edges = np.array([0.25 * 2.0**k for k in range(12)])
    model = GammaSumModel.of([0.9, -1.7, 0.35], [0.8, 1.3, 2.6])
    re_phi = _shifted_re_phi(model, 1.74)
    cases = [
        # smooth, with a kink of the derivative at 0 outside the blocks
        lambda t: np.exp(-t) * t**0.3,
        # oscillatory: about 150 periods in the last block
        lambda t: np.cos(3.7 * t) / (1.0 + t * t),
        # the Fourier engine's integrand on a shifted model
        lambda t: (1.0 - re_phi(t)) / t**1.5,
    ]
    for f in cases:
        for (value, err), lo, hi in zip(quadrature._refine(f, edges), edges[:-1], edges[1:]):
            ref, ref_err = integrate(f, lo, hi)
            assert err <= max(1e-14, 1e-10 * abs(value))
            assert abs(value - ref) <= err + ref_err
            # one interval is one block of the same driver, bit for bit
            assert (ref, ref_err) == quadrature._refine(f, np.array([lo, hi]))[0]


def test_block_failure_abandons_the_later_blocks(monkeypatch):
    def f(t):
        return np.where(t < 5.0, 1.0 / (t * t), np.nan)

    outcomes = quadrature._refine(f, np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0]))
    for (value, err), truth in zip(outcomes[:2], (0.5, 0.25)):
        assert abs(value - truth) <= err <= 1e-10 * truth
    assert isinstance(outcomes[2], QuadratureError)
    assert len(outcomes) == 3
    # the same failure from `integrate`
    with pytest.raises(QuadratureError, match="non-finite"):
        integrate(f, 4.0, 8.0)
    # a block that exhausts its panels while refining: from t = 4 on, about
    # 75 and then 300 periods per block against a budget of 30 panels
    def chirp(t):
        return np.where(t < 4.0, 1.0 / (t * t), np.sin(10.0 * t * t))

    monkeypatch.setattr(quadrature, "_MAX_PANELS", 30)
    outcomes = quadrature._refine(chirp, np.array([1.0, 2.0, 4.0, 8.0, 16.0]))
    assert [type(outcome) for outcome in outcomes[:2]] == [tuple, tuple]
    assert isinstance(outcomes[2], QuadratureError) and "panel budget" in str(outcomes[2])
    assert len(outcomes) == 3


def test_doubling_blocks_past_the_stop_change_nothing():
    # the third batch holds [4, 8] and [8, 16]; the body stops at 8, so the
    # NaN block [8, 16] is integrated ahead but never read
    evaluated = []

    def f(t, clean=False):
        evaluated.append(float(np.max(t)))
        return np.where((t <= 8.0) | clean, 1.0 / (t * t), np.nan)

    def done(hi, body):
        return body >= 0.8

    value, err, hi = integrate_doubling(f, 1.0, done)
    assert max(evaluated) > 8.0
    assert hi == 8.0
    assert (value, err) == integrate_doubling(lambda t: f(t, clean=True), 1.0, done)[:2]
    sequential = [integrate(lambda t: 1.0 / (t * t), lo, 2.0 * lo) for lo in (1.0, 2.0, 4.0)]
    assert abs(value - sum(v for v, _ in sequential)) <= err + sum(e for _, e in sequential)
    assert value == pytest.approx(0.875, rel=1e-13)


def test_doubling_blocks_raise_where_they_are_read():
    def f(t):
        return np.where(t <= 8.0, 1.0 / (t * t), np.nan)

    # the NaN block is read before the body reaches 0.9
    with pytest.raises(QuadratureError, match="non-finite"):
        integrate_doubling(f, 1.0, lambda hi, body: body >= 0.9)
    # a stop that never comes: blocks [2, 2] after the first, up to the cap
    with pytest.raises(QuadratureError, match="within 4000 doubling blocks"):
        integrate_doubling(lambda t: 1.0 / (t * t), 1.0, lambda hi, body: False, cap=2.0)


def test_fourier_blocks_past_the_stop_change_nothing():
    # a synthetic re_phi that adds a body of about 1e15 from t = 2000 on:
    # the first batch ends at the first edge E >= 1000, the block [E, 2E]
    # takes the bump and the blocks stop at 2E < 4000, while the second
    # batch, predicted from the body before the bump, reaches on to t ~ 3e6;
    # beyond t = 8000 re_phi is NaN
    evaluated = []

    def re_phi(t, clean=False):
        evaluated.append(float(np.max(t)))
        out = np.where(t >= 2000.0, 1.0 - 1e12 * t * t, np.exp(-0.5 * t * t))
        return np.where((t <= 8000.0) | clean, out, np.nan)

    def envelope(t):
        return 1.0 / t

    moments = (1.0, 3.0, 15.0)
    value, err = fourier_abs_moment_from_cf(re_phi, 1.0, moments, envelope)
    assert max(evaluated) > 8000.0
    assert math.isfinite(value) and value > 1e14
    clean = fourier_abs_moment_from_cf(lambda t: re_phi(t, clean=True), 1.0, moments, envelope)
    assert (value, err) == clean


def test_iqs_quadrature_tends_to_the_gaussian_limit():
    # (1 + t^2/s)^(-(1+s)/2) -> exp(-t^2/2) as s grows, so c_q I(q, s) ->
    # E|G|^q, with a correction of order 1/s; near t = 0 the series branch
    # must hold alpha t^2/s small, not t^2/s alone
    for q in (0.25, 0.75, 1.0, 1.75):
        limit = gaussian_abs_moment(q) / fourier_constant(q)
        for s in (1e6, 1e9, 1e12):
            val, err = integral_iqs(q, s)
            assert abs(val - limit) <= err + limit / s


def test_a_panel_too_narrow_to_halve_ends_the_refinement():
    # a panel 1e-300 wide is not halved, and a jump inside it keeps the
    # GK15 error far above the tolerance
    with pytest.raises(QuadratureError, match="max subdivision depth reached"):
        integrate(lambda t: np.where(t > 5e-301, 1e300, 0.0), 0.0, 1e-300)


def test_a_half_with_a_non_finite_value_fails_the_integral():
    # finite on the nodes of [0, 1], infinite at the centre node of its left half
    with pytest.raises(QuadratureError, match="non-finite integrand"):
        integrate(lambda t: 1.0 / (t - 0.25), 0.0, 1.0)


def test_integrate_on_an_empty_or_reversed_interval():
    assert integrate(lambda t: np.exp(t), 2.0, 2.0) == (0.0, 0.0)
    with pytest.raises(ValueError, match="a <= b"):
        integrate(lambda t: np.exp(t), 2.0, 1.0)
