"""The density closed form at every shift against an mpmath referee, and
the shift-0 bound against exact rationals.

The referee is written apart from the package's formulas: partial
fractions by mpmath's Taylor coefficients of the other factors about each
pole, and each Erlang term's moment from Gamma values above the shift,
Kummer's 1F1 below it and Tricomi's U for a shift off its support.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expmoments import specialfn
from expmoments.engines import moment, moments
from expmoments.model import GammaSumModel, MomentQuery, _power_moment_scaled
from expmoments.quadrature import integrate
from expmoments.specialfn import erlang_abs_moment


def _erlang_terms(model, dps):
    """[(c, w, r)]: the density of S is sum c times that of w Gamma(r)."""
    terms = []
    with mpmath.workdps(dps):
        poles = [(mpmath.mpf(float(w)), int(s)) for w, s in zip(model.weights, model.shapes)]
        for a, order in poles:
            others = [(w, s) for w, s in poles if w != a]

            def rest(u):
                return mpmath.fprod((1 - w / a + w / a * u) ** -s for w, s in others)

            taylor = mpmath.taylor(rest, 0, order - 1)
            terms += [(taylor[order - r], a, r) for r in range(1, order + 1)]
    return terms


def _term_moment(a, r, p, m, signed):
    """E|X - m|^p (times sgn(X - m) when signed) for X = a Gamma(r)."""
    if a < 0:
        value = _term_moment(-a, r, p, -m, signed)
        return -value if signed else value
    z = m / a
    scale = a**p / mpmath.factorial(r - 1)
    if z <= 0:
        return scale * mpmath.gamma(r) * (-z) ** (p + r) * mpmath.hyperu(r, r + p + 1, -z)
    above = mpmath.exp(-z) * mpmath.fsum(
        mpmath.binomial(r - 1, i) * z ** (r - 1 - i) * mpmath.gamma(p + i + 1) for i in range(r)
    )
    below = z ** (p + r) * mpmath.beta(r, p + 1) * mpmath.hyp1f1(r, r + p + 1, -z)
    return scale * (above - below if signed else above + below)


def reference(model, q):
    """E|S - shift|^p (times sgn(S - shift) when signed), with digits to
    spare for weights down to a relative gap of 1e-4."""
    dps = 30 + 5 * int(sum(model.shapes))
    with mpmath.workdps(dps):
        p, m = mpmath.mpf(q.p), mpmath.mpf(q.shift)
        return float(mpmath.fsum(c * _term_moment(a, r, p, m, q.signed) for c, a, r in _erlang_terms(model, dps)))


@pytest.fixture
def row_integrals(monkeypatch):
    """The Erlang rows integrated in place of their cancelling closed form."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(specialfn, "integrate", counted)
    return calls


def test_erlang_abs_moment_matches_mpmath():
    rng = random.Random(3)
    for case in range(400):
        # integer p, p close to -1, and z on both sides of the series and
        # continued-fraction ranges
        p = float(rng.randint(0, 8)) if case % 5 == 0 else rng.uniform(-0.95, 8.0)
        k = rng.randint(0, 5)
        zeta = rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(-6.0, 3.5))
        upper, lower, err = erlang_abs_moment(p, k, zeta)
        with mpmath.workdps(40):
            # the moments about zeta of x^k e^(-x) = k! times the law of Gamma(k+1)
            want = [
                mpmath.factorial(k) * _term_moment(mpmath.mpf(1), k + 1, mpmath.mpf(p), mpmath.mpf(zeta), signed)
                for signed in (False, True)
            ]
        for signed, ref in zip((False, True), want):
            value = upper - lower if signed else upper + lower
            assert abs(value - ref) <= err, (p, k, zeta, signed)


def test_erlang_abs_moment_off_support_matches_mpmath(row_integrals):
    # high orders far off the support: the alternating sum cancels on many
    # of these rows, which then take the row integral
    rng = random.Random(5)
    for _ in range(400):
        p = rng.uniform(-0.95, 8.0)
        k = rng.randint(0, 100)
        z = math.exp(rng.uniform(math.log(0.05), math.log(400.0)))
        upper, lower, err = erlang_abs_moment(p, k, -z)
        assert lower == 0.0
        with mpmath.workdps(40):
            ref = mpmath.factorial(k) * _term_moment(mpmath.mpf(1), k + 1, mpmath.mpf(p), -mpmath.mpf(z), False)
        assert abs(upper - ref) <= err <= 1e-9 * upper, (p, k, z)
    assert 50 <= len(row_integrals) <= 350


def test_erlang_abs_moment_raises_beyond_the_float_range():
    # Gamma(200.5) alone is beyond the float range
    for zeta in (-1.0, 0.5):
        with pytest.raises(ValueError, match="float range"):
            erlang_abs_moment(199.5, 0, zeta)
    with pytest.raises(ValueError, match="float range"):
        erlang_abs_moment(2.5, 0, 800.0)


def _sweep_case(rng):
    n = rng.randint(1, 5)
    weights = [rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(math.log(0.2), math.log(2.0))) for _ in range(n)]
    if n >= 2 and rng.random() < 0.5:
        # a same-sign pair whose partial fractions cancel
        weights[1] = weights[0] * (1.0 + 10.0 ** rng.uniform(-4.0, -2.0))
    model = GammaSumModel.of(weights, [float(rng.randint(1, 2)) for _ in range(n)])
    if rng.random() < 0.25:
        shift = model.mean_variance()[0]
    else:
        shift = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 3.0)
    return model, MomentQuery(rng.uniform(-0.95, 8.0), shift, rng.random() < 0.5)


def test_shifted_and_signed_density_bars_hold_against_mpmath(row_integrals):
    rng = random.Random(9)
    for _ in range(300):
        model, q = _sweep_case(rng)
        est = moment(model, q, engine="density")
        assert abs(est.value - reference(model, q)) <= est.error, (model, q, est)
    # every query stays on a closed form
    assert not row_integrals


@pytest.mark.parametrize(
    "model, query",
    [
        (GammaSumModel.of([0.29, 0.51, 1.73, 1.84], [2.0, 1.0, 2.0, 2.0]), MomentQuery(3.54, 1.74)),
        (GammaSumModel.of([0.29, 0.51, 1.73, 1.84], [2.0, 1.0, 2.0, 2.0]), MomentQuery(3.54, 1.74, signed=True)),
        (GammaSumModel.of([0.375, 1.276, 0.505, 1.76], [2.0] * 4), MomentQuery(5.30, 1.87, signed=True)),
    ],
)
def test_cancelling_poles_stay_on_the_closed_form(model, query, row_integrals):
    est = moment(model, query)
    assert est.engine == "density" and not row_integrals
    assert abs(est.value - reference(model, query)) <= est.error


def test_row_integral_takes_a_closed_form_that_cancels(row_integrals):
    # an order-12 pole far beyond the shift: the row's alternating sum of
    # incomplete gammas cancels every digit (its bar is about 1000 times the
    # value), and one weight has no gamma mixture, so the row is integrated
    k, a, p, shift = 11, 0.1, 2.5, -10.0
    value, err = specialfn._beyond_piece(p, k, -shift / a, (p + k + 1) * math.log(a))
    assert err > 1e-3 * abs(value)
    model = GammaSumModel.of([a], [k + 1.0])
    query = MomentQuery(p, shift)
    est = moment(model, query)
    assert est.engine == "density" and row_integrals
    assert abs(est.value - reference(model, query)) <= est.error <= 1e-9 * est.value


@pytest.mark.parametrize(
    "model, query, engine",
    [
        (
            GammaSumModel.of([-0.30434, -0.30448, -0.20980, -0.41542, -0.21025], [4, 2, 4, 3, 3]),
            MomentQuery(8.745, -4.543, signed=True),
            "montecarlo",
        ),
        (
            GammaSumModel.of([0.71989, -1.62887, -0.98408, -1.50334, -1.61813, -1.78866], [3, 4, 4, 2, 4, 1]),
            MomentQuery(0.0506, -1.292),
            "fourier",
        ),
    ],
)
def test_clustered_high_orders_fall_through_at_once(model, query, engine):
    # both closed forms give poor bounds; nothing else is tried on the
    # density engine before the next engine answers
    start = time.perf_counter()
    est = moment(model, query, count=100_000)
    assert est.engine == engine
    assert time.perf_counter() - start < 1.0


def _exact(model, p):
    num, den = _power_moment_scaled(model.weights, model.shapes, 0.0, p)
    return Fraction(num, den)


@given(
    st.lists(st.floats(0.05, 2.0) | st.floats(-2.0, -0.05), min_size=2, max_size=7),
    st.lists(st.integers(1, 2), min_size=7, max_size=7),
    st.integers(2, 6),
)
def test_shift0_density_bound_holds_against_exact_rationals(weights, shapes, p):
    # |S|^p is a polynomial in S at even p, and at odd p for weights of one sign
    if p % 2:
        weights = [abs(w) for w in weights]
    model = GammaSumModel.of(weights, shapes[: len(weights)])
    est = moment(model, MomentQuery(float(p)), engine="density")
    assert abs(Fraction(est.value) - _exact(model, p)) <= Fraction(est.error)


@given(st.lists(st.lists(st.floats(0.0, 2.0), min_size=4, max_size=4), min_size=1, max_size=6), st.sampled_from((3, 5)))
def test_batch_rows_bound_holds_against_exact_rationals(rows, p):
    # rows of one sign take the exact engine at odd p: correctly rounded
    W = np.array(rows)
    values, errors = moments(W, float(p))
    for row, value, err in zip(W, values, errors):
        if row.any():
            exact = _exact(GammaSumModel.of(row.tolist()), p)
            assert value == float(exact) and err == 0.0


@pytest.mark.parametrize("weights", [[1e-300], [2e-80, 3e-80], [1e-103, -2e-103], [1e-300, 2e-300]])
@pytest.mark.parametrize("p", [2, 4, 6])
@pytest.mark.parametrize("shift_in_weights", [-2.0, 0.1, 0.5, 3.0])
def test_shifted_bar_covers_a_moment_below_the_float_range(weights, p, shift_in_weights):
    # the pieces and their bars underflow together; the bar charges the
    # subnormals the rows can lose, so it covers the exact moment
    model = GammaSumModel.of(weights)
    shift = shift_in_weights * abs(weights[0])
    est = moment(model, MomentQuery(float(p), shift), engine="density")
    num, den = _power_moment_scaled(model.weights, model.shapes, shift, p)
    assert abs(Fraction(est.value) - Fraction(num, den)) <= Fraction(est.error)


def test_shifted_odd_moment_below_the_float_range_has_a_nonzero_bar():
    # E|S - m|^3 is about 6e-900 here, below the smallest subnormal
    est = moment(GammaSumModel.of([1e-300]), MomentQuery(3.0, 1e-301), engine="density")
    num, den = _power_moment_scaled((1e-300,), (1.0,), 1e-301, 3)
    assert est.value == 0.0 and 0 < Fraction(num, den) <= Fraction(est.error)


def test_shifted_bar_covers_high_orders_whose_pieces_underflow():
    # a piece's exp can underflow into the subnormals while the sum it
    # scales is large (order k, shift zeta): [1e-45^5] at shift 20 w, p = 2,
    # read 2.3000001371168973e-88 against 2.3e-88 within a bar of 2e-100
    for a, k, z, p in itertools.product([1e-45, 3e-46, 1e-60, 1e-100, 1e-200, 1e-290], [1, 3, 5, 8],
                                        [-30.0, -3.0, 0.5, 3.0, 20.0, 60.0], [2, 4]):
        model = GammaSumModel.of([a], [k])
        try:
            est = moment(model, MomentQuery(float(p), z * a), engine="density")
        except ValueError:
            continue  # the term table leaves the float range
        num, den = _power_moment_scaled(model.weights, model.shapes, z * a, p)
        assert abs(Fraction(est.value) - Fraction(num, den)) <= Fraction(est.error), (a, k, z, p)
