import math
from fractions import Fraction

import numpy as np
import pytest

from expmoments.model import (
    GammaSumModel,
    MomentQuery,
    PfdTerm,
    charfn,
    chs,
    even_moment_exact,
    gamma_mixture,
    partial_fraction_density,
    sample,
)
from expmoments.quadrature import integrate
from expmoments.specialfn import gaussian_abs_moment, loggamma


def test_chs_small_cases():
    assert chs([1, 1], 0) == 1
    assert chs([5, -3, 7], 0) == 1
    assert chs([1, 1], 2) == 3
    assert chs([3, 4], 2) == 37  # 9 + 12 + 16
    assert chs([1, 1], 3) == 4  # multiset count C(4, 3)


def test_chs_exact_rationals():
    x = [Fraction(1, 3), Fraction(-2, 7), Fraction(5, 2)]
    val = chs(x, 4)
    assert isinstance(val, Fraction)
    # brute force over all multisets of indices
    n = len(x)
    total = Fraction(0)
    idx = range(n)
    for a in idx:
        for b in range(a, n):
            for c in range(b, n):
                for d in range(c, n):
                    total += x[a] * x[b] * x[c] * x[d]
    assert val == total


def test_chs_sign_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        x = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10))) for _ in range(n)]
        for ell in range(6):
            assert chs([-v for v in x], ell) == (-1) ** ell * chs(x, ell)


def _chs_fraction_recurrence(x, ell):
    """h_ell(x) by the plain recurrence in Fraction arithmetic."""
    h = [Fraction(1)] + [Fraction(0)] * ell
    for w in x:
        w = Fraction(w)
        for degree in range(1, ell + 1):
            h[degree] += w * h[degree - 1]
    return h[ell]


def test_chs_scaled_integers_match_fraction_recurrence():
    rng = np.random.default_rng(17)
    kinds = (
        lambda: float(rng.uniform(-3.0, 3.0)),
        lambda: float(rng.uniform(0.0, 1.0)) ** 5,  # small floats: large denominators
        lambda: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10))),
        lambda: int(rng.integers(-5, 6)),
    )
    for _ in range(400):
        x = [kinds[int(rng.integers(len(kinds)))]() for _ in range(int(rng.integers(0, 7)))]
        for ell in (0, 1, 2, 3, 6):
            val = chs(x, ell)
            assert isinstance(val, Fraction)
            assert val == _chs_fraction_recurrence(x, ell)
    assert chs([], 0) == 1 and chs([], 3) == 0
    assert chs([np.int64(3), np.float64(0.5)], 4) == _chs_fraction_recurrence([3, 0.5], 4)


def test_generating_function_partial_sums():
    x = [Fraction(1, 3), Fraction(-1, 4), Fraction(2, 5)]
    t = Fraction(1, 2)
    prod = Fraction(1)
    for v in x:
        prod /= 1 - v * t
    acc = Fraction(0)
    for ell in range(80):
        acc += chs(x, ell) * t**ell
    assert abs(float(acc - prod)) < 1e-18


def test_even_moment_exact_values():
    assert even_moment_exact([1, 1], 2) == 6  # Var + mean^2 = 2 + 4
    assert even_moment_exact([1, -1], 2) == 2
    assert even_moment_exact([1], 4) == 24
    with pytest.raises(ValueError):
        even_moment_exact([1, 2], 3)


def test_model_validation():
    with pytest.raises(ValueError):
        GammaSumModel.of([])
    with pytest.raises(ValueError):
        GammaSumModel.of([1.0], [0.0])
    with pytest.raises(ValueError):
        GammaSumModel.of([math.inf])
    with pytest.raises(ValueError):
        GammaSumModel.of([1.0, 2.0], [1.0])


def test_canonical_form_drops_zeros_and_merges_equal_weights():
    model = GammaSumModel.of([1, 0, 2, 1], [1, 1, 1, 0.5])
    assert model.weights == (1, 2) and model.shapes == (1.5, 1.0)
    # first-appearance order, not sorted
    assert GammaSumModel.of([0.7, -1.1, 0.7, 0.0]).weights == (0.7, -1.1)
    assert GammaSumModel.of([0.7, -1.1, 0.7, 0.0]) == GammaSumModel.of([0.7, -1.1], [2.0, 1.0])
    assert GammaSumModel.of([-0.0, 3.0]).fingerprint() == "w=[3.0];g=[1.0]"
    for weights in ([0.0], [0.0, -0.0]):
        with pytest.raises(ValueError, match="nonzero weight"):
            GammaSumModel.of(weights)


def test_weights_are_stored_as_floats():
    model = GammaSumModel.of([Fraction(1, 3), 1 / 3, 0.5])
    assert model == GammaSumModel.of([1 / 3, 0.5], [2, 1])
    assert model.weights == (1 / 3, 0.5) and model.shapes == (2.0, 1.0)
    for weights in ([Fraction(1, 3), 2], [np.float64(1.5), np.float64(-2.0)], [np.float32(0.5), True]):
        assert all(type(w) is float for w in GammaSumModel.of(weights).weights)


def test_mean_variance():
    assert GammaSumModel.of([1.0]).mean_variance() == (1.0, 1.0)
    m, v = GammaSumModel.of([2**-0.5, -(2**-0.5)]).mean_variance()
    assert m == pytest.approx(0.0, abs=1e-15)
    assert v == pytest.approx(1.0, rel=1e-15)
    assert GammaSumModel.of([1.0, 2.0], [1.0, 3.0]).mean_variance() == (7.0, 13.0)


def test_charfn_values():
    m = GammaSumModel.of([1.0])
    assert charfn(m, 1.0) == pytest.approx(0.5 + 0.5j)
    lap = GammaSumModel.of([1.0, -1.0])
    for t in (0.3, 1.0, 4.0):
        val = charfn(lap, t)
        assert val.imag == pytest.approx(0.0, abs=1e-15)
        assert val.real == pytest.approx(1.0 / (1.0 + t * t), rel=1e-14)
    assert abs(charfn(GammaSumModel.of([1.0, 2.0]), 1.0)) == pytest.approx(
        ((1 + 1) * (1 + 4)) ** -0.5, rel=1e-14
    )


def test_charfn_modulus_product_rule():
    m = GammaSumModel.of([0.5, -1.2, 2.0], [1.0, 2.0, 0.7])
    for t in (0.1, 1.0, 10.0):
        expected = math.exp(
            -0.5 * sum(s * math.log1p((w * t) ** 2) for w, s in zip(m.weights, m.shapes))
        )
        assert abs(charfn(m, t)) == pytest.approx(expected, rel=1e-12)


def test_partial_fraction_density_two_scales():
    pfd = partial_fraction_density(GammaSumModel.of([2.0, 1.0]))
    # density e^(-t/2) - e^(-t) on t >= 0
    for t in (0.1, 1.0, 3.0, 10.0):
        assert pfd.density(t) == pytest.approx(math.exp(-t / 2.0) - math.exp(-t), rel=1e-13)
    assert pfd.density(-1.0) == 0.0


def test_partial_fraction_density_laplace():
    pfd = partial_fraction_density(GammaSumModel.of([1.0, -1.0]))
    coeffs = sorted((t.coeff, t.scale) for t in pfd.terms)
    assert coeffs == [(0.5, -1.0), (0.5, 1.0)]
    for t in (-2.0, -0.5, 0.5, 2.0):
        assert pfd.density(t) == pytest.approx(0.5 * math.exp(-abs(t)), rel=1e-13)
    assert pfd.density(0.0) == pytest.approx(0.5)


def test_partial_fraction_density_merges_equal_weights():
    pfd = partial_fraction_density(GammaSumModel.of([1.0, 1.0]))
    orders = sorted(t.order for t in pfd.terms)
    assert orders == [1, 2]
    for t in (0.2, 1.0, 4.0):
        assert pfd.density(t) == pytest.approx(t * math.exp(-t), rel=1e-13)


def test_partial_fraction_density_integer_shapes_expand():
    pfd = partial_fraction_density(GammaSumModel.of([1.0], [3.0]))
    # Erlang-3: t^2 e^(-t) / 2
    assert pfd.density(2.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-13)


def _pfd_term_density(pfd, t):
    """The PfdTerm docstring formula summed over the terms on t's half-line."""
    out = 0.0
    for term in pfd.terms:
        if term.scale * t > 0.0:
            r = term.order
            out += (
                term.coeff * abs(t) ** (r - 1) * math.exp(-t / term.scale)
                / (math.factorial(r - 1) * abs(term.scale) ** r)
            )
    return out


def test_one_sided_matches_the_term_formula_on_both_half_lines():
    # poles of orders 1-3 on each half-line
    model = GammaSumModel.of([0.6, 1.7, -0.9, -2.3], [3.0, 1.0, 2.0, 3.0])
    pfd = partial_fraction_density(model)
    assert {(t.scale > 0.0, t.order) for t in pfd.terms} == {
        (side, r) for side in (True, False) for r in (1, 2, 3)
    }
    for t in (1e-3, 0.25, 1.0, 3.7, 12.0, 40.0):
        for x in (t, -t):
            ref = _pfd_term_density(pfd, x)
            assert pfd._one_sided(x) == pytest.approx(ref, rel=1e-12, abs=1e-15)
            assert pfd.density(x) == pfd._one_sided(x)
    # one-sided models have nothing on the other half-line
    pos = partial_fraction_density(GammaSumModel.of([0.5, 1.5], [2.0, 1.0]))
    assert pos._one_sided(-1.0) == 0.0
    assert pos._one_sided(1.0) == pytest.approx(_pfd_term_density(pos, 1.0), rel=1e-13)


def test_one_sided_at_zero():
    pfd = partial_fraction_density(GammaSumModel.of([1.0, -1.0]))
    assert pfd._one_sided(0.0) == 0.0
    # density(0) averages the two sides just off the origin: 1/2 for Laplace
    assert pfd.density(0.0) == pytest.approx(0.5, rel=1e-13)
    # an order-2 pole vanishes at the origin
    assert partial_fraction_density(GammaSumModel.of([1.0], [2.0])).density(0.0) == pytest.approx(0.0, abs=1e-290)


def test_partial_fraction_rejections():
    # a zero weight is dropped by the model, not rejected
    assert partial_fraction_density(GammaSumModel.of([1.0, 0.0])).terms == (
        partial_fraction_density(GammaSumModel.of([1.0])).terms
    )
    with pytest.raises(ValueError):
        partial_fraction_density(GammaSumModel.of([1.0], [0.5]))
    with pytest.raises(ValueError, match="coincident"):
        partial_fraction_density(GammaSumModel.of([1.0, 1.0 + 1e-12]))


def test_partial_fraction_factors_beyond_the_float_range():
    # about the pole at 1e-100, the order-2 pole at 1e100 has c = 1 - 1e200,
    # whose square overflows: the factor, about 1e-400, is 0
    terms = partial_fraction_density(GammaSumModel.of([1e-100, 1e100], [1, 2])).terms
    assert terms[0] == PfdTerm(0.0, 1e-100, 1, 3.0)
    assert all(math.isfinite(term.coeff) for term in terms)
    # an order-110 pole at a relative gap of 1e-3: c**110 underflows to 0,
    # the factor is infinite and the coefficients leave the float range
    with pytest.raises(ValueError, match="coefficients of the pole at 1.0 leave the float range"):
        partial_fraction_density(GammaSumModel.of([1.0, 1.001], [1, 110]))


def test_orders_beyond_the_cap_are_refused_before_anything_is_built():
    # two poles whose orders sum to 10^7 + 1: one unit above the cap
    model = GammaSumModel.of([1.0, 2.0], [5e6, 5e6 + 1.0])
    with pytest.raises(ValueError, match="orders summing to 10000001 exceed"):
        partial_fraction_density(model)
    with pytest.raises(ValueError, match="orders summing to 10000001 exceed"):
        gamma_mixture(GammaSumModel.of([1.0, 1.00000001], [5e6, 5e6 + 1.0]), MomentQuery(2.5))
    # the sampler draws one weight at a time
    with pytest.raises(ValueError, match="orders summing to 10000001 exceed"):
        sample(GammaSumModel.of([1.0], [1e7 + 1.0]), 0, 4)


def test_coefficients_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        w = rng.uniform(-2, 2, n)
        if np.any(np.abs(w) < 0.05):
            continue
        ok = all(
            abs(w[i] - w[j]) > 1e-3 for i in range(n) for j in range(i + 1, n)
        )
        if not ok:
            continue
        pfd = partial_fraction_density(GammaSumModel.of([float(v) for v in w]))
        assert sum(t.coeff for t in pfd.terms) == pytest.approx(1.0, abs=1e-9)


def test_density_integrates_to_one_and_is_nonnegative():
    pfd = partial_fraction_density(GammaSumModel.of([0.7, -0.4, 1.5]))
    one_sided = np.vectorize(pfd._one_sided, otypes=[float])
    pos, _ = integrate(one_sided, 0.0, math.inf)
    neg, _ = integrate(lambda t: one_sided(-t), 0.0, math.inf)
    assert pos + neg == pytest.approx(1.0, abs=1e-9)
    for t in np.linspace(-8, 8, 161):
        assert pfd.density(float(t)) >= -1e-12


def test_density_matches_monte_carlo_histogram():
    model = GammaSumModel.of([2.0, 1.0])
    pfd = partial_fraction_density(model)
    one_sided = np.vectorize(pfd._one_sided, otypes=[float])
    draws = sample(model, seed=202, count=200_000)
    for lo, hi in ((0.0, 1.0), (1.0, 2.0), (2.0, 4.0), (4.0, 8.0)):
        mass, _ = integrate(one_sided, lo, hi)
        frac = float(np.mean((draws >= lo) & (draws < hi)))
        sigma = math.sqrt(mass * (1.0 - mass) / draws.size)
        assert abs(frac - mass) < 6.0 * sigma + 1e-4


def test_abs_power_moment_closed_forms():
    pfd = partial_fraction_density(GammaSumModel.of([2.0, 1.0]))
    assert pfd.power_moment_with_error(2.0)[0] == pytest.approx(14.0, rel=1e-12)
    assert pfd.power_moment_with_error(3.0)[0] == pytest.approx(90.0, rel=1e-12)
    lap = partial_fraction_density(GammaSumModel.of([1.0, -1.0]))
    assert lap.power_moment_with_error(1.0)[0] == pytest.approx(1.0, rel=1e-13)
    for p in (-0.5, 0.5, 2.2, 5.0):
        assert lap.power_moment_with_error(p)[0] == pytest.approx(math.exp(loggamma(p + 1.0)), rel=1e-12)


def test_gaussian_mixture_law():
    # the symmetric exponential is a Gaussian scale mixture, which pins its
    # absolute moments to 2^(p/2) Gamma(p/2 + 1) E|G|^p
    lap = partial_fraction_density(GammaSumModel.of([1.0, -1.0]))
    for p in (0.5, 1.5, 3.0, 4.5):
        lhs = lap.power_moment_with_error(p)[0]
        rhs = 2.0 ** (0.5 * p) * math.exp(loggamma(0.5 * p + 1.0)) * gaussian_abs_moment(p)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_density_even_moments_match_exact_polynomials():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 20:
        n = int(rng.integers(1, 7))
        x = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10))) for _ in range(n)]
        if any(v == 0 for v in x):
            continue
        fx = [float(v) for v in x]
        if any(
            abs(fx[i] - fx[j]) < 0.05 * max(abs(fx[i]), abs(fx[j]))
            for i in range(n)
            for j in range(i + 1, n)
        ):
            continue
        pfd = partial_fraction_density(GammaSumModel.of(fx))
        for ell in (2, 4, 6):
            exact = float(even_moment_exact(x, ell))
            assert pfd.power_moment_with_error(float(ell))[0] == pytest.approx(exact, rel=1e-9)
        checked += 1


def test_charfn_density_duality():
    model = GammaSumModel.of([2.0, 1.0, -0.5])
    one_sided = np.vectorize(partial_fraction_density(model)._one_sided, otypes=[float])
    for t in (0.5, 1.0, 2.0):
        re_pos, _ = integrate(lambda u, _t=t: np.cos(_t * u) * one_sided(u), 0.0, math.inf)
        re_neg, _ = integrate(lambda u, _t=t: np.cos(_t * u) * one_sided(-u), 0.0, math.inf)
        im_pos, _ = integrate(lambda u, _t=t: np.sin(_t * u) * one_sided(u), 0.0, math.inf)
        im_neg, _ = integrate(lambda u, _t=t: -np.sin(_t * u) * one_sided(-u), 0.0, math.inf)
        rebuilt = complex(re_pos + re_neg, im_pos + im_neg)
        assert abs(rebuilt - charfn(model, t)) < 1e-6


def test_sample_determinism_and_laws():
    model = GammaSumModel.of([1.0])
    a = sample(model, seed=5, count=1000)
    b = sample(model, seed=5, count=1000)
    assert np.array_equal(a, b)
    big = sample(model, seed=9, count=1_000_000)
    assert abs(big.mean() - 1.0) < 5.0 / math.sqrt(big.size)
    lap = sample(GammaSumModel.of([1.0, -1.0]), seed=9, count=1_000_000)
    assert abs(np.abs(lap).mean() - 1.0) < 5.0 / math.sqrt(lap.size)


def test_sample_fractional_shapes():
    # numpy's standard_gamma, below and above shape 1
    for shape, seed in ((0.3, 3), (0.5, 1), (2.7, 2), (7.5, 4)):
        s = sample(GammaSumModel.of([1.0], [shape]), seed=seed, count=400_000)
        assert abs(s.mean() - shape) < 5.0 * math.sqrt(shape / s.size)
        assert abs(s.var() - shape) < 6.0 * math.sqrt(1.0 / s.size) * shape * 3.0


def test_moment_query_validation():
    with pytest.raises(ValueError):
        MomentQuery(p=-1.0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            MomentQuery(p=bad)
        with pytest.raises(ValueError, match="finite"):
            MomentQuery(p=2.0, shift=bad)
    q = MomentQuery(p=0.5, shift=1.0, signed=True)
    assert q.signed
