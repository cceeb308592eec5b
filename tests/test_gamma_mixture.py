"""The gamma mixture about each group of close weights against 50-digit
references."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from expmoments.engines import _mixture_moment, moment, moments
from expmoments.model import GammaSumModel, MomentQuery, gamma_mixture

DIGITS = 50


def mixture_moment(weights, p, signed=False):
    """(value, error) of E|S|^p (signed) on the gamma mixture; an example
    without two distinct weights of one sign close together, which the
    mixture leaves to partial fractions, is skipped."""
    model = GammaSumModel.of(weights)
    try:
        est = _mixture_moment(model, MomentQuery(p=p, signed=signed))
    except ValueError:
        assume(False)
    return est.value, est.error


def divided_difference_reference(weights, p, digits=DIGITS):
    """E|S|^p = Gamma(p+1) f[|w_1|..|w_n|], f(t) = t^(p+n-1), by the Cauchy
    integral of the divided difference around the weights.

    The trapezoidal rule on the circle |z - c| = r about c = mean|w| converges
    geometrically for weights inside it and the branch point 0 outside; the
    working precision is raised by the digits the small circle cancels, so
    repeated and nearly coincident weights need no special case.
    """
    n = len(weights)
    c = sum(abs(mpmath.mpf(w)) for w in weights) / n
    rho = float(max(abs(abs(mpmath.mpf(w)) - c) for w in weights) / c)
    ratio = max(math.sqrt(rho), 1e-6)  # r / c, geometric mean of rho and 1
    # the powers (z - c)^(-m) that alias onto the mean carry (c / r)^(n-1)
    # from the n-fold pole: n more points outrun it
    points = int((digits + 10) / -math.log10(ratio)) + 8 + n
    with mpmath.workdps(digits + int(-(n - 1) * math.log10(ratio)) + 20):
        p = mpmath.mpf(p)
        w = [abs(mpmath.mpf(x)) for x in weights]
        c = sum(w) / n
        r = c * ratio
        acc = 0
        for j in range(points):
            z = c + r * mpmath.expjpi(mpmath.mpf(2 * j) / points)
            g = z ** (p + n - 1) * (z - c)
            for x in w:
                g /= z - x
            acc += g
        return +(mpmath.gamma(p + 1) * acc.real / points)


def test_reference_matches_closed_forms():
    with mpmath.workdps(DIGITS):
        # distinct weights: Gamma(p+1) (b^(p+1) - a^(p+1)) / (b - a)
        a, b, p = mpmath.mpf(0.75), mpmath.mpf(2), mpmath.mpf(1.5)
        want = mpmath.gamma(p + 1) * (b ** (p + 1) - a ** (p + 1)) / (b - a)
        assert abs(divided_difference_reference([0.75, 2.0], 1.5) - want) < 1e-45 * want
        # Erlang 3: Gamma(p+3) / Gamma(3) w^p
        want = mpmath.gamma(mpmath.mpf(4.5)) / 2 * mpmath.mpf(0.5) ** 1.5
        assert abs(divided_difference_reference([-0.5] * 3, 1.5) - want) < 1e-45 * want


@st.composite
def clusters(draw):
    """Weights base * (1 + spread * t_j) of one sign, shapes 1-3, with exact
    duplicates both from the shapes and from equal offsets."""
    base = draw(st.floats(0.1, 10.0))
    spread = draw(st.one_of(st.just(0.0), st.floats(-10.0, -0.7).map(lambda e: 10.0**e)))
    offsets = draw(st.lists(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)), min_size=1, max_size=3))
    shapes = draw(st.lists(st.integers(1, 3), min_size=len(offsets), max_size=len(offsets)))
    sign = draw(st.sampled_from((1.0, -1.0)))
    weights = [sign * base * (1.0 + spread * t) for t in offsets]
    return [w for w, s in zip(weights, shapes) for _ in range(s)]


exponents = st.one_of(
    st.floats(-1.0, 8.0, exclude_min=True, exclude_max=True),
    st.integers(0, 7).map(float),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(clusters(), exponents)
def test_mixture_bound_holds_against_reference_on_clusters(weights, p):
    value, err = mixture_moment(weights, p)
    with mpmath.workdps(DIGITS):
        ref = divided_difference_reference(weights, p)
        gap = float(abs(value - ref))
    assert gap <= err <= 1e-12 * float(abs(ref))


def test_gamma_mixture_rejections():
    with pytest.raises(ValueError):
        gamma_mixture(GammaSumModel.of([1.0, 1.0 + 1e-9], [0.5, 1.0]), MomentQuery(1.5))  # fractional shape
    with pytest.raises(ValueError):
        gamma_mixture(GammaSumModel.of([1.0, -1.0, 2.0]), MomentQuery(1.5))  # no two weights close
    with pytest.raises(ValueError):
        # r = 1 - 1.09^-17 = 0.77 and beta = 1 + p / (4 p r): r beta > 1
        gamma_mixture(GammaSumModel.of([1.09**k for k in range(18)]), MomentQuery(60.0))
    assert mixture_moment([2.0, 2.0 * (1.0 + 1e-9), 2.0], 0.0)[0] == pytest.approx(1.0, rel=1e-15)


def test_a_tail_bound_beyond_the_float_range_is_taken_from_logs():
    # at p = 150.5 the tail's B_0 alone leaves the float range while the tail
    # share times B_0 does not: the density engine answers, against the
    # divided difference Gamma(p + 1) (b^(p+1) - a^(p+1)) / (b - a) at 80 digits
    est = moment(GammaSumModel.of([1.0, 1.00000001]), MomentQuery(150.5))
    assert est.engine == "density"
    with mpmath.workdps(80):
        a, b, p = mpmath.mpf(1.0), mpmath.mpf(1.00000001), mpmath.mpf(150.5)
        ref = mpmath.gamma(p + 1) * (b ** (p + 1) - a ** (p + 1)) / (b - a)
        assert abs(est.value - ref) <= est.error <= 1e-12 * ref
    # with a third weight the product itself leaves the float range
    assert gamma_mixture(GammaSumModel.of([1.0, 1.00000001, 1.3]), MomentQuery(150.5))[1] == math.inf


def test_gamma_mixture_weights_are_a_probability_mixture():
    weights = [0.5, 0.5 * (1 + 1e-3), 0.5 * (1 + 4e-2), -1.0, -2.0, -2.0 * (1 + 1e-7)]
    model = GammaSumModel.of(weights, [1, 2, 1, 1, 1, 3])
    poles, tail = gamma_mixture(model, MomentQuery(2.5, shift=0.3))
    assert sorted(v for v, _ in poles) == [-2.0, -1.0, 0.5]
    for v, weights in poles:
        shape = {0.5: 4, -1.0: 1, -2.0: 4}[v]
        assert all(w == 0.0 for w in weights[: shape - 1]) and min(weights) >= 0.0
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-15)
    assert 0.0 < tail < 1e-15


@pytest.mark.parametrize(
    "weights, shapes, p",
    [
        ([1.0, 1.0 + 2e-9], [2, 1], 1.5),  # inside the partial-fraction rejection region
        ([1.0, 1.0 + 1e-12, 1.0 - 3e-12], [1, 1, 1], -0.6),  # inside the 1e-10 merge gap
        ([0.5, 0.5 * (1 + 1e-7), 0.5 * (1 - 2e-7), 0.5 * (1 + 4e-7)], [1, 1, 1, 1], 5.3),
        ([-2.0, -2.0 * (1 + 3e-6)], [3, 1], 3.0),  # all negative, odd integer p
    ],
)
def test_auto_dispatch_keeps_clusters_on_the_density_engine(weights, shapes, p):
    est = moment(GammaSumModel.of(weights, shapes), MomentQuery(p=p))
    assert est.engine == "density"
    expanded = [w for w, s in zip(weights, shapes) for _ in range(s)]
    with mpmath.workdps(DIGITS):
        ref = divided_difference_reference(expanded, p)
        assert float(abs(est.value - ref)) <= est.error <= 1e-12 * float(abs(ref))


def test_moments_keeps_clustered_rows_on_the_mixture():
    rows = [
        [1.0, 1.0 + 1e-6, 1.0 + 2e-6, 1.0 + 3e-6],
        [0.3, 0.3 * (1 + 1e-5), 0.0, 0.3 * (1 - 1e-5)],
        [0.8, 0.8, 0.8 * (1 + 1e-11), 0.8],
    ]
    for p in (-0.75, 0.5, 3.9, 5.0):
        values, errors = moments(np.array(rows), p)
        for row, value, err in zip(rows, values, errors):
            with mpmath.workdps(DIGITS):
                ref = divided_difference_reference([w for w in row if w > 0.0], p)
                assert float(abs(value - ref)) <= err <= 1e-12 * float(abs(ref))


def spread_reference(weights, p, digits=DIGITS):
    """Gamma(p+1) f[|w_1|..|w_n|] for weights that may sit far apart: the
    sum over groups of weights within 1% of their neighbours of the Cauchy
    integral on a small circle about the group, the residue itself for a
    single weight.  Each circle keeps the other weights and the branch
    point 0 outside, so the trapezoidal rule converges geometrically."""
    n = len(weights)
    ws = sorted(abs(float(w)) for w in weights)
    groups = [[ws[0]]]
    for w in ws[1:]:
        if w - groups[-1][-1] < 0.01 * w:
            groups[-1].append(w)
        else:
            groups.append([w])
    with mpmath.workdps(digits + 20):
        lost = 0.0
        circles = []
        for g in groups:
            c = mpmath.fsum(mpmath.mpf(w) for w in g) / len(g)
            far = min([abs(mpmath.mpf(w) - c) for w in ws if w not in g] + [c])
            near = max(abs(mpmath.mpf(w) - c) for w in g)
            r = mpmath.sqrt(max(near, far * mpmath.mpf(1e-6)) * far)
            circles.append((g, c, r, float(max(near / r, r / far))))
            lost += (len(g) - 1) * max(0.0, float(-mpmath.log10(r / c)))
    with mpmath.workdps(digits + 20 + int(lost)):
        p = mpmath.mpf(p)
        w = [mpmath.mpf(x) for x in ws]
        total = 0
        for g, c, r, ratio in circles:
            if len(g) == 1:
                x = mpmath.mpf(g[0])
                term = x ** (p + n - 1)
                for y in w:
                    if y != x:
                        term /= x - y
                total += term
                continue
            points = int((digits + 10) / -math.log10(ratio)) + 8
            acc = 0
            for j in range(points):
                e = mpmath.expjpi(mpmath.mpf(2 * j) / points)
                z = c + r * e
                g_z = z ** (p + n - 1) * r * e
                for y in w:
                    g_z /= z - y
                acc += g_z
            total += acc.real / points
        return +(mpmath.gamma(p + 1) * total)


def test_spread_reference_matches_closed_forms():
    with mpmath.workdps(DIGITS):
        a, b, p = mpmath.mpf(0.1), mpmath.mpf(2), mpmath.mpf(-0.4)
        want = mpmath.gamma(p + 1) * (b ** (p + 1) - a ** (p + 1)) / (b - a)
        assert abs(spread_reference([0.1, 2.0], -0.4) - want) < 1e-45 * want
        want = divided_difference_reference([0.5, 0.5, 0.6, 0.7], 3.3)
        assert abs(spread_reference([0.5, 0.5, 0.6, 0.7], 3.3) - want) < 1e-45 * want


@st.composite
def clusters_and_singletons(draw):
    """One or two clusters of 2-3 weights (exact duplicates included) among
    0-2 single weights, all at least 10% apart, of one sign, shapes 1-2."""
    base = draw(st.floats(0.2, 5.0))
    spread = 10.0 ** draw(st.floats(-11.0, -4.0))
    sites = draw(st.lists(st.floats(0.2, 2.0), min_size=2, max_size=4, unique=True))
    sites.sort()
    assume(all(b - a >= 0.1 * b for a, b in zip(sites, sites[1:])))
    n_clusters = draw(st.integers(1, min(2, len(sites))))
    weights, shapes = [], []
    for k, site in enumerate(sites):
        size = draw(st.integers(2, 3)) if k < n_clusters else 1
        for _ in range(size):
            t = draw(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)))
            weights.append(base * site * (1.0 + spread * t))
            shapes.append(draw(st.integers(1, 2)))
    sign = draw(st.sampled_from((1.0, -1.0)))
    return [sign * w for w, s in zip(weights, shapes) for _ in range(s)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    clusters_and_singletons(),
    # near p = -1 the partial fractions cancel Gamma(p+1)-sized terms, an
    # honest but wide bound
    st.one_of(st.floats(-0.9, 8.0, exclude_max=True), st.integers(0, 7).map(float)),
)
def test_mixture_bound_holds_against_reference_on_clusters_and_singletons(weights, p):
    value, err = mixture_moment(weights, p)
    with mpmath.workdps(DIGITS):
        ref = spread_reference(weights, p)
        gap = float(abs(value - ref))
    assert gap <= err <= 1e-6 * float(abs(ref))


@pytest.mark.parametrize(
    "weights",
    [
        # schur_scan rows that used to end in Monte Carlo: a pair of nearly
        # coincident weights among weights too far off for the centred series
        [0.7769931747310179, 0.7650478688724371, 0.7650420923173707, 0.03967864269187947],
        [0.6376995428293823, 0.24415707318210686, 0.7868487590850413, 0.6377001363624586],
        [1.0, 1.0 + 1e-12, 0.3, 2.0],  # inside the 1e-10 merge gap
    ],
)
@pytest.mark.parametrize("p", [-0.75, 0.5, 1.5, 3.0, 4.5])
def test_auto_dispatch_keeps_clusters_among_single_weights_on_the_density_engine(weights, p):
    # each row has a pair inside the merge gap, which the mixture takes
    est = moment(GammaSumModel.of(weights), MomentQuery(p=p))
    assert est.engine == "density"
    value, err = mixture_moment(weights, p)
    with mpmath.workdps(DIGITS):
        ref = spread_reference(weights, p)
        assert float(abs(est.value - ref)) <= est.error <= 1e-3 * float(abs(ref))
        assert float(abs(value - ref)) <= err <= 1e-8 * float(abs(ref))


def partial_fraction_reference(weights, p, signed, shift=0.0, digits=DIGITS):
    """E|S - m|^p (times sgn(S - m) when signed) for distinct exponential
    weights, S = sum_k w_k E_k: the density of S is sum_k c_k times that of
    w_k E, c_k = prod_(j != k) 1/(1 - w_j/w_k), so the query is
    sum_k c_k |w_k|^p E|E - a_k|^p (times sgn(w_k) sgn(E - a_k)),
    a_k = m / w_k, at a working precision raised by the digits the close
    pairs cancel."""
    lost = sum(
        max(0.0, -math.log10(abs(a - b) / max(abs(a), abs(b))))
        for i, a in enumerate(weights)
        for b in weights[i + 1 :]
    )
    with mpmath.workdps(digits + int(lost) + 20):
        w = [mpmath.mpf(x) for x in weights]
        p = mpmath.mpf(p)
        total = 0
        for k, wk in enumerate(w):
            c = 1
            for j, wj in enumerate(w):
                if j != k:
                    c /= 1 - wj / wk
            a = mpmath.mpf(shift) / wk
            if a <= 0:
                # E - a > 0: e^(-a) Gamma(p+1, -a)
                above, below = mpmath.exp(-a) * mpmath.gammainc(p + 1, -a), 0
            else:
                # int_0^a u^p e^u du = sum_j a^(p+j+1) / (j! (p+j+1))
                above = mpmath.exp(-a) * mpmath.gamma(p + 1)
                series = mpmath.nsum(lambda j: a ** (p + j + 1) / (mpmath.factorial(j) * (p + j + 1)), [0, mpmath.inf])
                below = mpmath.exp(-a) * series
            part = (above - below) * mpmath.sign(wk) if signed else above + below
            total += c * abs(wk) ** p * part
        return +total


def test_partial_fraction_reference_matches_closed_forms():
    with mpmath.workdps(DIGITS):
        # Laplace: E|S|^p = Gamma(p+1), E|S|^p sgn S = 0
        assert abs(partial_fraction_reference([1.0, -1.0], 2.5, False) - mpmath.gamma(3.5)) < 1e-45
        assert abs(partial_fraction_reference([1.0, -1.0], 2.5, True)) < 1e-45
        want = divided_difference_reference([0.5, 0.5 * (1 + 1e-9), 0.6], 3.3)
        assert abs(partial_fraction_reference([0.5, 0.5 * (1 + 1e-9), 0.6], 3.3, False) - want) < 1e-45 * want


@st.composite
def clusters_among_other_sign(draw):
    """A cluster of 2-3 distinct weights of one sign, spread 1e-11 to 1e-4,
    among 1-2 weights of the other sign that are well below or well above
    it, so that neither sign's share of S cancels the other's."""
    base = draw(st.floats(0.3, 3.0))
    spread = 10.0 ** draw(st.floats(-11.0, -4.0))
    offsets = draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=3, unique=True))
    assume(min(abs(a - b) for i, a in enumerate(offsets) for b in offsets[i + 1 :]) > 0.05)
    scale = draw(st.sampled_from((draw(st.floats(0.05, 0.4)), draw(st.floats(2.5, 6.0)))))
    others = draw(st.lists(st.floats(0.8, 1.25), min_size=1, max_size=2, unique=True))
    assume(len(others) == 1 or abs(others[0] - others[1]) > 0.05)
    sign = draw(st.sampled_from((1.0, -1.0)))
    cluster = [sign * base * (1.0 + spread * t) for t in offsets]
    return cluster + [-sign * base * scale * o for o in others]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(clusters_among_other_sign(), st.floats(-0.9, 8.0, exclude_max=True), st.booleans())
def test_mixture_bound_holds_against_reference_on_clusters_among_the_other_sign(weights, p, signed):
    value, err = mixture_moment(weights, p, signed)
    with mpmath.workdps(DIGITS):
        ref = partial_fraction_reference(weights, p, signed)
        gap = float(abs(value - ref))
    assert gap <= err <= 1e-9 * float(abs(ref))


@pytest.mark.parametrize(
    "weights, p, shift, signed",
    [
        ([1.0, 1.000000001, -1.0], 3.0, 0.0, False),
        ([1.0, 1.000000001, -1.0], 3.0, 0.0, True),
        ([1.0, 1.000000001, -1.0], 2.5, 0.5, False),
        ([1.0, 1.000001, -1.0], 2.5, 0.0, False),
        ([0.486, 0.48604, -0.726], 5.3, 0.0, False),
    ],
)
def test_clusters_among_the_other_sign_stay_on_the_density_engine(weights, p, shift, signed):
    est = moment(GammaSumModel.of(weights), MomentQuery(p=p, shift=shift, signed=signed))
    assert est.engine == "density"
    with mpmath.workdps(DIGITS):
        ref = partial_fraction_reference(weights, p, signed, shift)
        assert float(abs(est.value - ref)) <= est.error
    # the closed form at shift 0 is exact to ulps; the quadrature to its tolerance
    assert est.error <= (1e-12 if shift == 0.0 else 1e-9) * abs(est.value)
