"""The centred and clustered divided-difference series against a 50-digit
reference."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from expmoments.engines import moment, moments
from expmoments.model import GammaSumModel, MomentQuery, centred_power_moment, clustered_power_moment

DIGITS = 50


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
    points = int((digits + 10) / -math.log10(ratio)) + 8
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
def test_centred_series_bound_holds_against_reference(weights, p):
    value, err = centred_power_moment(weights, p)
    with mpmath.workdps(DIGITS):
        ref = divided_difference_reference(weights, p)
        gap = float(abs(value - ref))
    assert gap <= err <= 1e-12 * float(abs(ref))


def test_centred_series_rejections():
    with pytest.raises(ValueError):
        centred_power_moment([1.0, -1.0], 1.5)  # weights of both signs
    with pytest.raises(ValueError):
        centred_power_moment([1.0, 0.0], 1.5)  # a zero weight is u = -1
    with pytest.raises(ValueError):
        centred_power_moment([1.0, 3.0], 1.5)  # rho = 1/2
    with pytest.raises(ValueError):
        centred_power_moment([], 1.5)
    assert centred_power_moment([2.0, 2.0, 2.0], 0.0)[0] == 1.0


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


def test_moments_keeps_clustered_rows_on_the_series():
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
    # honest but wide bound; the centred series covers (-1, -0.9]
    st.one_of(st.floats(-0.9, 8.0, exclude_max=True), st.integers(0, 7).map(float)),
)
def test_clustered_series_bound_holds_against_reference(weights, p):
    value, err = clustered_power_moment(weights, p)
    with mpmath.workdps(DIGITS):
        ref = spread_reference(weights, p)
        gap = float(abs(value - ref))
    assert gap <= err <= 1e-6 * float(abs(ref))


def test_clustered_series_rejections():
    with pytest.raises(ValueError):
        clustered_power_moment([1.0, 1.0, -0.5], 1.5)  # weights of both signs
    with pytest.raises(ValueError):
        clustered_power_moment([1.0, 0.0, 0.0], 1.5)
    with pytest.raises(ValueError):
        clustered_power_moment([1.0, 1.5, 3.0], 1.5)  # no cluster
    with pytest.raises(ValueError):
        clustered_power_moment([1e-7, 1.0, 1.0 + 1e-7], 1.5)  # tau = 1/2
    with pytest.raises(ValueError):
        clustered_power_moment([1.0, 1.0, 0.5], -1.0)


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
    # partial fractions keep the first two rows at p > 0 with a bound under
    # the fallback threshold; the series takes every row they give up on
    est = moment(GammaSumModel.of(weights), MomentQuery(p=p))
    assert est.engine == "density"
    value, err = clustered_power_moment(weights, p)
    with mpmath.workdps(DIGITS):
        ref = spread_reference(weights, p)
        assert float(abs(est.value - ref)) <= est.error <= 1e-3 * float(abs(ref))
        assert float(abs(value - ref)) <= err <= 1e-8 * float(abs(ref))
