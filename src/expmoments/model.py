"""Distribution models for weighted sums of independent exponential and
gamma random variables.

Holds the exact complete-homogeneous-symmetric-polynomial moment
arithmetic, the exact cumulant recurrence for integer moments about a
shift, characteristic functions, the closed-form two-sided
Erlang-mixture density obtained by partial fractions, and seeded
sampling.  Models are immutable values, safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from .specialfn import loggamma

__all__ = [
    "GammaSumModel",
    "MomentQuery",
    "PfdTerm",
    "PartialFractionDensity",
    "chs",
    "even_moment_exact",
    "centred_power_moment",
    "clustered_power_moment",
    "charfn",
    "partial_fraction_density",
    "sample",
]

_MERGE_GAP = 1e-10
# highest order of the centred series; its tail is charged wherever it stops
_SERIES_MAX_ORDER = 200
# the clustered series joins sorted weights closer than this relative gap;
# partial fractions between its clusters then see gaps at least this wide
_CLUSTER_GAP = 1e-3
# highest total order of the clustered series, whose every multi-index
# costs one partial-fraction expansion; its tail is charged wherever it stops
_CLUSTER_MAX_ORDER = 60
# machine epsilon with a little slack, the unit of the closed-form roundoff bound
_UNIT_ROUNDOFF = 1.1e-16


@dataclass(frozen=True)
class GammaSumModel:
    """The random variable S = sum_j weights[j] * V_j with V_j ~ Gamma(shapes[j]).

    Shape 1 (the default) is the standard exponential.  Weights may carry
    either sign; shapes are strictly positive.  The model is kept in one
    canonical form: zero weights (0 or -0.0) are dropped, since they add
    nothing to S, and equal weights merge into the place of their first
    appearance with their shapes added, since Gamma(a) + Gamma(b) is
    Gamma(a + b) in law.  The weights are not sorted.  A model whose
    weights are all zero raises ValueError.
    """

    weights: tuple
    shapes: tuple

    def __post_init__(self):
        weights = tuple(self.weights)
        shapes = tuple(float(s) for s in self.shapes)
        if len(shapes) != len(weights):
            raise ValueError("weights and shapes must have the same length")
        if not all(math.isfinite(float(w)) for w in weights):
            raise ValueError("weights must be finite")
        if not all(s > 0.0 and math.isfinite(s) for s in shapes):
            raise ValueError("shapes must be positive and finite")
        merged = {}
        for w, s in zip(weights, shapes):
            if w != 0:
                merged[w] = merged.get(w, 0.0) + s
        if not merged:
            raise ValueError("model needs at least one nonzero weight")
        object.__setattr__(self, "weights", tuple(merged))
        object.__setattr__(self, "shapes", tuple(merged.values()))

    @classmethod
    def of(cls, weights: Sequence, shapes: Sequence | None = None) -> "GammaSumModel":
        weights = tuple(weights)
        if shapes is None:
            shapes = (1.0,) * len(weights)
        return cls(weights, tuple(shapes))

    @property
    def integer_shapes(self) -> bool:
        return all(float(s).is_integer() for s in self.shapes)

    def expanded_weights(self) -> tuple:
        """Weights with integer shapes unrolled into repeated exponentials."""
        if not self.integer_shapes:
            raise ValueError("expansion requires integer shapes")
        out = []
        for w, s in zip(self.weights, self.shapes):
            out.extend([w] * int(s))
        return tuple(out)

    def mean_variance(self) -> tuple[float, float]:
        mean = sum(float(w) * s for w, s in zip(self.weights, self.shapes))
        var = sum(float(w) ** 2 * s for w, s in zip(self.weights, self.shapes))
        return mean, var

    def cumulant(self, r: int) -> float:
        """r-th cumulant, (r-1)! sum_j w_j^r shape_j."""
        if r < 1:
            raise ValueError("cumulant order must be >= 1")
        return math.factorial(r - 1) * sum(float(w) ** r * s for w, s in zip(self.weights, self.shapes))

    def fingerprint(self) -> str:
        ws = ",".join(repr(float(w)) for w in self.weights)
        ss = ",".join(repr(s) for s in self.shapes)
        return f"w=[{ws}];g=[{ss}]"


@dataclass(frozen=True)
class MomentQuery:
    """A request for E|S - shift|^p, optionally signed by sgn(S - shift)."""

    p: float
    shift: float = 0.0
    signed: bool = False

    def __post_init__(self):
        if math.isnan(self.p) or self.p <= -1.0:
            raise ValueError(f"moment exponent must exceed -1, got {self.p!r}")


def chs(x: Sequence, ell: int) -> Fraction:
    """Complete homogeneous symmetric polynomial h_ell(x), exact.

    h_ell is homogeneous of degree ell, so the recurrence runs on the
    integers D x_j, with D the least common denominator of the exact
    rationals x_j (see `_chs_scaled`), and the result is h_ell(D x) / D^ell.
    """
    if ell < 0:
        raise ValueError("degree must be nonnegative")
    xs = [w if isinstance(w, (int, float, Fraction)) else Fraction(w) for w in x]
    h, d = _chs_scaled(xs, ell)
    return Fraction(h, d**ell)


def _chs_scaled(x: Sequence, ell: int) -> tuple[int, int]:
    """(h_ell(D x), D) on Python integers, with D the least common
    denominator of the x_j, which must have `as_integer_ratio` (int, float,
    Fraction).  h_ell(x) = h_ell(D x) / D^ell exactly, without a gcd per
    step."""
    ratios = [w.as_integer_ratio() for w in x]
    d = math.lcm(*(den for _, den in ratios))
    return _h_table([num * (d // den) for num, den in ratios], ell)[ell], d


def _h_table(x: Sequence, max_ell: int) -> list:
    """h_0(x) .. h_max_ell(x) by the recurrence h_ell(x_1..x_n) =
    h_ell(x_1..x_{n-1}) + x_n h_{ell-1}(x_1..x_n), h_0 = 1; exact on
    integers, in floating point on floats."""
    h = [1] + [0] * max_ell
    for w in x:
        for degree in range(1, max_ell + 1):
            h[degree] += w * h[degree - 1]
    return h


def _power_moment_scaled(weights: Sequence, shapes: Sequence, shift: float, p: int) -> tuple[int, int]:
    """(num, den) with E (S - shift)^p = num / den exactly, for integer
    p >= 0, any positive shapes and any shift: the moments of S - shift
    from its cumulants kappa_r = (r-1)! sum_j s_j w_j^r, kappa_1 less the
    shift, by mu_k = sum_i C(k-1, i-1) kappa_i mu_{k-i}, on Python integers.

    With the weights and the shift over their least common denominator D
    (w_j = a_j / D, shift = b / D) and the shapes over theirs, E
    (s_j = c_j / E), the integers P_i = sum_j c_j a_j^i (less E b at i = 1)
    give kappa_i = (i-1)! P_i / (E D^i), and M_k = mu_k (E D)^k obeys
    M_k = sum_i (k-1)! / (k-i)! E^(i-1) P_i M_{k-i}; den = (E D)^p."""
    ratios = [float(w).as_integer_ratio() for w in weights] + [float(shift).as_integer_ratio()]
    d = math.lcm(*(den for _, den in ratios))
    a = [num * (d // den) for num, den in ratios]
    b = a.pop()
    shape_ratios = [float(s).as_integer_ratio() for s in shapes]
    e = math.lcm(*(den for _, den in shape_ratios))
    c = [num * (e // den) for num, den in shape_ratios]
    # scaled[i] = E^(i-1) P_i
    scaled = [0] * (p + 1)
    powers = c
    for i in range(1, p + 1):
        powers = [x * y for x, y in zip(powers, a)]
        scaled[i] = e ** (i - 1) * sum(powers)
    if p >= 1:
        scaled[1] -= e * b
    moments = [1] + [0] * p
    for k in range(1, p + 1):
        acc = 0
        falling = 1  # (k-1)! / (k-i)!
        for i in range(1, k + 1):
            acc += falling * scaled[i] * moments[k - i]
            falling *= k - i
        moments[k] = acc
    return moments[p], (e * d) ** p


def even_moment_exact(x: Sequence, ell: int) -> Fraction:
    """E (sum_j x_j E_j)^ell = ell! h_ell(x) exactly, for even ell.

    Even ell makes the power moment equal the absolute moment; odd ell is
    rejected because the signed power of a signed sum is not an
    absolute moment.
    """
    if ell < 0 or ell % 2 != 0:
        raise ValueError(f"even nonnegative degree required, got {ell!r}")
    return math.factorial(ell) * chs(x, ell)


def charfn(model: GammaSumModel, t: float) -> complex:
    """E exp(itS) = prod_j (1 - i w_j t)^(-shape_j), principal branch per factor."""
    out = complex(1.0, 0.0)
    for w, s in zip(model.weights, model.shapes):
        out *= (1.0 - 1j * float(w) * t) ** (-s)
    return out


@dataclass(frozen=True)
class PfdTerm:
    """coeff * |t|^(order-1) exp(-t/scale) / ((order-1)! |scale|^order),
    supported on the half-line sign(scale) t > 0.

    sensitivity is the relative-error amplification of coeff under weight
    roundoff, sum_j m_j |w_k| / |w_k - w_j| over the other poles; error
    budgets scale with it because close poles breed huge cancelling
    coefficients.
    """

    coeff: float
    scale: float
    order: int
    sensitivity: float = 1.0


@dataclass(frozen=True)
class PartialFractionDensity:
    """Two-sided signed Erlang mixture; the closed-form density of a
    distinct-weight exponential/Erlang sum."""

    terms: tuple

    def density(self, t: float) -> float:
        t = float(t)
        if t == 0.0:
            return 0.5 * (self._one_sided(1e-300) + self._one_sided(-1e-300))
        return self._one_sided(t)

    @cached_property
    def _half_lines(self) -> tuple[tuple, tuple]:
        """The terms of the half-lines t > 0 and t < 0, each as rows
        (1 / |scale|, order - 1, coeff / ((order-1)! |scale|^order))."""
        rows = ([], [])
        for term in self.terms:
            a = abs(term.scale)
            r = term.order
            rows[term.scale < 0.0].append((1.0 / a, r - 1, term.coeff / (math.factorial(r - 1) * a**r)))
        return tuple(rows[0]), tuple(rows[1])

    def _one_sided(self, t: float) -> float:
        """The density at t from the terms on t's half-line; 0 at t = 0."""
        if t == 0.0:
            return 0.0
        at = abs(t)
        log_at = math.log(at)
        out = 0.0
        for inv_scale, k, c in self._half_lines[t < 0.0]:
            out += c * math.exp(k * log_at - at * inv_scale)
        return out

    def power_moment_with_error(self, p: float, signed: bool = False) -> tuple[float, float]:
        """Closed-form power moment with an absolute roundoff bound.

        The bound charges each term's magnitude with machine epsilon times
        its coefficient sensitivity, which is what cancellation between
        close poles actually costs.
        """
        if p <= -1.0:
            raise ValueError(f"moment exponent must exceed -1, got {p!r}")
        total = 0.0
        err = 0.0
        for term in self.terms:
            r = term.order
            mag = term.coeff * math.exp(
                loggamma(p + r) - loggamma(float(r)) + p * math.log(abs(term.scale))
            )
            total += mag * (math.copysign(1.0, term.scale) if signed else 1.0)
            err += term_roundoff(mag, term.sensitivity)
        return total, err


def term_roundoff(mag, sensitivity):
    """Absolute roundoff charged to a closed-form moment term of magnitude
    mag: machine epsilon times |mag|, amplified by the term's coefficient
    sensitivity.  Works elementwise on numpy arrays."""
    return abs(mag) * (2.0 + sensitivity) * _UNIT_ROUNDOFF


def centred_power_moment(weights: Sequence, p: float) -> tuple[float, float]:
    """E|S|^p for S = sum_k w_k E_k, all w_k of one sign, by the Taylor
    series of a divided difference about the weights' mean; returns
    (value, absolute error bound).

    Hermite-Genocchi gives E|S|^p = Gamma(p+1) f[|w_1|..|w_n|] for
    f(t) = t^(p+n-1).  About c = mean|w|, with u_k = (|w_k| - c) / c,

        E|S|^p = Gamma(p+n)/Gamma(n) c^p sum_m beta_m h_m(u),
        beta_0 = 1,  beta_{m+1} = beta_m (p - m) / (n + m)

    (McCurdy, Ng & Parlett, Math. Comp. 43, 1984), accurate however close
    the weights are.  Since |beta_m h_m(u)| <= a_m = |C(p, m)| rho^m with
    rho = max|u_k|, and a_m decreases for m >= p, the series converges for
    rho < 1 and its tail after M >= p is at most a_{M+1} / (1 - rho).
    Raises ValueError unless rho < 1/2.

    The bound charges that tail; the rounding of the sum, 6m + n + 2 units
    of a_m on term m; the rounding of u, 2 units on each u_k carried
    through dF/du_k for F(u) = E (1 + D.u)^p, D uniform on the simplex; and
    the rounding of the exponent log Gamma(p+n) - log Gamma(n) + p log c,
    16 units of |log Gamma| + 1 for each `loggamma`.
    """
    ws = [abs(float(w)) for w in weights]
    n = len(ws)
    signs = {math.copysign(1.0, float(w)) for w in weights}
    if not n or len(signs) > 1 or not all(0.0 < w < math.inf for w in ws):
        raise ValueError("the centred series needs nonzero finite weights of one sign")
    c = math.fsum(ws) / n
    u = [(w - c) / c for w in ws]
    rho = max(map(abs, u))
    if not rho < 0.5:
        raise ValueError(f"weights spread {rho!r} about their mean; the centred series needs < 1/2")

    # the sum is at least floor, so the loop stops once the tail is below
    # an eighth of a unit of it
    floor = min((1.0 - rho) ** p, (1.0 + rho) ** p)
    a = 1.0
    weighted = n + 2.0  # sum of (6m + n + 2) a_m: the rounding of the sum
    order = 0
    while True:
        a_next = a * abs(p - order) / (order + 1) * rho
        tail = a_next / (1.0 - rho)
        if order >= p and (tail <= 0.125 * _UNIT_ROUNDOFF * floor or order >= _SERIES_MAX_ORDER):
            break
        order += 1
        a = a_next
        weighted += (6 * order + n + 2) * a
    h = _h_table(u, order)
    beta = 1.0
    terms = [1.0]
    for m in range(order):
        beta *= (p - m) / (n + m)
        terms.append(beta * h[m + 1])
    total = math.fsum(terms)

    lg_top = loggamma(p + n)
    lg_bottom = loggamma(float(n))
    log_c = p * math.log(c)
    exponent = lg_top - lg_bottom + log_c
    scale = math.exp(exponent)
    u_units = 2.0 * rho * abs(p) * max((1.0 - rho) ** (p - 1.0), (1.0 + rho) ** (p - 1.0))
    exponent_units = (
        16.0 * (abs(lg_top) + abs(lg_bottom) + 2.0) + 3.0 * abs(log_c) + 2.0 * abs(exponent) + 2.0
    )
    err = scale * (tail + _UNIT_ROUNDOFF * (weighted + u_units + exponent_units * abs(total)))
    return scale * total, err


def clustered_power_moment(weights: Sequence, p: float) -> tuple[float, float]:
    """E|S|^p for S = sum_k w_k E_k, all w_k of one sign, where some weights
    cluster and others stand apart; returns (value, absolute error bound).

    Sorted |w| split into clusters at relative gaps of _CLUSTER_GAP or more.
    Each cluster C_j of r_j > 1 weights has centre c_j (its mean) and
    offsets d_i = |w_i| - c_j, exact by Sterbenz's lemma.  With
    f(t) = t^(p+n-1), a divided difference expands about the centres as

        f[all weights] = sum_m prod_j h_{m_j}(d of C_j) f[c_j^(r_j + m_j) .., singletons]

    (the series of `centred_power_moment`, which is the case of one cluster
    and no singletons).  Each coefficient is a confluent divided difference
    on well-separated nodes: the partial-fraction density of the merged
    model, read at exponent q = p - |m| as
    sum_terms coeff scale^q (q+1)_(order-1) / (order-1)!.  E|S|^p is
    Gamma(p+1) times the sum.

    By Hermite-Genocchi every coefficient of order s = |m| > p is at most
    |C(p+n-1, n+s-1)| v^(p-s), v = min|w|, and the h products of order s
    sum to at most C(s+R-1, R-1) d^s, d = max|d_i|, R = sum r_j; so the
    bound b_s on order s falls by at least tau = d / v per order once
    s >= p, and the tail after M >= p is at most b_(M+1) / (1 - tau).
    Raises ValueError unless some weights cluster and tau < 1/2.

    The bound charges that tail; each partial-fraction term's roundoff
    (`term_roundoff`) once per step of the highest pole order, and its
    power and rising factorial, 3 order + 3 units; the rounding of the h products, 2 (m_j + r_j) + 2 units of the
    products of h_m(|d|) per cluster; and the rounding of Gamma(p+1), as
    in `centred_power_moment`.
    """
    signs = {math.copysign(1.0, float(w)) for w in weights}
    ws = sorted(abs(float(w)) for w in weights)
    n = len(ws)
    if not n or len(signs) > 1 or not all(0.0 < w < math.inf for w in ws):
        raise ValueError("the clustered series needs nonzero finite weights of one sign")
    if not p > -1.0:
        raise ValueError(f"moment exponent must exceed -1, got {p!r}")
    groups = [[ws[0]]]
    for w in ws[1:]:
        if w - groups[-1][-1] < _CLUSTER_GAP * w:
            groups[-1].append(w)
        else:
            groups.append([w])
    clusters = [g for g in groups if len(g) > 1]
    singles = [g[0] for g in groups if len(g) == 1]
    if not clusters:
        raise ValueError("no weights cluster; partial fractions apply")
    centres = [math.fsum(g) / len(g) for g in clusters]
    offsets = [[w - c for w in g] for g, c in zip(clusters, centres)]
    d = max(abs(x) for xs in offsets for x in xs)
    tau = d / ws[0]
    if not tau < 0.5:
        raise ValueError(f"cluster spread {d!r} against smallest weight {ws[0]!r}; the clustered series needs < 1/2")

    sizes = [len(g) for g in clusters]
    big = sum(sizes)
    top = loggamma(p + n) - loggamma(float(n))
    floor = math.exp(top + p * min(math.log(ws[0]), math.log(ws[-1])))
    b = math.exp(top + p * math.log(ws[0]))
    order = 0
    while True:
        b_next = b * (order + big) / (order + 1) * abs(p - order) / (n + order) * tau
        tail = b_next / (1.0 - tau)
        if order >= p and (tail <= 0.125 * _UNIT_ROUNDOFF * floor or order >= _CLUSTER_MAX_ORDER):
            break
        order += 1
        b = b_next

    h = [_h_table(xs, order) for xs in offsets]
    h_abs = [_h_table([abs(x) for x in xs], order) for xs in offsets]
    terms = []
    err_sum = 0.0
    for m in _multi_indices(len(clusters), order):
        s = sum(m)
        model = GammaSumModel.of(centres + singles, [r + k for r, k in zip(sizes, m)] + [1] * len(singles))
        # the expansion's coefficient recurrences run as many steps as the
        # highest pole order, so each term's roundoff is charged that often
        steps = max(r + k for r, k in zip(sizes, m))
        mags = []
        f_err = 0.0
        for term in partial_fraction_density(model).terms:
            rising = 1.0
            for i in range(1, term.order):
                rising *= (p - (s - i)) / i
            mag = term.coeff * math.pow(term.scale, p - s) * rising
            mags.append(mag)
            f_err += steps * term_roundoff(mag, term.sensitivity) + (3 * term.order + 3) * _UNIT_ROUNDOFF * abs(mag)
        f = math.fsum(mags)
        h_prod = 1.0
        h_prod_abs = 1.0
        h_units = len(m) + 1.0
        for j, k in enumerate(m):
            h_prod *= h[j][k]
            h_prod_abs *= h_abs[j][k]
            h_units += 2 * (k + sizes[j]) + 2
        terms.append(h_prod * f)
        err_sum += abs(h_prod) * (f_err + _UNIT_ROUNDOFF * abs(f)) + h_prod_abs * abs(f) * h_units * _UNIT_ROUNDOFF
    total = math.fsum(terms)

    lg = loggamma(p + 1.0)
    scale = math.exp(lg)
    value = scale * total
    exponent_units = 16.0 * (abs(lg) + 1.0) + 2.0 * abs(lg) + 3.0
    err = scale * err_sum + tail + exponent_units * _UNIT_ROUNDOFF * abs(value)
    return value, err


def _multi_indices(k: int, order: int):
    """Every k-tuple of nonnegative integers with sum at most order."""
    if k == 0:
        yield ()
        return
    for first in range(order + 1):
        for rest in _multi_indices(k - 1, order - first):
            yield (first,) + rest


def partial_fraction_density(model: GammaSumModel) -> PartialFractionDensity:
    """Expand prod_j (1 - i w_j t)^(-shape_j) into partial fractions.

    Integer shapes only.  The model's equal weights arrive merged, so
    each weight is one pole of order its shape; nearly coincident distinct
    weights are rejected because their coefficients blow up.
    """
    if not model.integer_shapes:
        raise ValueError("partial fractions require integer shapes")
    poles = [(float(w), int(s)) for w, s in zip(model.weights, model.shapes)]
    for i in range(len(poles)):
        for j in range(i + 1, len(poles)):
            wi, wj = poles[i][0], poles[j][0]
            if abs(wi - wj) < _MERGE_GAP * max(abs(wi), abs(wj)):
                raise ValueError(
                    f"weights {wi!r} and {wj!r} are nearly coincident "
                    "(relative gap < 1e-10): merge them or perturb them apart"
                )

    terms = []
    for k, (wk, mk) in enumerate(poles):
        series = [1.0] + [0.0] * (mk - 1)
        sensitivity = 1.0
        for j, (wj, mj) in enumerate(poles):
            if j == k:
                continue
            sensitivity += mj * max(abs(wk), abs(wj)) / abs(wk - wj)
            ratio = wj / wk
            c = 1.0 - ratio
            base = c ** (-mj)
            # (c + ratio u)^(-mj) = base * sum_i (-1)^i C(mj+i-1, i) (ratio/c)^i u^i
            factor = [base]
            coef = base
            for i in range(1, mk):
                coef *= -(ratio / c) * (mj + i - 1) / i
                factor.append(coef)
            series = _convolve_trunc(series, factor, mk)
        for r in range(1, mk + 1):
            terms.append(PfdTerm(coeff=series[mk - r], scale=wk, order=r, sensitivity=sensitivity))
    return PartialFractionDensity(terms=tuple(terms))


def _convolve_trunc(a, b, n):
    out = [0.0] * n
    for i, ai in enumerate(a):
        if ai == 0.0:
            continue
        for j, bj in enumerate(b):
            if i + j >= n:
                break
            out[i + j] += ai * bj
    return out


def sample(model: GammaSumModel, seed: int, count: int) -> np.ndarray:
    """count realizations of S, deterministic in seed.

    Exponentials use the inverse CDF -log(1 - U); integer shapes are sums
    of exponentials; non-integer shapes use Marsaglia-Tsang rejection
    (shape < 1 boosted by U^(1/shape) from shape + 1).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    return _draw(model, np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed))), count)


def _draw(model: GammaSumModel, rng: np.random.Generator, count: int) -> np.ndarray:
    """count realizations of S from rng, one weight after another."""
    out = np.zeros(count)
    for w, s in zip(model.weights, model.shapes):
        out += float(w) * _gamma_variates(rng, s, count)
    return out


def _gamma_variates(rng: np.random.Generator, shape: float, count: int) -> np.ndarray:
    if float(shape).is_integer():
        k = int(shape)
        u = rng.random((count, k))
        return -np.log1p(-u).sum(axis=1)
    if shape < 1.0:
        base = _marsaglia_tsang(rng, shape + 1.0, count)
        u = rng.random(count)
        return base * np.power(u, 1.0 / shape)
    return _marsaglia_tsang(rng, shape, count)


def _marsaglia_tsang(rng: np.random.Generator, shape: float, count: int) -> np.ndarray:
    # squeeze-free rejection: accept when log U < x^2/2 + d - dv + d log v
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(count)
    todo = np.arange(count)
    while todo.size:
        x = rng.standard_normal(todo.size)
        v = (1.0 + c * x) ** 3
        u = rng.random(todo.size)
        pos = v > 0.0
        logv = np.where(pos, np.log(np.where(pos, v, 1.0)), 0.0)
        accept = pos & (np.log(u + 1e-320) < 0.5 * x * x + d - d * v + d * logv)
        out[todo[accept]] = d * v[accept]
        todo = todo[~accept]
    return out
