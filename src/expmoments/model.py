"""Distribution models for weighted sums of independent exponential and
gamma random variables.

Holds the exact complete-homogeneous-symmetric-polynomial moment
arithmetic, the exact cumulant recurrence for integer moments about a
shift, characteristic functions, the closed-form two-sided
Erlang-mixture density obtained by partial fractions, the gamma mixture
that makes each group of close weights one pole of mixed order (so that
partial fractions stay well conditioned on clusters of either sign), and
seeded sampling.  Models are immutable values, safe to share across
workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .specialfn import _NUMPY_EXP_UNITS, _UNIT_ROUNDOFF, erlang_abs_moment, exp_units, loggamma

__all__ = [
    "GammaSumModel",
    "MomentQuery",
    "PfdTerm",
    "PartialFractionDensity",
    "chs",
    "even_moment_exact",
    "charfn",
    "partial_fraction_density",
    "gamma_mixture",
    "sample",
]

# partial fractions reject two weights closer than this relative gap:
# a pair at gap g costs them about 2 log10(1/g) digits, at 1e-4 half of
# double precision; the gamma mixture takes such weights exactly
_MERGE_GAP = 1e-4
# the widest spread r = 1 - min|w| / max|w| of a group of the gamma mixture,
# whose terms fall by about the ratio r
_CLUSTER_SPREAD = 0.4
# the largest ratio of a group's spread to its relative distance from the
# nearest pole of its sign outside it, by which the partial fractions of the
# group's orders grow
_CLUSTER_RATIO = 0.25
# highest order of a group's gamma mixture; its tail is charged wherever it stops
_MIXTURE_MAX_ORDER = 100
# uniforms per side of one pass of the Erlang kernel `_erlang_rows`
# (128 KiB): whole chunks that fit share a pass, and a larger chunk runs in
# blocks of this size.  Two of criterion 16's chunks of 3,125 pairs of two
# columns fit, where half this budget held one; on a 2-core Xeon VM the
# criterion ran about 12% faster than at half, and no faster at 2 or 4
# times.  The first pass's buffers reach glibc's initial 128 KiB mmap
# threshold, which freeing them raises, so later queries take them from the
# heap; blocks 4 times larger ran the benchmark's montecarlo workload about
# 1.2 times slower
_ERLANG_BLOCK = 16384


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

    def fingerprint(self) -> str:
        ws = ",".join(repr(float(w)) for w in self.weights)
        ss = ",".join(repr(s) for s in self.shapes)
        return f"w=[{ws}];g=[{ss}]"


@dataclass(frozen=True)
class MomentQuery:
    """A request for E|S - shift|^p, optionally signed by sgn(S - shift);
    p must be finite and exceed -1, and the shift must be finite."""

    p: float
    shift: float = 0.0
    signed: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p > -1.0):
            raise ValueError(f"moment exponent must be finite and exceed -1, got {self.p!r}")
        if not math.isfinite(self.shift):
            raise ValueError(f"shift must be finite, got {self.shift!r}")


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
    integers, in floating point on floats.  Entries of x that are object
    arrays of integers, one per coordinate, give every degree of every
    row at once, one array operation per coordinate and degree."""
    h = [1] + [0] * max_ell
    for w in x:
        for degree in range(1, max_ell + 1):
            h[degree] += w * h[degree - 1]
    return h


def _power_moment_scaled(weights: Sequence, shapes: Sequence, shift: float, p: int) -> tuple[int, int]:
    """(num, den) with E (S - shift)^p = num / den exactly, for integer
    p >= 0, any positive shapes and any shift (`_power_moments_scaled`)."""
    moments, scale = _power_moments_scaled(weights, shapes, shift, p)
    return moments[p], scale**p


def _power_moments_scaled(weights: Sequence, shapes: Sequence, shift: float, p: int) -> tuple[list, int]:
    """(M, scale) with E (S - shift)^k = M[k] / scale^k exactly for k = 0 .. p
    (integer p >= 0, any positive shapes and any shift): the moments of
    S - shift from its cumulants kappa_r = (r-1)! sum_j s_j w_j^r, kappa_1
    less the shift, by mu_k = sum_i C(k-1, i-1) kappa_i mu_{k-i}, on Python
    integers.  M[k] depends on the cumulants up to order k only, so one
    recurrence to p gives every lower moment as a recurrence to k would.

    With the weights and the shift over their least common denominator D
    (w_j = a_j / D, shift = b / D) and the shapes over theirs, E
    (s_j = c_j / E), the integers P_i = sum_j c_j a_j^i (less E b at i = 1)
    give kappa_i = (i-1)! P_i / (E D^i), and M_k = mu_k (E D)^k obeys
    M_k = sum_i (k-1)! / (k-i)! E^(i-1) P_i M_{k-i}; the scale is E D."""
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
    return moments, e * d


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
        (1 / |scale|, order - 1, coeff / ((order-1)! |scale|^order), term).
        Raises ValueError where a row's coefficient leaves the float range
        (a pole of high order), which would otherwise overflow, divide by
        zero or vanish silently."""
        rows = ([], [])
        for term in self.terms:
            a = abs(term.scale)
            r = term.order
            try:
                c = term.coeff / (math.factorial(r - 1) * a**r)
            except (OverflowError, ZeroDivisionError):
                c = 0.0
            if term.coeff and not 0.0 < abs(c) < math.inf:
                raise ValueError(f"the density term of order {r} at scale {term.scale!r} leaves the float range")
            rows[term.scale < 0.0].append((1.0 / a, r - 1, c, term))
        return tuple(rows[0]), tuple(rows[1])

    def _one_sided(self, t: float) -> float:
        """The density at t from the terms on t's half-line; 0 at t = 0."""
        if t == 0.0:
            return 0.0
        at = abs(t)
        log_at = math.log(at)
        out = 0.0
        for inv_scale, k, c, _ in self._half_lines[t < 0.0]:
            out += c * math.exp(k * log_at - at * inv_scale)
        return out

    def power_moment_with_error(self, p: float, signed: bool = False, shift: float = 0.0) -> tuple[float, float]:
        """E|S - shift|^p (times sgn(S - shift) when signed) in closed form,
        with an absolute bound on its rounding.

        At shift 0 each term is coeff Gamma(p+r) |scale|^p / Gamma(r).
        Otherwise each row c tau^k e^(-tau/a) of the term table
        (`_half_lines`, tau = |t| on its half-line) is integrated against
        |tau - mu|^p, mu = side * shift, by `specialfn.erlang_abs_moment` at
        zeta = mu / a, split at mu where mu > 0: the part above mu counts
        with the sign of its side when signed, the part below with the
        opposite one.  Raises ValueError where the term table or a piece
        leaves the float range.

        The bound charges each term its coefficient's sensitivity and the
        product that forms it (`term_roundoff`), the rounding of exp's
        argument (`specialfn.exp_units`) or of the pieces and of zeta, and
        the sum of the terms, one unit of their magnitudes per term.  Each
        term's exp (at shift 0) or pieces (otherwise) and its product with
        the coefficient also lose up to |coefficient| + 1 smallest
        subnormals where they underflow: coeff at shift 0, the row's c
        otherwise.
        """
        if p <= -1.0:
            raise ValueError(f"moment exponent must exceed -1, got {p!r}")
        n = len(self.terms)
        total = err = mags = underflow = 0.0
        if shift == 0.0:
            # numpy's log and exp, as engines.moments takes them on arrays
            with np.errstate(over="ignore"):
                for term in self.terms:
                    r = term.order
                    log_gamma = loggamma(p + r)
                    log_base = loggamma(float(r))
                    log_power = p * float(np.log(abs(term.scale)))
                    power = float(np.exp(log_gamma - log_base + log_power))
                    if power == math.inf:
                        raise ValueError("a density moment term leaves the float range")
                    mag = term.coeff * power
                    units = exp_units((log_gamma, log_base, log_power), (p + r, float(r)), _NUMPY_EXP_UNITS)
                    total += mag * (math.copysign(1.0, term.scale) if signed else 1.0)
                    err += term_roundoff(mag, term.sensitivity, n, units)
                    mags += abs(mag)
                    underflow += abs(term.coeff) + 1.0
            return total, err + n * _UNIT_ROUNDOFF * mags + underflow * math.ulp(0.0)
        for side, rows in zip((1.0, -1.0), self._half_lines):
            mu = side * shift
            for _, k, c, term in rows:
                a = abs(term.scale)
                zeta = mu / a
                upper, lower, piece_err = erlang_abs_moment(p, k, zeta, (p + (k + 1)) * math.log(a))
                mag = c * (upper - lower if signed else upper + lower)
                total += side * mag if signed else mag
                # zeta's rounding moves either piece by at most
                # |p| + k + 1 + |zeta| units of it, and the pieces' sum and
                # product with c cost two more; the row's division by
                # (order-1)! |scale|^order is one more factor of its coefficient
                err += abs(c) * (piece_err + (abs(p) + k + 3.0 + abs(zeta)) * _UNIT_ROUNDOFF * (upper + lower))
                err += term_roundoff(mag, term.sensitivity, n + 1)
                mags += abs(mag)
                underflow += abs(c) + 1.0
        return total, err + n * _UNIT_ROUNDOFF * mags + underflow * math.ulp(0.0)


def term_roundoff(mag, sensitivity, count=0, units=0.0):
    """Absolute roundoff charged to a closed-form moment term of magnitude
    mag, in units of machine epsilon times |mag|: 2 + sensitivity for its
    coefficient's amplification of weight roundoff, 4 for each of the count
    factors of the product that forms the coefficient, and units more, those
    of the exp that scales it (`specialfn.exp_units`).  Works elementwise
    on numpy arrays.  Near the top of the float range, where |mag| times
    the units overflows, epsilon scales |mag| first."""
    factor = 2.0 + sensitivity + 4.0 * count + units
    charge = abs(mag) * factor * _UNIT_ROUNDOFF
    if isinstance(charge, float):
        return abs(mag) * _UNIT_ROUNDOFF * factor if math.isinf(charge) else charge
    return np.where(np.isinf(charge), abs(mag) * _UNIT_ROUNDOFF * factor, charge)


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
                    f"(relative gap < {_MERGE_GAP:g}): merge them or perturb them apart"
                )

    return _partial_fractions([(w, (0.0,) * (m - 1) + (1.0,)) for w, m in poles])


def _partial_fractions(poles: Sequence, magnitudes: bool = False) -> PartialFractionDensity:
    """Partial fractions of prod_j sum_r d_j[r-1] (1 - i w_j t)^(-r) over
    poles (w_j, d_j) at distinct w_j: a pole of order m is d_j = (0, .., 0, 1),
    a gamma mixture's group carries its mixture weights by order.

    About pole k, u = 1 - i w_k t turns every other factor (1 - i w_j t)^(-r)
    into (c + ratio u)^(-r), c = 1 - ratio, ratio = w_j / w_k, whose Taylor
    series in u is c^(-r) sum_i (-1)^i C(r+i-1, i) (ratio/c)^i u^i; their
    product times sum_r d_k[r-1] u^(-r) has the principal part of pole k.
    With magnitudes, c and ratio/c enter by their absolute values, so each
    coefficient becomes the sum of the magnitudes of its parts, the scale
    of its rounding.  The sensitivity counts the highest order len(d_j) of
    each other pole.
    """
    if len(poles) == 1:
        # a lone pole is its own expansion
        w, d = poles[0]
        return PartialFractionDensity(tuple(PfdTerm(c, w, r) for r, c in enumerate(d, start=1)))
    # the orders of each pole that carry weight, as (order, weight)
    weighted = [[(r, d) for r, d in enumerate(dj, start=1) if d] for _, dj in poles]
    terms = []
    for k, (wk, dk) in enumerate(poles):
        mk = len(dk)
        series = [1.0] + [0.0] * (mk - 1)
        sensitivity = 1.0
        for j, (wj, dj) in enumerate(poles):
            if j == k:
                continue
            sensitivity += len(dj) * max(abs(wk), abs(wj)) / abs(wk - wj)
            ratio = wj / wk
            c = 1.0 - ratio
            step = -(ratio / c)
            if magnitudes:
                c, step = abs(c), abs(step)
            factor = None
            for r, d in weighted[j]:
                # d / c at r = 1, as engines.moments forms its factors
                try:
                    coef = d / c**r
                except OverflowError:
                    coef = 0.0
                except ZeroDivisionError:
                    coef = math.inf
                part = [coef]
                for i in range(1, mk):
                    coef *= step * (r + i - 1) / i
                    part.append(coef)
                factor = part if factor is None else [a + b for a, b in zip(factor, part)]
            series = _convolve_trunc(series, factor, mk)
        if len(weighted[k]) == 1:
            ((r, d),) = weighted[k]
            coeffs = [d * series[r - order] if r >= order else 0.0 for order in range(1, mk + 1)]
        else:
            # the coefficient of order o is sum_(r >= o) d_r series[r - o]
            coeffs = np.convolve(dk[::-1], series)[mk - 1 :: -1].tolist()
        if not all(map(math.isfinite, coeffs)):
            raise ValueError(f"the partial-fraction coefficients of the pole at {wk!r} leave the float range")
        for order, coeff in enumerate(coeffs, start=1):
            terms.append(PfdTerm(coeff=coeff, scale=wk, order=order, sensitivity=sensitivity))
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


def gamma_mixture(model: GammaSumModel, query: MomentQuery) -> tuple[list, float]:
    """S as a probability mixture of merged models, in which each group of
    close weights is one pole; returns (poles, tail).

    The weights of each sign, sorted by magnitude, start as one group, and
    a group splits at its widest relative gap while its spread
    r = 1 - min|w| / max|w| exceeds _CLUSTER_SPREAD, or r over its relative
    distance from the nearest pole of its sign outside it exceeds
    _CLUSTER_RATIO.  About the smallest |w| = v of a group of total shape
    N, with q_i = 1 - v / |w_i| and C = prod_i (v / |w_i|)^(s_i),

        prod_i (1 - i w_i t)^(-s_i) = sum_k C h_k(q) (1 - i sgn(w) v t)^(-(N+k)),

    h_k counting each q_i s_i times (Moschopoulos, Ann. Inst. Statist.
    Math. 37, 1985): the group's sum is sgn(w) v Gamma(N + k) with
    probability delta_k = C h_k(q) >= 0.  The groups are independent, so S
    is the mixture of the merged models, one per k = (k_g) with weight
    prod_g delta_(k_g), and so is every query E|S - m|^p, signed or not.
    Each entry of poles is (sgn(w) v, weights), weights[r-1] = delta_(r-N)
    the weight of order r; a weight that stands alone is its own group,
    weights (0, .., 0, 1).

    tail bounds the query's share of the merged models left out when group
    g stops at order K_g.  Those with k_g > K_g average, over the other
    groups, to the model whose group g is the pole at order N_g + k_g and
    whose other weights are as given.  With W the largest |w| and N_S the
    total shape, |S - m| is at most |m| + W Gamma(N_S + k_g) in law there,
    so for p >= 0 its query is at most
    B_k = max(1, 2^(p-1)) (|m|^p + W^p Gamma(N_S + k + p) / Gamma(N_S + k)),
    and B_(k+1) / B_k <= 1 + p / (N_S + k).  For p < 0 the density of
    S - m is at most 1/V, V the largest |pole|, so B_k = V^p (1 + 2/(p+1)).
    As h_k(q) <= C(k+n-1, n-1) r^k over the n values q_i > 0 of the group,
    group g's share is at most sum_(k > K_g) C(k+n-1, n-1) r^k B_k, whose
    terms fall by a ratio that itself falls with k.  Each group stops at
    the first order whose share is below a sixteenth of a unit of a lower
    bound on the unsigned query (Jensen's inequality for p < 0 and p >= 1,
    the density bound 1/W for p > 0), or at _MIXTURE_MAX_ORDER.

    Integer shapes only, so that partial fractions take the merged models.
    Raises ValueError for a fractional shape, and where no two weights of
    one sign group together (the mixture is then the model itself).
    """
    if not model.integer_shapes:
        raise ValueError("the gamma mixture requires integer shapes")
    groups = []  # (pole, total shape, q) of each group of weights of one sign
    for sign in (1.0, -1.0):
        side = sorted((abs(float(w)), int(s)) for w, s in zip(model.weights, model.shapes) if w * sign > 0.0)
        cuts = [0, len(side)] if side else [0]  # the groups are side[cuts[i] : cuts[i + 1]]
        while True:
            for i in range(len(cuts) - 1):
                lo, hi = cuts[i], cuts[i + 1]
                v, top = side[lo][0], side[hi - 1][0]
                r = 1.0 - v / top
                below = r * side[cuts[i - 1]][0] / (v - side[cuts[i - 1]][0]) if i else 0.0
                above = r / (1.0 - v / side[hi][0]) if hi < len(side) else 0.0
                if r > _CLUSTER_SPREAD or max(below, above) > _CLUSTER_RATIO:
                    # split at the widest relative gap
                    _, k = max((side[k][0] / side[k - 1][0], k) for k in range(lo + 1, hi))
                    cuts.insert(i + 1, k)
                    break
            else:
                break
        for lo, hi in zip(cuts, cuts[1:]):
            members = side[lo:hi]
            v = members[0][0]
            q = [(w - v) / w for w, s in members[1:] for _ in range(s)]
            groups.append((sign * v, sum(s for _, s in members), q))
    if not any(q for _, _, q in groups):
        raise ValueError("no two weights of one sign group together; partial fractions apply")

    p, m = float(query.p), float(query.shift)
    total = sum(n for _, n, _ in groups)
    widest = max(abs(float(w)) for w in model.weights)
    top_pole = max(abs(v) for v, _, _ in groups)
    if p >= 0.0:
        log_spread = p * math.log(widest) + loggamma(total + p) - loggamma(float(total))
        log_shift = p * math.log(abs(m)) if m else -math.inf
        log_b0 = (
            max(0.0, (p - 1.0) * math.log(2.0))
            + max(log_spread, log_shift)
            + math.log1p(math.exp(-abs(log_spread - log_shift)))
        )
        log_low = p * math.log(0.25 * widest) - math.log(2.0)
        offset = abs(sum(float(w) * s for w, s in zip(model.weights, model.shapes)) - m)
        if p >= 1.0 and offset:
            log_low = max(log_low, p * math.log(offset))
    else:
        log_b0 = p * math.log(top_pole) + math.log1p(2.0 / (p + 1.0))
        log_low = p * math.log(abs(m) + sum(abs(float(w)) * s for w, s in zip(model.weights, model.shapes)))
    rise = max(p, 0.0)  # B_(k+1) / B_k <= 1 + rise / (N_S + k)
    # each group's share in units of B_0
    budget = math.exp(min(log_low - log_b0, 700.0)) * _UNIT_ROUNDOFF / 16.0 / sum(bool(q) for _, _, q in groups)

    tail = 0.0
    poles = []
    for v, n_g, q in groups:
        order = 0
        if q:
            n = len(q)
            r = max(q)
            # t_k = C(k+n-1, n-1) r^k B_k / B_0, whose ratio falls with k
            term = 1.0
            while True:
                term *= (order + n) / (order + 1) * r * (1.0 + rise / (total + order))
                ratio = (order + 1 + n) / (order + 2) * r * (1.0 + rise / (total + order + 1))
                share = term / (1.0 - ratio) if ratio < 1.0 else math.inf
                if share <= budget or order >= _MIXTURE_MAX_ORDER:
                    break
                order += 1
            tail += share
        c = math.prod(1.0 - x for x in q)
        poles.append((v, (0.0,) * (n_g - 1) + tuple(c * h for h in _h_table(q, order))))
    if log_b0 < 709.0:
        return poles, tail * math.exp(log_b0)
    # B_0 alone leaves the float range, where tail * B_0 need not
    try:
        return poles, math.exp(math.log(tail) + log_b0) if tail else 0.0
    except OverflowError:
        return poles, math.inf


def sample(model: GammaSumModel, seed: int, count: int) -> np.ndarray:
    """count realizations of S, deterministic in seed.

    One weight after another: an integer shape k sums k exponentials
    -log(1 - U) from a (count, k) array of uniforms, drawn row-major in
    blocks by `_erlang_rows`, so memory stays bounded at any k; a
    non-integer shape is numpy's `Generator.standard_gamma`.
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
        [values] = _erlang_rows(rng, (1.0,), (int(shape),), count)
        return values
    return rng.standard_gamma(shape, count)


def _erlang_rows(
    rng: np.random.Generator, weights: Sequence, orders: Sequence, rows: int, payoff=None, chunks: int = 1
) -> Iterator[np.ndarray]:
    """The Erlang kernel of both samplers.  For each row of a
    (chunks * rows, K) array of uniforms U from rng, K = sum(orders), the
    sum S = sum_i w_i (-log(1 - U_i)) over the columns, each weight
    repeated over its order.  With payoff, the row's value is instead the
    mean (payoff(S) + payoff(S')) / 2 over the antithetic pair, where S'
    takes -log U in place of -log(1 - U); payoff may overwrite its
    argument.  Yields the (rows,) vector of each of the chunks in turn, a
    view that the next pass overwrites.

    The buffers are allocated once.  Whole chunks that fit in
    _ERLANG_BLOCK // K rows share a pass, one rng.random call and one
    each of the logs, the contraction, the payoff and the mean; a larger
    chunk runs through blocks of that many rows, so memory stays bounded
    at any K.  rng draws exactly the uniforms of one
    rng.random((chunks * rows, K)) call, in the same places.  numpy's
    doubles lie on the 2^-53 grid, so 1 - U is exact and log(1 - U) is as
    accurate as log1p(-U), at a fraction of its cost.  Both sides contract
    with the repeated weights by `_contract`, row by row, so the rows do
    not depend on the block size or on how chunks share passes."""
    neg = -np.repeat(np.asarray(weights, dtype=float), orders)
    cols = neg.size
    budget = max(1, _ERLANG_BLOCK // cols)  # rows
    span = max(1, min(chunks, budget // rows)) * rows  # rows of one pass
    size = min(budget, span)  # rows of one block
    # side 0 takes log(1 - U), side 1 (antithetic) log U
    logs = np.empty((1 if payoff is None else 2, size, cols))
    sums = np.empty(logs.shape[:2])
    out = np.empty(span)
    total = chunks * rows
    for first in range(0, total, span):
        todo = min(span, total - first)
        for lo in range(0, todo, size):
            hi = min(lo + size, todo)
            block = logs[:, : hi - lo]
            rng.random(out=block[-1])
            np.subtract(1.0, block[-1], out=block[0])
            np.log(block, out=block)
            s = _contract(block, neg, sums[:, : hi - lo])
            if payoff is None:
                out[lo:hi] = s[0]
            else:
                h = payoff(s)
                np.add(h[0], h[1], out=out[lo:hi])
        if payoff is not None:
            out[:todo] *= 0.5
        for lo in range(0, todo, rows):
            yield out[lo : lo + rows]


def _contract(block: np.ndarray, neg: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[k, i] = sum_j block[k, i, j] neg[j], the float result of
    np.einsum("kij,j->ki", block, neg), which starts each sum from +0.0
    and adds the products in column order.  One or two columns are
    contracted on strided columns as (0 + L0 w0) (+ L1 w1), which is that
    result bit for bit at a fraction of its per-row cost.  More columns go
    to einsum itself, whose SIMD loops do not keep that order there."""
    if neg.size > 2:
        return np.einsum("kij,j->ki", block, neg, out=out)
    np.multiply(block[..., 0], neg[0], out=out)
    # 0 + x is x except at x = -0.0, which the sum from +0.0 turns into +0.0
    out += 0.0
    if neg.size == 2:
        out += block[..., 1] * neg[1]
    return out
