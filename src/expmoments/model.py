"""Distribution models for weighted sums of independent exponential and
gamma random variables.

Holds the exact complete-homogeneous-symmetric-polynomial moment
arithmetic, characteristic functions, the closed-form two-sided
Erlang-mixture density obtained by partial fractions, and seeded
sampling.  Models are immutable values, safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    "charfn",
    "partial_fraction_density",
    "mean_variance",
    "sample",
]

_MERGE_GAP = 1e-10
# machine epsilon with a little slack, the unit of the closed-form roundoff bound
_UNIT_ROUNDOFF = 1.1e-16


@dataclass(frozen=True)
class GammaSumModel:
    """The random variable S = sum_j weights[j] * V_j with V_j ~ Gamma(shapes[j]).

    Shape 1 (the default) is the standard exponential.  Weights may carry
    either sign; shapes are strictly positive.
    """

    weights: tuple
    shapes: tuple

    def __post_init__(self):
        weights = tuple(self.weights)
        shapes = tuple(float(s) for s in self.shapes)
        if len(weights) == 0:
            raise ValueError("model needs at least one weight")
        if len(shapes) != len(weights):
            raise ValueError("weights and shapes must have the same length")
        if not all(math.isfinite(float(w)) for w in weights):
            raise ValueError("weights must be finite")
        if not all(s > 0.0 and math.isfinite(s) for s in shapes):
            raise ValueError("shapes must be positive and finite")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "shapes", shapes)

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

    Uses the recurrence h_ell(x_1..x_n) = h_ell(x_1..x_{n-1})
    + x_n h_{ell-1}(x_1..x_n); h_0 = 1.  h_ell is homogeneous of degree
    ell, so the recurrence runs on the integers D x_j, with D the least
    common denominator of the exact rationals x_j, and the result is
    h_ell(D x) / D^ell.  Python integers keep it exact without a gcd
    per step.
    """
    if ell < 0:
        raise ValueError("degree must be nonnegative")
    xs = [Fraction(w) for w in x]
    d = math.lcm(*(int(w.denominator) for w in xs))
    h = [1] + [0] * ell
    for w in xs:
        w = int(w.numerator) * (d // int(w.denominator))
        for degree in range(1, ell + 1):
            h[degree] += w * h[degree - 1]
    return Fraction(h[ell], d**ell)


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

    def _one_sided(self, t: float) -> float:
        out = 0.0
        at = abs(t)
        for term in self.terms:
            if term.scale * t <= 0.0:
                continue
            r = term.order
            z = -at / abs(term.scale)
            if r > 1:
                z += (r - 1) * math.log(at)
            out += term.coeff * math.exp(z) / (math.factorial(r - 1) * abs(term.scale) ** r)
        return out

    def abs_power_moment(self, p: float) -> float:
        """E|S|^p = sum_k coeff_k Gamma(p + r_k) / (r_k - 1)! |scale_k|^p."""
        return self.power_moment_with_error(p, signed=False)[0]

    def signed_power_moment(self, p: float) -> float:
        """E |S|^p sgn(S); per-term sign is the sign of the half-line."""
        return self.power_moment_with_error(p, signed=True)[0]

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


def partial_fraction_density(model: GammaSumModel) -> PartialFractionDensity:
    """Expand prod_j (1 - i w_j t)^(-shape_j) into partial fractions.

    Integer shapes only; equal weights are merged into higher-order poles
    rather than perturbed, and nearly coincident distinct weights are
    rejected because their coefficients blow up.
    """
    if not model.integer_shapes:
        raise ValueError("partial fractions require integer shapes")
    ws = [float(w) for w in model.expanded_weights()]
    if any(w == 0.0 for w in ws):
        raise ValueError("zero weights carry no density factor; drop them first")

    poles: list[list] = []  # [scale, order]
    for w in ws:
        for pole in poles:
            if pole[0] == w:
                pole[1] += 1
                break
        else:
            poles.append([w, 1])

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


def mean_variance(model: GammaSumModel) -> tuple[float, float]:
    """(sum w_j shape_j, sum w_j^2 shape_j)."""
    return model.mean_variance()


def sample(model: GammaSumModel, seed: int, count: int) -> np.ndarray:
    """count realizations of S, deterministic in seed.

    Exponentials use the inverse CDF -log(1 - U); integer shapes are sums
    of exponentials; non-integer shapes use Marsaglia-Tsang rejection
    (shape < 1 boosted by U^(1/shape) from shape + 1).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
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
