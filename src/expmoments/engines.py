"""Unified computation of E|S - m|^p (and the signed variant) by several
independent engines with automatic dispatch.

Engine order for auto dispatch is exact > density > fourier > montecarlo,
decreasing in accuracy.  The exact engine answers every query whose
moment is a polynomial in the cumulants, in exact rationals: integer
p >= 0 where E|S - m|^p (times sgn(S - m) when signed) is sigma E(S - m)^p,
that is unsigned even p and signed odd p, and every p when S - m has one
sign almost surely (weights all positive and m <= 0, or all negative and
m >= 0).  Signed even p and unsigned odd p on mixed support are not
polynomial.  At every shift, 0 included, it is capped at p = _EXACT_MAX_P,
beyond which its integers grow too costly, and a forced exact query above
the cap raises.  It takes Hunter's identity or the cumulant recurrence by
the sizes of the query (_HUNTER_SHAPES), which give the same rational.
The density engine serves integer shapes through the closed-form Erlang
mixture, each term integrated against |t - shift|^p in closed form at
every shift (Gamma values at shift 0; Gamma sums, a Kummer series and a
scaled incomplete gamma otherwise): the partial fractions of the model,
and where those reject it (weights closer than model._MERGE_GAP), leave
the float range or give a poor bound, the partial fractions of its gamma
mixture, in which each group of close weights of one sign is one pole
(`gamma_mixture`), signed or not, shifted or not.  The
Fourier engine serves 0 < p < 2 unsigned, its doubling blocks integrated
together on numpy arrays (`quadrature.integrate_doubling`); the Monte Carlo
engine serves everything that is left.  A density outside the float range,
or a Fourier integral that fails to converge (`QuadratureError`) or whose
blocks reach the float range, falls through to the next engine, as a poor
bound does; a forced engine raises it instead.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .model import (
    _ERLANG_BLOCK,
    _MERGE_GAP,
    GammaSumModel,
    MomentQuery,
    PartialFractionDensity,
    PfdTerm,
    _UNIT_ROUNDOFF,
    _chs_scaled,
    _draw,
    _erlang_rows,
    _h_table,
    _partial_fractions,
    _power_moment_scaled,
    _power_moments_scaled,
    gamma_mixture,
    partial_fraction_density,
    term_roundoff,
)
from .quadrature import _ABS_TOL, _TAIL_THRESHOLD, QuadratureError, integrate_doubling
from .specialfn import _NUMPY_EXP_UNITS, exp_units, fourier_constant, loggamma

__all__ = [
    "MomentEstimate",
    "moment",
    "moments",
    "density_at",
    "fourier_abs_moment_from_cf",
]

ENGINES = ("exact", "density", "fourier", "montecarlo")

# two-sided 99% normal quantile for Monte Carlo confidence intervals
_Z99 = 2.5758293035489004
_MC_PARTITIONS = 8


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# chunk groups of an antithetic Monte Carlo query, each on its own thread:
# one per usable CPU, at most one per chunk, and each of at least
# _MC_GROUP_UNIFORMS uniforms per side.  Criterion 16's queries (50,000
# uniforms per side) stay on one thread, where the threads cost more than
# they gain; the benchmark's 400,000-count queries (200,000 to 1.6 million)
# split
_MC_WORKERS = min(_MC_PARTITIONS, _usable_cpus())
_MC_GROUP_UNIFORMS = 4 * _ERLANG_BLOCK
# the worker threads of split queries, made by the first query that splits
_pool = None
# relative floor under every density error bound
_REL_FLOOR = 1e-15
# auto dispatch leaves the density closed form when its bound exceeds this
# fraction of max(1, |value|)
_FALLBACK_REL = 1e-3
# highest p of the exact engine (Hunter's identity and the cumulant
# recurrence), whose integers grow with p: the recurrence takes, at n = 4
# with fractional shapes, on a 2-vCPU Xeon VM under Python 3.11, about
# 4 ms at p = 50, 50 ms at p = 100 and 0.6 s at p = 200
_EXACT_MAX_P = 100
# the exact engine takes Hunter's identity, on the weights unrolled to one
# per unit of shape, while the total shape is at most this many times p,
# and the cumulant recurrence above: the two give the same rational, and
# their costs cross, on a 2-vCPU Xeon VM under Python 3.11, between 1.5 p
# (p <= 20) and 6 p (p = 100)
_HUNTER_SHAPES = 2
# the unit roundoff of np.longdouble, 2^-64 where it is the x87 80-bit
# format; the unit of the bound `_filtered_exact_rows` rounds exact rows by
_LONGDOUBLE_UNIT = np.finfo(np.longdouble).eps / 2
# log of the largest float, above which a moment lies beyond the float range
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
# the largest |w t| at which the Fourier engine evaluates its envelope and
# characteristic function, whose (w t)^2 stays below the float range
_FOURIER_MAX_WT = 1e150


@dataclass(frozen=True)
class MomentEstimate:
    """A moment value with engine tag and an absolute error bound
    (99% CI half-width for the Monte Carlo engine).  The exact engine's
    error 0 means the value is the exact rational moment, correctly
    rounded."""

    value: float
    error: float
    engine: str
    p: float

    def __post_init__(self):
        if not self.error >= 0.0:
            raise ValueError(f"error bound must be a nonnegative number, got {self.error!r}")


def moment(
    model: GammaSumModel,
    query: MomentQuery,
    engine: str | None = None,
    seed: int = 0,
    count: int = 1_000_000,
) -> MomentEstimate:
    """E|S - shift|^p (times sgn(S - shift) when query.signed).

    engine=None auto-dispatches; an explicit tag forces that engine and
    raises if the query is outside its domain.
    """
    if engine is None:
        return _auto_moment(model, query, seed, count)
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if engine == "exact":
        return _exact_moment(model, query)
    if engine == "density":
        return _density_estimate(model, query)
    if engine == "fourier":
        if query.signed:
            raise ValueError("fourier engine cannot compute signed moments")
        if not 0.0 < query.p < 2.0:
            raise ValueError("fourier engine requires 0 < p < 2")
        return _fourier_moment(model, query)
    return _montecarlo_moment(model, query, seed, count)


def _auto_moment(model: GammaSumModel, query: MomentQuery, seed: int, count: int) -> MomentEstimate:
    if query.p <= _EXACT_MAX_P and _polynomial_sign(model, query) is not None:
        return _exact_moment(model, query)
    # a density estimate is kept only while its honest bound is good; one
    # outside the engine's domain falls through to the next engine as a
    # poor bound does
    try:
        est = _density_estimate(model, query)
        if not _poor(est):
            return est
    except ValueError:
        pass
    if (not query.signed) and 0.0 < query.p < 2.0:
        try:
            return _fourier_moment(model, query)
        except (ValueError, QuadratureError):
            pass
    return _montecarlo_moment(model, query, seed, count)


def _poor(est: MomentEstimate) -> bool:
    return est.error > _FALLBACK_REL * max(1.0, abs(est.value))


def moments(W, p) -> tuple[np.ndarray, np.ndarray]:
    """E|S_b|^p with S_b = sum_k W[b, k] E_k, for every row b of a (B, n)
    array of exponential weights of either sign, at one p or at each p of
    a sequence; zero entries are absent terms.

    Returns (values, errors), each of shape (B,) for one p and (P, B) for a
    sequence of P values, whose row i is bit for bit `moments(W, p[i])`.
    Row b gets, bit for bit in value and error, what auto-dispatched
    `moment` gives for the model of W[b], which drops its zeros and merges
    its equal weights (an all-zero row, which has no model, gets 0, or 1 at
    p = 0, as the zero sum):

    - integer p up to _EXACT_MAX_P where the moment is polynomial (every
      row at even p, the rows of one sign at odd p): the exact engine,
      error 0, rounded from a long-double h table of every row at once with
      a rigorous bound (`_filtered_exact_rows`), and where the bound cannot
      decide a row, from `model._chs_scaled`'s integers, as the scalar
      exact engine rounds them;
    - distinct weights at relative gaps of at least model._MERGE_GAP: the
      density closed form Gamma(p+1) sum_k c_k |w_k|^p with
      c_k = prod_{j != k} 1 / (1 - w_j / w_k), with the scalar path's
      charges, evaluated in one numpy pass per count of nonzero entries by
      the scalar path's own float operations (`_simple_pole_moments`);
    - every other row (equal or nearly coincident weights, a bound above
      the fallback threshold, a non-finite result): `moment` itself, whose
      gamma mixture keeps clustered rows on the density engine.

    What does not depend on p is done once for every p: the packing and
    counting of the rows, the long-double h tables of the exact rows and
    each pending row's integer h table, one per parity of the exact p, and
    the pole factors, sensitivities, merge-gap test and log |w| of the
    closed form, which takes only the rows with a pair still left.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2:
        raise ValueError("weights must form a (B, n) array")
    if not np.isfinite(W).all():
        raise ValueError("weights must be finite")
    queries = [MomentQuery(p=float(v)) for v in np.ravel(p)]
    ps = [q.p for q in queries]
    active = W != 0.0
    values = np.zeros((len(ps), W.shape[0]))
    errors = np.zeros((len(ps), W.shape[0]))
    counts = active.sum(axis=1)
    if min(ps, default=0.0) < 0.0 and not counts.all():
        raise ValueError("negative moment of the zero sum diverges")
    # each row's nonzero entries first, in their order
    packed = np.take_along_axis(W, np.argsort(~active, axis=1, kind="stable"), axis=1)
    # the (p, row) pairs that the exact engine leaves to the closed form
    rest = np.ones(values.shape, dtype=bool)
    exact = [i for i, v in enumerate(ps) if v.is_integer() and 0.0 <= v <= _EXACT_MAX_P]
    for parity in (0.0, 1.0) if exact else ():
        picks = [i for i in exact if ps[i] % 2 == parity]
        # E|S|^ell is ell! h_ell(w) on every row at even ell, and
        # ell! h_ell(|w|) on a row of one sign at every ell
        one_sign = (W >= 0.0).all(axis=1) | (W <= 0.0).all(axis=1) if parity and picks else []
        rows = np.flatnonzero(one_sign) if parity else np.arange(len(W))
        if not (picks and rows.size):
            continue
        A = np.abs(W[rows]) if parity else W
        ells = [int(ps[i]) for i in picks]
        found, pending = _filtered_exact_rows(A, ells)
        # the rows that the long-double filter cannot round, by the scalar
        # exact engine's integers and its rounding
        for b in np.flatnonzero(pending).tolist():
            h, d = _chs_scaled([w for w in A[b].tolist() if w], max(ells))
            found[:, b] = [_exact_float(math.factorial(ell) * h[ell], d**ell) for ell in ells]
        values[np.ix_(picks, rows)] = found
        rest[np.ix_(picks, rows)] = False
    # for each row the batch leaves to moment, the indices of its p
    scalar_rows = {}
    other = [i for i in range(len(ps)) if rest[i].any()]
    left_rows = rest[other].any(axis=0)
    for m in range(1, W.shape[1] + 1) if other else ():
        rows = np.flatnonzero((counts == m) & left_rows)
        if not rows.size:
            continue
        for i, value, err, ok in zip(other, *_simple_pole_moments(packed[rows, :m], [ps[i] for i in other])):
            left = rest[i, rows]
            done = left & ok
            values[i, rows[done]] = value[done]
            errors[i, rows[done]] = err[done]
            for b in rows[left & ~ok].tolist():
                scalar_rows.setdefault(b, []).append(i)
    for b, picks in scalar_rows.items():
        model = GammaSumModel.of(W[b].tolist())
        for i in picks:
            est = moment(model, queries[i])
            values[i, b] = est.value
            errors[i, b] = est.error
    if np.ndim(p) == 0:
        return values[0], errors[0]
    return values, errors


def _simple_pole_moments(w: np.ndarray, ps, doubled=None, signed=False):
    """Density closed form over the rows of a (B, m) array of nonzero
    weights of either sign, at each p of ps: (values, errors, ok), each a
    list of one (B,) array per p, where ok marks the rows that auto
    dispatch keeps on the density engine as simple poles.

    With doubled, a (B,) array of column indices, row b's pole at column
    doubled[b] has order 2 (the model of w[b] and one more w[b, doubled[b]]);
    with signed, each term counts with the sign of its weight (the moment
    times sgn(S)).  `moments` takes neither; `analysis._sphere_gradient`
    takes both.

    A kept row is bit for bit what `moment` gives with engine="density",
    and auto dispatch too where the moment is not polynomial, because each
    number is formed by the float operations of `_partial_fractions` and
    `PartialFractionDensity.power_moment_with_error`, in their order: each
    factor 1 / (1 - w_j / w_k) as 1.0 / c, and a doubled pole's as
    1.0 / (c * c), the doubled pole's own series in u by
    `_convolve_trunc`'s steps, log and exp by numpy on whole arrays, as the
    scalar path takes them on one float, the exp charge with its log
    Gamma(order), and the sums of terms and charges one term (column) at a
    time, as numpy's pairwise row sum would not add them from 8 columns up.
    A doubled pole's term of order 2 is one more column, right after its
    pole's, where the scalar path sums it.  The coefficients,
    sensitivities, merge-gap test and log |w| serve every p; a row whose
    exp leaves the float range is not finite, and goes to the scalar path,
    which raises there."""
    m = w.shape[1]
    magnitude = np.abs(w)
    coeff = np.ones_like(w)
    sensitivity = np.ones_like(w)
    separated = np.ones(len(w), dtype=bool)
    values, errors, oks = [], [], []
    if doubled is not None:
        rows = np.arange(len(w))
        w_doubled = w[rows, doubled]
        # the doubled pole's series in u (_partial_fractions' `series`): lead
        # is the coefficient of order 2, and tail, that of order 1, goes to
        # its pole's column once every other pole is in
        lead = np.ones(len(w))
        tail = np.zeros(len(w))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # pole j's factor in the coefficient and sensitivity of every other
        # pole k, accumulated in the order _partial_fractions uses
        for j in range(m):
            top = np.maximum(magnitude, magnitude[:, j : j + 1])
            gap = np.abs(w - w[:, j : j + 1])
            gap[:, j] = np.inf
            others = np.arange(m) != j
            c = 1.0 - w[:, j : j + 1] / w[:, others]
            factor = 1.0 / c
            spread = top
            if doubled is not None:
                hit = doubled == j
                factor = np.where(hit[:, None], 1.0 / (c * c), factor)
                # the doubled pole counts twice in every other's sensitivity
                spread = np.where(hit[:, None], 2.0 * top, top)
                # about the doubled pole (in the rows where it is not j),
                # pole j's factor is 1 / c - (ratio / c) u / c + O(u^2);
                # _convolve_trunc multiplies it into the series, skipping
                # a zero entry
                ratio = w[:, j] / w_doubled
                c = 1.0 - ratio
                first = 1.0 / c
                slope = first * -(ratio / c)
                nonzero = lead != 0.0
                new_lead = np.where(nonzero, 0.0 + lead * first, 0.0)
                new_tail = np.where(nonzero, 0.0 + lead * slope, 0.0)
                new_tail = np.where(tail != 0.0, new_tail + tail * first, new_tail)
                lead = np.where(hit, lead, new_lead)
                tail = np.where(hit, tail, new_tail)
            coeff[:, others] *= factor
            sensitivity += spread / gap
            # equal weights merge into a higher-order pole and nearly
            # coincident ones have no partial fractions: both stay scalar
            separated &= ~(gap < _MERGE_GAP * top).any(axis=1)
        # one term per column: second marks a doubled pole's term of order 2
        second = None
        if doubled is not None:
            coeff[rows, doubled] = tail
            cols = np.arange(m + 1)
            pole = cols - (cols > doubled[:, None])
            second = cols == doubled[:, None] + 1
            coeff = np.where(second, lead[:, None], np.take_along_axis(coeff, pole, axis=1))
            sensitivity = np.take_along_axis(sensitivity, pole, axis=1)
            w = np.take_along_axis(w, pole, axis=1)
        count = coeff.shape[1]

        def by_order(f):
            """f(r) at the order r of each term."""
            return f(1.0) if second is None else np.where(second, f(2.0), f(1.0))

        underflow = np.zeros(len(w))
        for k in range(count):
            underflow += np.abs(coeff[:, k]) + 1.0
        log_base = by_order(loggamma)
        log_magnitude = np.log(np.abs(w))
        for p in ps:
            log_gamma = by_order(lambda r: loggamma(p + r))
            log_power = p * log_magnitude
            mag = coeff * np.exp(log_gamma - log_base + log_power)
            units = by_order(lambda r: exp_units((loggamma(p + r), loggamma(r), log_power), (p + r, r), _NUMPY_EXP_UNITS))
            charge = term_roundoff(mag, sensitivity, count, units)
            if signed:
                mag *= np.copysign(1.0, w)
            value = np.zeros(len(w))
            err = np.zeros(len(w))
            mags = np.zeros(len(w))
            for k in range(count):
                value += mag[:, k]
                err += charge[:, k]
                mags += np.abs(mag[:, k])
            err = np.maximum(err + count * _UNIT_ROUNDOFF * mags + underflow * math.ulp(0.0), _REL_FLOOR * np.abs(value))
            values.append(value)
            errors.append(err)
            oks.append(separated & np.isfinite(value) & (err <= _FALLBACK_REL * np.maximum(1.0, np.abs(value))))
    return values, errors, oks


def density_at(model: GammaSumModel, t: float, shift: float = 0.0) -> float:
    """Closed-form density of S - shift evaluated at t (integer shapes)."""
    pfd = partial_fraction_density(model)
    return pfd.density(float(t) + float(shift))


def _polynomial_sign(model: GammaSumModel, q: MomentQuery) -> int | None:
    """sigma in {1, -1} with E|S - m|^p (times sgn(S - m) when signed) =
    sigma E(S - m)^p, or None where no such identity holds: p not an
    integer >= 0, or a signed even p or unsigned odd p while S - m takes
    both signs."""
    if not (float(q.p).is_integer() and q.p >= 0.0):
        return None
    power = int(q.p) + q.signed
    side = _one_side(model, q.shift)
    if side:
        # sgn(S - m) = side: |x|^p = (side x)^p and sgn(x) = side
        return side if power % 2 else 1
    return 1 if power % 2 == 0 else None


def _one_side(model: GammaSumModel, shift: float) -> int:
    """1 where S - shift > 0 almost surely (weights all positive, shift <=
    0), -1 where S - shift < 0 (all negative, shift >= 0), else 0."""
    if all(w > 0 for w in model.weights) and shift <= 0.0:
        return 1
    if all(w < 0 for w in model.weights) and shift >= 0.0:
        return -1
    return 0


def _exact_moment(model: GammaSumModel, q: MomentQuery) -> MomentEstimate:
    sign = _polynomial_sign(model, q)
    if sign is None:
        raise ValueError(
            "exact engine requires an integer p >= 0 with a polynomial moment: "
            "unsigned even p, signed odd p, or any p where S - shift has one sign"
        )
    if q.p > _EXACT_MAX_P:
        raise ValueError(f"exact engine is capped at p = {_EXACT_MAX_P}")
    ell = int(q.p)
    if q.shift == 0.0 and model.integer_shapes and sum(model.shapes) <= _HUNTER_SHAPES * ell:
        # Hunter's identity E S^ell = ell! h_ell(w), at every integer ell
        h, d = _chs_scaled(model.expanded_weights(), ell)
        return MomentEstimate(_exact_float(sign * math.factorial(ell) * h[ell], d**ell), 0.0, "exact", q.p)
    num, den = _power_moment_scaled(model.weights, model.shapes, q.shift, ell)
    return MomentEstimate(_exact_float(sign * num, den), 0.0, "exact", q.p)


def _filtered_exact_rows(W: np.ndarray, ells) -> tuple[np.ndarray, np.ndarray]:
    """(values, pending): float(ell! h_ell(W_b)) for every row b of a (B, n)
    array of weights, zeros included, and every ell of ells, as a
    (len(ells), B) array, correctly rounded in every row b where
    pending[b] is False; `moments` leaves the pending rows to `_chs_scaled`.

    `_h_table` runs once on the np.longdouble columns of the whole array (a
    zero column adds 0 to every entry) and, where some weight is negative,
    once more on |W|.  Let v = ell! h_ell(w) be a row's exact value,
    H = ell! h_ell(|w|) >= |v| its scale, v' and H' their long-double
    values, u the unit roundoff of long double (_LONGDOUBLE_UNIT),
    gamma_j = j u / (1 - j u) and delta = gamma_k H'.  A row is decided
    where float(v' - delta) == float(v' + delta) is finite and H' is at
    least 4 ell! S (below).  v lies between those two long doubles, so
    float, which is monotone, rounds it to the same float: the correctly
    rounded value, bit for bit what `_chs_scaled`'s integers give.  The
    upper end is kept, so that a moment that rounds to zero is +0.0: v >= 0
    at even ell (Hunter) and at odd ell, where `moments` sends only
    nonnegative rows.  An all-zero row's table is exact, 1 at ell = 0 and
    +0.0 above, and is decided whatever its scale.

    The bound, each rounding a factor 1 + e with |e| <= u (Higham,
    Accuracy and Stability of Numerical Algorithms, chapter 3):

    - h_ell is the sum of the monomials of degree ell, each carried from
      h_0 = 1 along a path of the recurrence h_d += w_j h_(d-1): an
      addition per column and a product and an addition per degree, at
      most n + 2 ell roundings;
    - ell! is the long-double product 2 3 ... ell, up to ell roundings, and
      ell! h_ell one more: v' is ell! times the sum of the monomials, each
      times 1 + theta with |theta| <= gamma_K, K = n + 3 ell + 1, so
      |v' - v| <= gamma_K H + E, E the error of underflows;
    - only products underflow, each by at most half the smallest subnormal
      s besides its rounding.  One at degree d reaches h_ell through at
      most C(n + ell, ell) monomials of degree ell - d, each at most
      max(1, H / ell!).  Over the n ell + 1 products, E <= u^2 S
      max(ell!, H), with S the power of two above (n ell + 1)
      C(n + ell, ell) s / u^2.  Where S <= 1 and H >= ell! S, E <= u^2 H.
      H' >= 4 ell! S implies H >= ell! S (the 4 covers E and the rounding
      of ell!), and an (n, ell) with S > 1 decides no row;
    - the float ends hold v where delta (1 - u) >= |v' - v| + u |v'|, the
      rounding of v' -+ delta.  The right side is at most gamma_(K+2) H.
      gamma_k and delta take three roundings and H' >= (1 - K u - u^2) H,
      and gamma_k H' lies far above the smallest normal, so k = K + 3 =
      n + 3 ell + 4 suffices while (K + 2) (K + 5) u < 1.

    A tie or a near-midpoint, cancellation, a long-double overflow or
    underflow and a value beyond the float range leave a row pending.
    Where long double is binary64 the bound spans more than a float's
    spacing, and every row with a nonzero weight is pending."""
    n = W.shape[1]
    unit = _LONGDOUBLE_UNIT
    subnormal = np.finfo(np.longdouble).smallest_subnormal
    values = np.empty((len(ells), len(W)))
    pending = np.zeros(len(W), dtype=bool)
    zero = ~W.any(axis=1)
    # a silent long-double overflow or 0 * inf is an undecided row
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        h = _h_table(np.ascontiguousarray(W.T, dtype=np.longdouble), max(ells))
        h_abs = _h_table(np.ascontiguousarray(np.abs(W).T, dtype=np.longdouble), max(ells)) if (W < 0.0).any() else h
        for i, ell in enumerate(ells):
            factorial = np.prod(np.arange(2, ell + 1, dtype=np.longdouble))
            value = factorial * h[ell]
            scale = factorial * h_abs[ell] if h_abs is not h else value
            k = n + 3 * ell + 4
            gamma = k * unit / (1 - k * unit)
            floor = np.ldexp(subnormal / unit**2, ((n * ell + 1) * math.comb(n + ell, ell)).bit_length())
            floor = 4 * factorial * floor if floor <= 1 else np.inf
            delta = gamma * scale
            low = (value - delta).astype(float)
            high = (value + delta).astype(float)
            values[i] = high
            pending |= ~((low == high) & np.isfinite(high) & ((scale >= floor) | zero))
    return values, pending


def _exact_float(num: int, den: int) -> float:
    """num / den, correctly rounded by int true division; ValueError where
    it lies beyond the float range."""
    try:
        return num / den
    except OverflowError:
        raise ValueError("exact moment lies beyond the float range") from None


def _density_moment(pfd: PartialFractionDensity, q: MomentQuery) -> MomentEstimate:
    """The query on one partial-fraction density, by its closed form
    (`PartialFractionDensity.power_moment_with_error`) at every shift."""
    value, err = pfd.power_moment_with_error(q.p, signed=q.signed, shift=q.shift)
    return MomentEstimate(value, max(err, _REL_FLOOR * abs(value)), "density", q.p)


def _density_estimate(model: GammaSumModel, q: MomentQuery) -> MomentEstimate:
    """The density engine: the closed form of the model's partial
    fractions, then, where they reject the model (nearly coincident
    weights), leave the float range or give a poor bound, that of its gamma
    mixture.  The smaller bound is kept.  Raises ValueError outside the
    engine's domain (a fractional shape, a term table beyond the float
    range): where both closed forms raise, the partial fractions' error."""
    if not model.integer_shapes:
        raise ValueError("density engine needs integer shapes")
    try:
        est = _partial_fraction_moment(model, q)
    except ValueError:
        try:
            return _mixture_moment(model, q)
        except ValueError:
            pass
        # both failed: the partial fractions' error, bound to no name, so
        # that no frame of its traceback holds it in a reference cycle
        raise
    if not _poor(est):
        return est
    try:
        mixture = _mixture_moment(model, q)
    except ValueError:
        return est
    return mixture if mixture.error < est.error else est


def _partial_fraction_moment(model: GammaSumModel, q: MomentQuery) -> MomentEstimate:
    return _density_moment(partial_fraction_density(model), q)


def _mixture_moment(model: GammaSumModel, q: MomentQuery) -> MomentEstimate:
    """The query on `gamma_mixture`'s merged model: its partial fractions,
    taken once over the groups' weighted orders, are the mixture of the
    merged models' partial fractions, which the closed form takes as it
    takes any other density.

    Each coefficient is charged as clustered poles need, on the sum of the
    magnitudes of its parts: the coefficient recurrences run as many steps
    as the highest pole order, so its `term_roundoff` counts that often;
    its power and rising factorial 3 order + 3 units; and the mixture
    weights, products of C h_k(q), 4 units per unit of the total order and
    4 more.  The mixture's tail is added to the error."""
    poles, tail = gamma_mixture(model, q)
    steps = max(len(d) for _, d in poles)
    units = 4.0 * sum(len(d) for _, d in poles) + 7.0
    signed = _partial_fractions(poles).terms
    # a lone pole's coefficients are its mixture weights, their own magnitudes
    magnitudes = signed if len(poles) == 1 else _partial_fractions(poles, magnitudes=True).terms
    terms = []
    for term, scale in zip(signed, magnitudes):
        if scale.coeff:
            charge = scale.coeff * (steps * (2.0 + term.sensitivity) + 3.0 * term.order + units)
            # term_roundoff charges 2 + sensitivity units of |coeff|; a
            # coefficient that cancels to 0 carries its charge instead
            coeff = term.coeff or charge * _UNIT_ROUNDOFF
            terms.append(PfdTerm(coeff, term.scale, term.order, charge / abs(coeff) - 2.0))
    est = _density_moment(PartialFractionDensity(tuple(terms)), q)
    return MomentEstimate(est.value, est.error + tail, "density", q.p)


def _fourier_moment(model: GammaSumModel, q: MomentQuery) -> MomentEstimate:
    """The Fourier engine.  Raises ValueError where the
    doubling blocks reach a t with some |w t| above _FOURIER_MAX_WT before
    the tail residual is small enough (a tiny total shape, whose |phi|
    decays like a tiny power of t): beyond it (w t)^2, in the envelope and
    in `_shifted_re_phi`, would leave the float range, and the envelope
    would read 0."""
    widest = max(map(abs, model.weights))

    def abs_phi_bound(t: float) -> float:
        if widest * t > _FOURIER_MAX_WT:
            raise ValueError(f"the Fourier blocks reach t = {t:.3g}, where (w t)^2 leaves the float range")
        return math.exp(-0.5 * sum(s * math.log1p((w * t) ** 2) for w, s in zip(model.weights, model.shapes)))

    re_phi = _shifted_re_phi(model, q.shift)
    moments, scale = _power_moments_scaled(model.weights, model.shapes, q.shift, 6)
    mu246 = [_exact_float(moments[k], scale**k) for k in (2, 4, 6)]
    value, err = fourier_abs_moment_from_cf(re_phi, q.p, mu246, abs_phi_bound)
    return MomentEstimate(value, err, "fourier", q.p)


def _shifted_re_phi(model: GammaSumModel, m: float):
    """t -> Re E exp(it(S - m)) in real arithmetic, on an array of t: the
    principal branch of (1 - i w t)^(-s) is (1 + w^2 t^2)^(-s/2) exp(i s atan(w t)),
    so Re phi(t) e^(-itm) = exp(-1/2 sum s log1p(w^2 t^2)) cos(sum s atan(w t) - t m)."""
    w = np.array(model.weights)
    s = np.array(model.shapes)

    def re_phi(t):
        t = np.asarray(t, dtype=float)
        wt = t[..., None] * w
        return np.exp(-0.5 * (np.log1p(wt * wt) @ s)) * np.cos(np.arctan(wt) @ s - t * m)

    return re_phi


def fourier_abs_moment_from_cf(re_phi, q, mu246, abs_phi_bound):
    """E|Y|^q = c_q int_0^inf (1 - Re phi_Y(t)) / t^(q+1) dt for 0 < q < 2.

    Below a crossover t0 the integrand is replaced by the two-term series
    mu2 t^2/2 - mu4 t^4/24 of 1 - Re phi (the direct difference cancels
    catastrophically there); the truncation is bounded by the mu6 term.
    The body is integrated over the doubling blocks [t0, 2 t0], [2 t0, 4 t0],
    ... of `quadrature.integrate_doubling`, all blocks of a batch evaluated
    together, so re_phi maps an array of t to an array (abs_phi_bound is
    called on floats).  The blocks stop at the first edge T >=
    quadrature._TAIL_THRESHOLD whose tail residual falls below
    max(quadrature._ABS_TOL, 1e-13 |body|); beyond T the exact power tail 1/(q T^q) is added with
    the residual bounded through the decreasing envelope abs_phi_bound.
    """
    if not 0.0 < q < 2.0:
        raise ValueError("fourier representation requires 0 < q < 2")
    mu2, mu4, mu6 = mu246
    cq = fourier_constant(q)

    t0 = (720.0 * (6.0 - q) * _ABS_TOL / max(mu6, 1e-300)) ** (1.0 / (6.0 - q))
    if mu4 > 0.0:
        t0 = min(t0, math.sqrt(mu2 / mu4), 1.0)
    series_val = mu2 * t0 ** (2.0 - q) / (2.0 * (2.0 - q)) - mu4 * t0 ** (4.0 - q) / (24.0 * (4.0 - q))
    series_err = mu6 * t0 ** (6.0 - q) / (720.0 * (6.0 - q))

    def integrand(t):
        return (1.0 - re_phi(t)) / t ** (q + 1.0)

    def resid(lo: float) -> float:
        return abs_phi_bound(lo) / (q * lo**q)

    def done(hi: float, body: float) -> bool:
        return hi >= _TAIL_THRESHOLD and resid(hi) < max(_ABS_TOL, 1e-13 * abs(body))

    body_val, body_err, lo = integrate_doubling(integrand, t0, done)
    tail_val = 1.0 / (q * lo**q)
    value = cq * (series_val + body_val + tail_val)
    err = cq * (series_err + body_err + resid(lo))
    return value, err


def _montecarlo_moment(model: GammaSumModel, q: MomentQuery, seed: int, count: int) -> MomentEstimate:
    """Monte Carlo with a 99% normal-quantile interval.

    One `Generator(PCG64(SeedSequence(seed)))` stream per query, the
    generator of `model.sample`, gives _MC_PARTITIONS consecutive chunks of
    per = max(2, count // _MC_PARTITIONS) samples each, so results depend
    on (seed, count), and not on the sampler's block size or the number of
    cores; count < 1 raises ValueError.  Each chunk's size, sum of payoffs
    and sum of their squares are added in chunk order.  Raises ValueError
    where the sum of the payoffs or of their squares leaves the float range
    (or a payoff is not a number): the interval would be meaningless there.

    With every shape an integer, a chunk is rows = per // 2 antithetic
    pairs, each drawn by the Erlang kernel `model._erlang_rows` from K =
    sum(orders) uniforms, and `Generator.random` takes one 64-bit output of
    PCG64 per double, so chunk c starts at output c rows K of the stream.
    The chunks are split into contiguous groups (`_chunk_groups`); the
    group from chunk c0 draws on its own generator, advanced by
    `PCG64.advance(c0 rows K)` in O(log) steps, the very uniforms the
    serial kernel draws there, and each row is contracted on its own, so
    no row depends on the grouping and every estimate is bit for bit the
    one-thread estimate.  Group 0 runs on the calling thread and the
    others on worker threads (`_workers`): numpy releases the GIL in the
    draws, logs, contraction and powers.  Memory is bounded per group by
    one chunk or one pass of _ERLANG_BLOCK uniforms per side, whichever is
    larger.  Otherwise a chunk is plain draws of S (`model._draw`), whose
    variable number of uniforms per draw keeps every chunk on the calling
    thread, and memory is bounded by one chunk.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if _beyond_float_range(model, q):
        raise ValueError("the moment lies beyond the float range")
    per = max(2, count // _MC_PARTITIONS)
    if model.integer_shapes:
        orders = [int(s) for s in model.shapes]
        rows = per // 2
        groups = _chunk_groups(rows * sum(orders))
        work = [(model.weights, orders, rows, q, seed, first, chunks) for first, chunks in groups]
        pending = [_workers().submit(_antithetic_sums, *args) for args in work[1:]]
        sums = _antithetic_sums(*work[0])
        for future in pending:
            sums += future.result()
    else:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            sums = _chunk_sums(_payoff(_draw(model, rng, per), q) for _ in range(_MC_PARTITIONS))
    n = 0
    acc = 0.0
    acc2 = 0.0
    for size, total, squares in sums:
        n += size
        acc += total
        acc2 += squares
    if not (math.isfinite(acc) and math.isfinite(acc2)):
        raise ValueError("Monte Carlo payoffs or their squares sum beyond the float range")
    mean = acc / n
    var = max(0.0, (acc2 - n * mean * mean) / (n - 1))
    ci = _Z99 * math.sqrt(var / n)
    return MomentEstimate(mean, ci, "montecarlo", q.p)


def _chunk_groups(uniforms: int) -> list[tuple[int, int]]:
    """(first chunk, chunks) of each contiguous group of the _MC_PARTITIONS
    chunks of an antithetic query with this many uniforms per side in each
    chunk: _MC_WORKERS groups, fewer where a group would hold less than
    _MC_GROUP_UNIFORMS uniforms per side."""
    count = max(1, min(_MC_WORKERS, _MC_PARTITIONS * uniforms // _MC_GROUP_UNIFORMS))
    bounds = [g * _MC_PARTITIONS // count for g in range(count + 1)]
    return [(lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])]


def _antithetic_sums(weights, orders, rows: int, q: MomentQuery, seed: int, first: int, chunks: int) -> list:
    """`_chunk_sums` of chunks antithetic chunks of rows pairs from chunk
    first on, drawn from the query's stream advanced to that chunk's first
    uniform.  It enters its own np.errstate, which numpy keeps per thread:
    an overflowing payoff or sum is caught by the caller's finiteness
    check."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)).advance(first * rows * sum(orders)))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _chunk_sums(_erlang_rows(rng, weights, orders, rows, lambda s: _payoff(s, q), chunks))


def _chunk_sums(chunks) -> list[tuple[int, float, float]]:
    """(size, sum, sum of squares) of each chunk of payoffs.  A chunk is
    squared in place once summed, the products and pairwise sum of
    (h * h).sum() without its temporary."""
    sums = []
    for h in chunks:
        total = float(h.sum())
        sums.append((h.size, total, float(np.square(h, out=h).sum())))
    return sums


def _workers():
    """The pool of worker threads of split Monte Carlo queries, made on
    first use (a forked child drops its parent's)."""
    global _pool
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(_MC_WORKERS - 1, thread_name_prefix="expmoments-montecarlo")
    return _pool


def _drop_pool() -> None:
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _beyond_float_range(model: GammaSumModel, q: MomentQuery) -> bool:
    """Whether a rigorous lower bound on E|S - shift|^p exceeds the float
    range, so that Monte Carlo need not draw samples to find its payoffs
    overflow.  Where S - shift has one sign, |S - shift| >= |w_k G_k|
    pointwise, so the moment is at least |w_k|^p Gamma(s_k + p) / Gamma(s_k)
    for each term; for p >= 2 Lyapunov's inequality bounds it below by
    (E(S - shift)^2)^(p/2).  A signed moment that takes both signs may
    cancel, and is never refused.  Each bound is taken in logarithms, less
    a margin far above their rounding."""
    p, m = q.p, q.shift
    terms = list(zip(model.weights, model.shapes))
    one_sign = _one_side(model, m) != 0
    if p <= 0.0 or (q.signed and not one_sign):
        return False
    logs = []
    if one_sign:
        for w, s in terms:
            parts = (p * math.log(abs(w)), loggamma(s + p), -loggamma(s))
            logs.append(sum(parts) - 1e-12 * sum(map(abs, parts)))
    if p >= 2.0:
        # E(S - m)^2 = Var S + (E S - m)^2, the sum of s w^2 over the terms
        # and the offset less its rounding, summed in logarithms
        offset = abs(sum(s * w for w, s in terms) - m) - 1e-12 * (sum(abs(s * w) for w, s in terms) + abs(m))
        exponents = [math.log(s) + 2.0 * math.log(abs(w)) for w, s in terms]
        if offset > 0.0:
            exponents.append(2.0 * math.log(offset))
        top = max(exponents)
        log_second = top + math.log(sum(math.exp(x - top) for x in exponents))
        # every log of a float is at most 745 in size, so each exponent,
        # and log_second, is far within 1e-9 of its value
        logs.append(0.5 * p * (log_second - 1e-9))
    return max(logs, default=-math.inf) > _LOG_FLOAT_MAX


def _payoff(s: np.ndarray, q: MomentQuery) -> np.ndarray:
    """|s - shift|^p, times sgn(s - shift) when signed, written over s by
    the float operations of that expression (`**=` takes the shortcuts of
    `**` for scalar powers)."""
    if q.shift or math.copysign(1.0, q.shift) < 0.0:
        np.subtract(s, q.shift, out=s)  # s - (+0.0) is s itself
    sign = np.sign(s) if q.signed else None
    np.abs(s, out=s)
    s **= q.p
    if sign is not None:
        s *= sign
    return s
