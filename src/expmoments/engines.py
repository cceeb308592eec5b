"""Unified computation of E|S - m|^p (and the signed variant) by several
independent engines with automatic dispatch.

Engine order for auto dispatch is exact > density > fourier > montecarlo,
decreasing in accuracy.  The exact engine answers every query whose
moment is a polynomial in the cumulants, in exact rationals: integer
p >= 0 where E|S - m|^p (times sgn(S - m) when signed) is sigma E(S - m)^p,
that is unsigned even p and signed odd p, and every p when S - m has one
sign almost surely (weights all positive and m <= 0, or all negative and
m >= 0).  Signed even p and unsigned odd p on mixed support are not
polynomial.  Auto dispatch leaves two parts of that domain to the engines
below: shift 0 with integer shapes (other than unsigned even p), where the
density closed form is cheaper, and p above _EXACT_MAX_P, where the
integer recurrence grows too costly.  The density engine serves integer
shapes through the closed-form Erlang mixture (term algebra at shift 0,
quadrature otherwise): the partial fractions of the model, and where
those reject it (weights closer than model._MERGE_GAP), fail to converge
or give a poor bound, the partial fractions of its gamma mixture, in which
each group of close weights of one sign is one pole (`gamma_mixture`),
signed or not, shifted or not.  The Fourier engine serves 0 < p < 2
unsigned; the Monte Carlo engine serves everything that is left.  A
density quadrature or Fourier integral that fails to converge
(`QuadratureError`), or a density outside the float range, falls through
to the next engine, as a poor bound does; a forced engine raises it
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    _MERGE_GAP,
    GammaSumModel,
    MomentQuery,
    PartialFractionDensity,
    PfdTerm,
    _UNIT_ROUNDOFF,
    _chs_scaled,
    _draw,
    _erlang_rows,
    _partial_fractions,
    _power_moment_scaled,
    gamma_mixture,
    partial_fraction_density,
    term_roundoff,
)
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, QuadratureError, integrate, integrate_abs_power
from .specialfn import fourier_constant, loggamma

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
# relative floor under every density error bound
_REL_FLOOR = 1e-15
# auto dispatch leaves the density closed form when its bound exceeds this
# fraction of max(1, |value|)
_FALLBACK_REL = 1e-3
# highest p of the exact engine's cumulant recurrence, whose integers grow
# with p: at n = 4 with fractional shapes, on a 2-vCPU Xeon VM under
# Python 3.11, about 4 ms at p = 50, 50 ms at p = 100 and 0.6 s at p = 200
_EXACT_MAX_P = 100


@dataclass(frozen=True)
class MomentEstimate:
    """A moment value with engine tag and an absolute error bound
    (99% CI half-width for the Monte Carlo engine)."""

    value: float
    error: float
    engine: str
    p: float
    fingerprint: str

    def __post_init__(self):
        if self.error < 0.0:
            raise ValueError("error bound must be nonnegative")


def moment(
    model: GammaSumModel,
    query: MomentQuery,
    engine: str | None = None,
    cfg: QuadratureConfig | None = None,
    seed: int = 0,
    count: int = 1_000_000,
) -> MomentEstimate:
    """E|S - shift|^p (times sgn(S - shift) when query.signed).

    engine=None auto-dispatches; an explicit tag forces that engine and
    raises if the query is outside its domain.
    """
    cfg = cfg or DEFAULT_CONFIG
    if engine is None:
        return _auto_moment(model, query, cfg, seed, count)
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if engine == "exact":
        return _exact_moment(model, query)
    if engine == "density":
        return _density_estimate(model, query, cfg)
    if engine == "fourier":
        if query.signed:
            raise ValueError("fourier engine cannot compute signed moments")
        if not 0.0 < query.p < 2.0:
            raise ValueError("fourier engine requires 0 < p < 2")
        return _fourier_estimate(model, query, cfg)
    return _montecarlo_moment(model, query, seed, count)


def _auto_moment(
    model: GammaSumModel, query: MomentQuery, cfg: QuadratureConfig, seed: int, count: int
) -> MomentEstimate:
    if _exact_applies(model, query):
        return _exact_moment(model, query)
    # a density estimate is kept only while its honest bound is good; one
    # outside the engine's domain, or a quadrature that fails to converge,
    # falls through to the next engine as a poor bound does
    try:
        est = _density_estimate(model, query, cfg)
        if not _poor(est):
            return est
    except (ValueError, QuadratureError):
        pass
    if (not query.signed) and 0.0 < query.p < 2.0:
        try:
            return _fourier_estimate(model, query, cfg)
        except (ValueError, QuadratureError):
            pass
    return _montecarlo_moment(model, query, seed, count)


def _poor(est: MomentEstimate) -> bool:
    return est.error > _FALLBACK_REL * max(1.0, abs(est.value))


def moments(W, p: float, cfg: QuadratureConfig | None = None) -> tuple[np.ndarray, np.ndarray]:
    """E|S_b|^p with S_b = sum_k W[b, k] E_k, for every row b of a (B, n)
    array of nonnegative exponential weights; zero entries are absent terms.

    Returns (values, errors), each of shape (B,).  Row b gets what
    auto-dispatched `moment` gives for the model of W[b], which drops its
    zeros and merges its equal weights (an all-zero row, which has no
    model, gets 0, or 1 at p = 0, as the zero sum):

    - even integer p: the exact engine, error 0;
    - distinct weights at relative gaps of at least model._MERGE_GAP: the density
      closed form Gamma(p+1) sum_k c_k w_k^p with
      c_k = prod_{j != k} 1 / (1 - w_j / w_k), evaluated in one numpy pass
      per count of nonzero entries, with the scalar path's
      sensitivity-charged bound;
    - every other row (equal or nearly coincident weights, a bound above
      the fallback threshold, a non-finite result): `moment` itself, whose
      gamma mixture keeps clustered rows on the density engine.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2:
        raise ValueError("weights must form a (B, n) array")
    if not (np.isfinite(W).all() and (W >= 0.0).all()):
        raise ValueError("weights must be finite and nonnegative")
    query = MomentQuery(p=float(p))
    p = query.p
    active = W > 0.0
    values = np.zeros(W.shape[0])
    errors = np.zeros(W.shape[0])
    if _even_integer(p):
        for b, row in enumerate(W):
            values[b] = _exact_value(row[active[b]].tolist(), int(p))
        return values, errors

    counts = active.sum(axis=1)
    if p < 0.0 and not counts.all():
        raise ValueError("negative moment of the zero sum diverges")
    # each row's nonzero entries first, in their order
    packed = np.take_along_axis(W, np.argsort(~active, axis=1, kind="stable"), axis=1)
    log_gamma = loggamma(p + 1.0)
    scalar_rows = []
    for m in range(1, W.shape[1] + 1):
        rows = np.flatnonzero(counts == m)
        if not rows.size:
            continue
        value, err, ok = _simple_pole_moments(packed[rows, :m], p, log_gamma)
        values[rows[ok]] = value[ok]
        errors[rows[ok]] = err[ok]
        scalar_rows.extend(rows[~ok].tolist())
    for b in scalar_rows:
        est = moment(GammaSumModel.of(W[b].tolist()), query, cfg=cfg)
        values[b] = est.value
        errors[b] = est.error
    return values, errors


def _simple_pole_moments(w: np.ndarray, p: float, log_gamma: float):
    """Density closed form over the rows of a (B, m) array of positive
    weights: (values, errors, ok), where ok marks the rows that auto
    dispatch keeps on the density engine as simple poles."""
    coeff = np.ones_like(w)
    sensitivity = np.ones_like(w)
    separated = np.ones(len(w), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # pole j's factor in the coefficient and sensitivity of every other
        # pole k, accumulated in the order partial_fraction_density uses
        for j in range(w.shape[1]):
            wj = w[:, j : j + 1]
            top = np.maximum(w, wj)
            gap = np.abs(w - wj)
            gap[:, j] = np.inf
            factor = 1.0 / (1.0 - wj / w)
            factor[:, j] = 1.0
            coeff *= factor
            sensitivity += top / gap
            # equal weights merge into a higher-order pole and nearly
            # coincident ones have no partial fractions: both stay scalar
            separated &= ~(gap < _MERGE_GAP * top).any(axis=1)
        # math.log as on the scalar path: exp turns a one-ulp change in its
        # argument log Gamma(p+1) + p log w into |argument| ulps of the term,
        # which the roundoff bound does not charge
        log_w = np.fromiter(map(math.log, w.ravel().tolist()), float, w.size).reshape(w.shape)
        mag = coeff * np.exp(log_gamma + p * log_w)
        value = mag.sum(axis=1)
        err = np.maximum(term_roundoff(mag, sensitivity).sum(axis=1), _REL_FLOOR * np.abs(value))
        ok = separated & np.isfinite(value) & (err <= _FALLBACK_REL * np.maximum(1.0, np.abs(value)))
    return value, err, ok


def density_at(model: GammaSumModel, t: float, shift: float = 0.0) -> float:
    """Closed-form density of S - shift evaluated at t (integer shapes)."""
    pfd = partial_fraction_density(model)
    return pfd.density(float(t) + float(shift))


def _even_integer(p: float) -> bool:
    return float(p).is_integer() and p >= 0.0 and int(p) % 2 == 0


def _exact_applies(model: GammaSumModel, q: MomentQuery) -> bool:
    """Auto dispatch's part of the exact engine's domain: at shift 0 with
    integer shapes only unsigned even p (the density closed form is cheaper
    for the rest), elsewhere every polynomial query up to _EXACT_MAX_P."""
    if q.shift == 0.0 and model.integer_shapes:
        return (not q.signed) and _even_integer(q.p)
    return q.p <= _EXACT_MAX_P and _polynomial_sign(model, q) is not None


def _polynomial_sign(model: GammaSumModel, q: MomentQuery) -> int | None:
    """sigma in {1, -1} with E|S - m|^p (times sgn(S - m) when signed) =
    sigma E(S - m)^p, or None where no such identity holds: p not an
    integer >= 0, or a signed even p or unsigned odd p while S - m takes
    both signs."""
    if not (float(q.p).is_integer() and q.p >= 0.0):
        return None
    power = int(q.p) + q.signed
    if all(w > 0 for w in model.weights) and q.shift <= 0.0:
        return 1
    if all(w < 0 for w in model.weights) and q.shift >= 0.0:
        # S - m < 0: |x|^p = (-x)^p and sgn(x) = -1
        return -1 if power % 2 else 1
    return 1 if power % 2 == 0 else None


def _exact_moment(model: GammaSumModel, q: MomentQuery) -> MomentEstimate:
    if (not q.signed) and q.shift == 0.0 and _even_integer(q.p) and model.integer_shapes:
        # Hunter's identity E S^ell = ell! h_ell(w), at any ell
        value = _exact_value([float(w) for w in model.expanded_weights()], int(q.p))
        return MomentEstimate(value, 0.0, "exact", q.p, model.fingerprint())
    sign = _polynomial_sign(model, q)
    if sign is None:
        raise ValueError(
            "exact engine requires an integer p >= 0 with a polynomial moment: "
            "unsigned even p, signed odd p, or any p where S - shift has one sign"
        )
    if q.p > _EXACT_MAX_P:
        raise ValueError(f"exact engine's cumulant recurrence is capped at p = {_EXACT_MAX_P}")
    num, den = _power_moment_scaled(model.weights, model.shapes, q.shift, int(q.p))
    return MomentEstimate(_exact_float(sign * num, den), 0.0, "exact", q.p, model.fingerprint())


def _exact_value(ws: list, ell: int) -> float:
    """float(even_moment_exact(ws, ell)) without building Fractions:
    ell! h_ell(D w) / D^ell."""
    h, d = _chs_scaled(ws, ell)
    return _exact_float(math.factorial(ell) * h, d**ell)


def _exact_float(num: int, den: int) -> float:
    """num / den, correctly rounded by int true division; ValueError where
    it lies beyond the float range."""
    try:
        return num / den
    except OverflowError:
        raise ValueError("exact moment lies beyond the float range") from None


def _density_moment(
    model: GammaSumModel, pfd: PartialFractionDensity, q: MomentQuery, cfg: QuadratureConfig
) -> MomentEstimate:
    fp = model.fingerprint()
    if q.shift == 0.0:
        # term algebra: each |t|^p weight against an Erlang term has a Gamma closed form
        value, err = pfd.power_moment_with_error(q.p, signed=q.signed)
        err = max(err, _REL_FLOOR * abs(value))
        return MomentEstimate(value, err, "density", q.p, fp)
    value, err = _density_quadrature(pfd, q.p, q.shift, q.signed, cfg)
    return MomentEstimate(value, err, "density", q.p, fp)


def _density_estimate(model: GammaSumModel, q: MomentQuery, cfg: QuadratureConfig) -> MomentEstimate:
    """The density engine: partial fractions, then, where they reject the
    model (nearly coincident weights), fail to converge or give a poor
    bound, the gamma mixture; the smaller bound of the two is kept.
    Raises ValueError outside the engine's domain (a fractional shape, a
    term table beyond the float range) and QuadratureError where no
    attempt converges."""
    if not model.integer_shapes:
        raise ValueError("density engine needs integer shapes")
    best = failure = None
    for attempt in (_partial_fraction_moment, _mixture_moment):
        try:
            est = attempt(model, q, cfg)
        except (ValueError, QuadratureError) as exc:
            failure = failure or exc
            continue
        if best is None or est.error < best.error:
            best = est
        if not _poor(best):
            break
    if best is None:
        raise failure
    return best


def _partial_fraction_moment(model: GammaSumModel, q: MomentQuery, cfg: QuadratureConfig) -> MomentEstimate:
    return _density_moment(model, partial_fraction_density(model), q, cfg)


def _mixture_moment(model: GammaSumModel, q: MomentQuery, cfg: QuadratureConfig) -> MomentEstimate:
    """The query on `gamma_mixture`'s merged model: its partial fractions,
    taken once over the groups' weighted orders, are the mixture of the
    merged models' partial fractions, which the term algebra (shift 0) or
    the quadrature (otherwise) takes as it takes any other density.

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
    est = _density_moment(model, PartialFractionDensity(tuple(terms)), q, cfg)
    return MomentEstimate(est.value, est.error + tail, "density", q.p, est.fingerprint)


def _density_quadrature(
    pfd: PartialFractionDensity, p: float, m: float, signed: bool, cfg: QuadratureConfig
) -> tuple[float, float]:
    """E|S - m|^p (times sgn(S - m) when signed) by quadrature of the
    density, one half-line at a time, in the coordinate tau = |t| of that
    half-line.  Where the shift lies inside a half-line it splits it into
    [0, |m|] and [|m|, inf); each piece is integrated once and the pieces
    combine by the sign of t - m on them: sgn(t) beyond the shift, the
    opposite below it.  The error is the sum of the pieces' errors."""
    value = 0.0
    err = 0.0
    for side in (1.0, -1.0):
        if not any(term.scale * side > 0.0 for term in pfd.terms):
            continue
        f = pfd._one_sided if side > 0.0 else (lambda tau: pfd._one_sided(-tau))
        mm = side * m
        if mm > 0.0:
            below, eb = integrate_abs_power(f, p, mm, 0.0, mm, cfg)
            above, ea = integrate_abs_power(f, p, mm, mm, math.inf, cfg)
            value += side * (above - below) if signed else below + above
            err += eb + ea
        else:
            whole, e = integrate_abs_power(f, p, mm, 0.0, math.inf, cfg)
            value += side * whole if signed else whole
            err += e
    return value, err


def _fourier_estimate(model: GammaSumModel, q: MomentQuery, cfg: QuadratureConfig) -> MomentEstimate:
    value, err = _fourier_moment(model, q.p, q.shift, cfg)
    return MomentEstimate(value, err, "fourier", q.p, model.fingerprint())


def _fourier_moment(model: GammaSumModel, q: float, m: float, cfg: QuadratureConfig) -> tuple[float, float]:
    def abs_phi_bound(t: float) -> float:
        acc = 0.0
        for w, s in zip(model.weights, model.shapes):
            acc += s * math.log1p((float(w) * t) ** 2)
        return math.exp(-0.5 * acc)

    re_phi = _shifted_re_phi(model, m)
    mu246 = [_exact_float(*_power_moment_scaled(model.weights, model.shapes, m, k)) for k in (2, 4, 6)]
    return fourier_abs_moment_from_cf(re_phi, q, mu246, abs_phi_bound, cfg)


def _shifted_re_phi(model: GammaSumModel, m: float):
    """t -> Re E exp(it(S - m)) in real arithmetic: the principal branch of
    (1 - i w t)^(-s) is (1 + w^2 t^2)^(-s/2) exp(i s atan(w t)), so
    Re phi(t) e^(-itm) = exp(-1/2 sum s log1p(w^2 t^2)) cos(sum s atan(w t) - t m)."""
    factors = [(float(w), s) for w, s in zip(model.weights, model.shapes)]

    def re_phi(t: float) -> float:
        log_mod = 0.0
        arg = 0.0
        for w, s in factors:
            wt = w * t
            log_mod += s * math.log1p(wt * wt)
            arg += s * math.atan(wt)
        return math.exp(-0.5 * log_mod) * math.cos(arg - t * m)

    return re_phi


def fourier_abs_moment_from_cf(re_phi, q, mu246, abs_phi_bound, cfg=None):
    """E|Y|^q = c_q int_0^inf (1 - Re phi_Y(t)) / t^(q+1) dt for 0 < q < 2.

    Below a crossover t0 the integrand is replaced by the two-term series
    mu2 t^2/2 - mu4 t^4/24 of 1 - Re phi (the direct difference cancels
    catastrophically there); the truncation is bounded by the mu6 term.
    The body is integrated over doubling blocks, and beyond the last block
    edge T the exact power tail 1/(q T^q) is added with the residual
    bounded through the decreasing envelope abs_phi_bound.
    """
    if not 0.0 < q < 2.0:
        raise ValueError("fourier representation requires 0 < q < 2")
    cfg = cfg or DEFAULT_CONFIG
    mu2, mu4, mu6 = mu246
    cq = fourier_constant(q)

    t0 = (720.0 * (6.0 - q) * cfg.abs_tol / max(mu6, 1e-300)) ** (1.0 / (6.0 - q))
    if mu4 > 0.0:
        t0 = min(t0, math.sqrt(mu2 / mu4), 1.0)
    series_val = mu2 * t0 ** (2.0 - q) / (2.0 * (2.0 - q)) - mu4 * t0 ** (4.0 - q) / (24.0 * (4.0 - q))
    series_err = mu6 * t0 ** (6.0 - q) / (720.0 * (6.0 - q))

    def integrand(t: float) -> float:
        return (1.0 - re_phi(t)) / t ** (q + 1.0)

    body_val = 0.0
    body_err = 0.0
    lo = t0
    blocks = 0
    while True:
        hi = 2.0 * lo
        v, e = integrate(integrand, lo, hi, cfg)
        body_val += v
        body_err += e
        lo = hi
        blocks += 1
        resid = abs_phi_bound(lo) / (q * lo**q)
        if lo >= cfg.tail_threshold and resid < max(cfg.abs_tol, 1e-13 * abs(body_val)):
            break
        if blocks > 4000:
            raise QuadratureError("fourier tail failed to decay", body_val, resid)
    tail_val = 1.0 / (q * lo**q)
    tail_resid = abs_phi_bound(lo) / (q * lo**q)
    value = cq * (series_val + body_val + tail_val)
    err = cq * (series_err + body_err + tail_resid)
    return value, err


def _montecarlo_moment(model: GammaSumModel, q: MomentQuery, seed: int, count: int) -> MomentEstimate:
    """Partitioned Monte Carlo with a 99% normal-quantile interval.

    Trials split across _MC_PARTITIONS partitions, each drawing from a seed
    derived from (seed, partition), so results depend on (seed, count) and
    not on the sampler's block size.  With every shape an integer, each
    partition runs count // _MC_PARTITIONS // 2 antithetic pairs through
    the Erlang kernel `model._erlang_rows`; otherwise it takes
    count // _MC_PARTITIONS plain draws of S (`model._draw`).  Raises
    ValueError where the sum of the payoffs or of their squares leaves the
    float range (or a payoff is not a number): the interval would be
    meaningless there.
    """
    n = 0
    acc = 0.0
    acc2 = 0.0
    antithetic = model.integer_shapes
    per = max(2, count // _MC_PARTITIONS)
    # an overflowing payoff or sum is caught by the finiteness check below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for part in range(_MC_PARTITIONS):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(part,))))
            if antithetic:
                orders = [int(s) for s in model.shapes]
                h = _erlang_rows(rng, model.weights, orders, per // 2, lambda s: _payoff(s, q))
            else:
                h = _payoff(_draw(model, rng, per), q)
            n += h.size
            acc += float(h.sum())
            acc2 += float((h * h).sum())
    if not (math.isfinite(acc) and math.isfinite(acc2)):
        raise ValueError("Monte Carlo payoffs or their squares sum beyond the float range")
    mean = acc / n
    var = max(0.0, (acc2 - n * mean * mean) / (n - 1))
    ci = _Z99 * math.sqrt(var / n)
    return MomentEstimate(mean, ci, "montecarlo", q.p, model.fingerprint())


def _payoff(s: np.ndarray, q: MomentQuery) -> np.ndarray:
    d = s - q.shift
    out = np.abs(d) ** q.p
    if q.signed:
        out = out * np.sign(d)
    return out
