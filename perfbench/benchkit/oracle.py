"""High-precision reference values for E|S - m|^p, written independently of
expmoments so that it can referee the package's engines.

S = sum_j w_j V_j with V_j ~ Gamma(shape_j).  Three routes:

* integer p, any shift and any shapes: E (S - m)^p in exact rationals by the
  moment-cumulant recursion.  It equals E|S - m|^p for even p and the
  signed moment E|S - m|^p sgn(S - m) for odd p;
* integer shapes, any shift: partial fractions in mpmath, each Erlang term
  integrated against |t - m|^p in closed form (Gamma values, Kummer 1F1,
  Tricomi U);
* fractional shapes, unsigned 0 < p < 2: mpmath on the Fourier
  representation c_p int_0^inf (1 - Re phi(t)) t^(-p-1) dt, with the
  oscillatory tail summed half-period by half-period (about 14 digits).

Near-coincident weights make the partial-fraction coefficients large and
cancelling; the working precision grows with the digits that cancellation
costs, so every integer-shape reference keeps at least DIGITS digits.
Equal weights merge into higher-order poles.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

DIGITS = 30
FOURIER_DPS = 20


def exact_integer_moment(weights, shapes, p: int, shift) -> Fraction:
    """E (S - shift)^p exactly, for integer p >= 0 and any positive shapes."""
    p = int(p)
    if p < 0:
        raise ValueError("exact_integer_moment needs p >= 0")
    ws = [Fraction(float(w)) for w in weights]
    ss = [Fraction(float(s)) for s in shapes]
    kappa = [Fraction(0)] * (p + 1)
    for r in range(1, p + 1):
        kappa[r] = math.factorial(r - 1) * sum(s * w**r for w, s in zip(ws, ss))
    if p >= 1:
        kappa[1] -= Fraction(float(shift))
    mu = [Fraction(1)] + [Fraction(0)] * p
    for k in range(1, p + 1):
        mu[k] = sum(math.comb(k - 1, i - 1) * kappa[i] * mu[k - i] for i in range(1, k + 1))
    return mu[p]


def _poles(weights, shapes):
    """[(weight, order)] with equal weights merged; integer shapes only."""
    orders: dict[float, int] = {}
    for w, s in zip(weights, shapes):
        s = float(s)
        if not s.is_integer() or s < 1:
            raise ValueError("partial fractions need integer shapes")
        w = float(w)
        if w == 0.0:
            raise ValueError("zero weights carry no density factor")
        orders[w] = orders.get(w, 0) + int(s)
    return sorted(orders.items())


def _guard_digits(poles) -> int:
    """Digits that coefficient cancellation can cost for these poles."""
    ws = [w for w, _ in poles]
    total_order = sum(m for _, m in poles)
    worst = 1.0
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            gap = abs(ws[i] - ws[j]) / max(abs(ws[i]), abs(ws[j]))
            worst = min(worst, gap)
    return 12 + math.ceil(total_order * max(0.0, -math.log10(worst)))


def _erlang_terms(poles):
    """[(coeff, weight, order)]: the density is sum coeff * Erlang(order, weight).

    Laplace transform prod_j (1 + w_j s)^(-m_j); at the pole u = 1 + a s = 0
    the other factors become ((1 - w_j/a) + (w_j/a) u)^(-m_j), whose Taylor
    coefficients give the principal part sum_r coeff_r u^(-r).
    """
    terms = []
    for k, (a, order) in enumerate(poles):
        a = mpmath.mpf(a)
        series = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (order - 1)
        for j, (wj, mj) in enumerate(poles):
            if j == k:
                continue
            ratio = mpmath.mpf(wj) / a
            c = 1 - ratio
            factor = [c ** (-mj)]
            for i in range(1, order):
                factor.append(factor[-1] * (-(ratio / c)) * (mj + i - 1) / i)
            series = [
                mpmath.fsum(series[i] * factor[d - i] for i in range(d + 1)) for d in range(order)
            ]
        for r in range(1, order + 1):
            terms.append((series[order - r], a, r))
    return terms


def _term_moment(a, r, p, m, signed):
    """E|X - m|^p (times sgn(X - m) when signed) for X = a * Gamma(r), a != 0.

    With mu = m / a the Erlang integral splits into closed forms: above the
    shift a binomial sum of Gamma values, below it a Kummer 1F1, and for a
    shift outside the support a Tricomi U.
    """
    if a < 0:
        v = _term_moment(-a, r, p, -m, signed)
        return -v if signed else v
    mu = m / a
    pre = a**p / mpmath.factorial(r - 1)
    if mu <= 0:
        nu = -mu
        if nu == 0:
            return pre * mpmath.gamma(p + r)
        return pre * nu ** (p + r) * mpmath.gamma(r) * mpmath.hyperu(r, r + p + 1, nu)
    above = mpmath.exp(-mu) * mpmath.fsum(
        mpmath.binomial(r - 1, i) * mu ** (r - 1 - i) * mpmath.gamma(p + i + 1) for i in range(r)
    )
    below = mu ** (p + r) * mpmath.beta(r, p + 1) * mpmath.hyp1f1(r, r + p + 1, -mu)
    return pre * (above - below if signed else above + below)


def integer_shape_moment(weights, shapes, p: float, shift: float = 0.0, signed: bool = False) -> float:
    """E|S - shift|^p (times sgn(S - shift) when signed) for integer shapes, p > -1."""
    if float(p) <= -1.0:
        raise ValueError("moment exponent must exceed -1")
    poles = _poles(weights, shapes)
    dps = DIGITS + _guard_digits(poles)
    while True:
        with mpmath.workdps(dps):
            pm = mpmath.mpf(float(p))
            mm = mpmath.mpf(float(shift))
            parts = [c * _term_moment(a, r, pm, mm, signed) for c, a, r in _erlang_terms(poles)]
            value = mpmath.fsum(parts)
            scale = mpmath.fsum(abs(v) for v in parts)
            lost = 0 if value == 0 else max(0, int(mpmath.ceil(mpmath.log10(scale / abs(value)))))
            if dps - lost >= DIGITS + 5:
                return float(value)
        dps += lost + 10


def _cf_polar(ws, ss, m, t):
    """(log |phi|, arg phi) of phi(t) = E exp(it(S - m)), in real arithmetic."""
    log_mod = -mpmath.fsum(s * mpmath.log1p((w * t) ** 2) for w, s in zip(ws, ss)) / 2
    arg = mpmath.fsum(s * mpmath.atan(w * t) for w, s in zip(ws, ss)) - t * m
    return log_mod, arg


def _oscillatory_tail(weights, shapes, p, m, start, panels=256, averagings=24, nodes=24):
    """int_start^inf Re phi(t) t^(-p-1) dt in double precision, m != 0.

    Gauss-Legendre over half-periods of exp(-itm); the panel sums alternate
    with a smooth envelope, so repeated averaging of the last partial sums
    (the Euler transform) converges to the limit.
    """
    x, wt = np.polynomial.legendre.leggauss(nodes)
    h = math.pi / abs(m)
    t = start + h * np.arange(panels)[:, None] + 0.5 * h * (x[None, :] + 1.0)
    log_phi = -1j * t * m
    for w, s in zip(weights, shapes):
        log_phi = log_phi - s * np.log1p(-1j * w * t)
    f = np.exp(log_phi).real / t ** (p + 1.0)
    partial = np.cumsum(0.5 * h * (f * wt).sum(axis=1))[-(averagings + 1):]
    for _ in range(averagings):
        partial = 0.5 * (partial[:-1] + partial[1:])
    return float(partial[0])


def fourier_moment(weights, shapes, p: float, shift: float) -> float:
    """E|S - shift|^p for 0 < p < 2, any positive shapes, unsigned, shift != 0.

    c_p int_0^inf (1 - Re phi(t)) t^(-p-1) dt.  The head, up to
    t = 32 / sqrt(E(S - m)^2), runs in mpmath after the substitution
    u = t^(2-p), which removes the t^(1-p) singularity at 0.  Beyond it
    only int Re phi(t) t^(-p-1) dt remains, small enough for double
    precision.
    """
    p = float(p)
    m = float(shift)
    if not 0.0 < p < 2.0 or m == 0.0:
        raise ValueError("the Fourier route needs 0 < p < 2 and a nonzero shift")
    with mpmath.workdps(FOURIER_DPS):
        q = mpmath.mpf(p)
        mm = mpmath.mpf(m)
        ws = [mpmath.mpf(float(w)) for w in weights]
        ss = [mpmath.mpf(float(s)) for s in shapes]
        power = 1 / (2 - q)
        second_moment = mpmath.fsum(s * w * w for w, s in zip(ws, ss)) + (mpmath.fsum(s * w for w, s in zip(ws, ss)) - mm) ** 2

        def g(u):
            # (1 - Re phi(t)) / t^2 with 1 - |phi| cos(arg) = -expm1(log|phi|) + 2 |phi| sin^2(arg/2):
            # two nonnegative terms, so nothing cancels as t -> 0
            t = u**power
            if t == 0:
                return second_moment / 2
            log_mod, arg = _cf_polar(ws, ss, mm, t)
            return (-mpmath.expm1(log_mod) + 2 * mpmath.exp(log_mod) * mpmath.sin(arg / 2) ** 2) / t**2

        split = 32 / mpmath.sqrt(mpmath.fsum(s * w * w for w, s in zip(ws, ss)) + mm * mm)
        head, err = mpmath.quad(g, [0] + [(split * k / 8) ** (2 - q) for k in range(1, 9)], error=True)
        if not err <= mpmath.mpf(10) ** (5 - FOURIER_DPS) * abs(head):
            raise ArithmeticError(f"oracle: Fourier head did not converge (error {err})")
        oscillating = _oscillatory_tail(weights, shapes, p, m, float(split))
        cq = 2 / mpmath.pi * mpmath.sin(mpmath.pi * q / 2) * mpmath.gamma(q + 1)
        return float(cq * (power * head + split ** (-q) / q - oscillating))


def self_check() -> None:
    """Raise unless the oracle reproduces two known closed forms."""
    # two-sided exponential: E|E1 - E2|^p = Gamma(p + 1)
    for p in (-0.5, 0.7, 2.5):
        got = integer_shape_moment((1.0, -1.0), (1.0, 1.0), p)
        want = math.gamma(p + 1.0)
        if abs(got - want) > 1e-14 * want:
            raise AssertionError(f"oracle: E|E1-E2|^{p} = {got!r}, want Gamma(p+1) = {want!r}")
    # E|E - 1| = 2/e, by the shifted quadrature and by the Fourier route
    want = 2.0 / math.e
    for got in (integer_shape_moment((1.0,), (1.0,), 1.0, shift=1.0), fourier_moment((1.0,), (1.0,), 1.0, 1.0)):
        if abs(got - want) > 1e-14:
            raise AssertionError(f"oracle: E|E-1| = {got!r}, want 2/e = {want!r}")
    # Erlang(3) second moment about its mean is its variance, 3
    if exact_integer_moment((1.0,), (3.0,), 2, 3.0) != 3:
        raise AssertionError("oracle: cumulant recursion broke Var(Gamma(3)) = 3")
