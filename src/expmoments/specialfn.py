"""Closed-form special-function kernel.

All gamma-function machinery funnels through :func:`loggamma`
(`math.lgamma` on x > 0), so that gamma ratios are always formed in log
space and nothing overflows for arguments far above 170.  Even-integer
Gaussian moments take an exact integer double-factorial path, which the
exact-arithmetic certification suites rely on.  `erlang_abs_moment`
integrates one Erlang term against |x - shift|^p in closed form (Gamma
values, a Kummer series and a scaled incomplete gamma), with a charged
rounding bound; an off-support row whose closed form cancels is integrated.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import _REL_TOL, QuadratureError, integrate

__all__ = [
    "loggamma",
    "gaussian_even_moment_exact",
    "gaussian_abs_moment",
    "fourier_constant",
    "psi",
    "ratio_r",
    "closed_integral_iqs",
    "erlang_abs_moment",
    "exp_units",
]

_LOG_SQRT_PI = 0.5 * math.log(math.pi)
_LOG_2 = math.log(2.0)
# closed_integral_iqs takes Stirling's series for the Gamma ratio from this x
_STIRLING_FROM = 10.0
# the unit of every closed-form roundoff bound.  It is 0.9% below the unit
# roundoff of a double, 2^-53 = 1.1102e-16, not above it, so every charge
# counted in its units is that much light; setting it to 2^-53 widens every
# density bar and is ROADMAP direction 14
_UNIT_ROUNDOFF = 1.1e-16
# the relative error of numpy's exp in units of _UNIT_ROUNDOFF: up to 1.17
# against mpmath on 900,000 arguments (numpy 2.4 on an AVX-512 Xeon), where
# libm's stays below 1
_NUMPY_EXP_UNITS = 2.0
# e^z Gamma(s, z) for 0 < s < 1 by the gamma series below this z, by
# Legendre's continued fraction from it
_CF_FROM = 1.5


def loggamma(x: float) -> float:
    """ln Gamma(x) for x > 0, by the standard library's math.lgamma."""
    x = float(x)
    if math.isnan(x) or x <= 0.0:
        raise ValueError(f"loggamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def gaussian_even_moment_exact(ell: int) -> int:
    """E G^ell for even integer ell >= 0 as an exact integer, (ell-1)!!."""
    if ell < 0 or ell % 2 != 0:
        raise ValueError(f"even nonnegative integer required, got {ell!r}")
    out = 1
    for k in range(1, ell, 2):
        out *= k
    return out


def gaussian_abs_moment(p: float) -> float:
    """E|G|^p = 2^(p/2) Gamma((p+1)/2) / sqrt(pi) for p > -1, G ~ N(0,1).

    Even integer p dispatches to the exact double factorial (ell-1)!!.
    """
    p = float(p)
    if math.isnan(p) or p <= -1.0:
        raise ValueError(f"gaussian_abs_moment requires p > -1, got {p!r}")
    if p.is_integer() and p >= 0 and int(p) % 2 == 0:
        return float(gaussian_even_moment_exact(int(p)))
    return math.exp(0.5 * p * math.log(2.0) + loggamma(0.5 * (p + 1.0)) - _LOG_SQRT_PI)


def fourier_constant(q: float) -> float:
    """c_q = (2/pi) sin(pi q / 2) Gamma(q+1) for 0 < q < 2."""
    q = float(q)
    if not 0.0 < q < 2.0:
        raise ValueError(f"fourier_constant requires 0 < q < 2, got {q!r}")
    return (2.0 / math.pi) * math.sin(0.5 * math.pi * q) * math.exp(loggamma(q + 1.0))


def psi(beta: float, x: float) -> float:
    """Psi_beta(x) = Gamma(x + beta + 1/2) / (x^beta Gamma(x + 1/2)).

    Strictly decreasing in x with limit 1 at infinity; always > 1.
    Evaluated through log-gamma differences.  Where x >= _STIRLING_FROM
    the loggamma values grow with x while their difference stays near
    beta log x, so the difference is taken from Stirling's series, as in
    `closed_integral_iqs`: with u = x + 1/2 and phi as in
    `_stirling_remainder`, log Psi is
    x log1p(beta/u) - beta + beta log1p((beta + 1/2)/x) + phi(u+beta) - phi(u).
    """
    beta = float(beta)
    x = float(x)
    if beta <= 0.0 or x <= 0.0:
        raise ValueError(f"psi requires beta > 0 and x > 0, got ({beta!r}, {x!r})")
    if x < _STIRLING_FROM:
        return math.exp(loggamma(x + beta + 0.5) - beta * math.log(x) - loggamma(x + 0.5))
    u = x + 0.5
    return math.exp(
        x * math.log1p(beta / u) - beta
        + beta * math.log1p((beta + 0.5) / x)
        + (_stirling_remainder(u + beta) - _stirling_remainder(u))
    )


def ratio_r(beta: float, x: float) -> float:
    """R_beta(x) = (1 + 1/x)^beta (x + 1/2) / (x + beta + 1/2).

    One step of the Psi recurrence: Psi_beta(x) = R_beta(x) Psi_beta(x+1),
    so the infinite product of R values telescopes back to Psi.
    """
    beta = float(beta)
    x = float(x)
    if beta <= 0.0 or x <= 0.0:
        raise ValueError(f"ratio_r requires beta > 0 and x > 0, got ({beta!r}, {x!r})")
    return math.exp(beta * math.log1p(1.0 / x)) * (x + 0.5) / (x + beta + 0.5)


def closed_integral_iqs(q: float, s: float) -> float:
    """Closed form of int_0^inf (1 - (1 + t^2/s)^(-(1+s)/2)) / t^(q+1) dt.

    Equals (1/q) Gamma(1 - q/2) Gamma((1+q+s)/2) / (s^(q/2) Gamma((1+s)/2))
    for 0 < q < 2 and s > 0; strictly decreasing in s.  With x = (1+s)/2
    and a = q/2, log Gamma(x+a) - log Gamma(x) - a log s is taken from
    Stirling's series where x >= _STIRLING_FROM, since the loggamma values
    grow with s while their difference stays near a log x and the rest near
    -a log 2: with phi(z) = log Gamma(z) - (z - 1/2) log z + z - log sqrt(2 pi),
    it is (s/2) log1p(a/x) - a + a (log1p((1+q)/s) - log 2) + phi(x+a) - phi(x).
    """
    q = float(q)
    s = float(s)
    if not 0.0 < q < 2.0:
        raise ValueError(f"closed_integral_iqs requires 0 < q < 2, got {q!r}")
    if s <= 0.0:
        raise ValueError(f"closed_integral_iqs requires s > 0, got {s!r}")
    x = 0.5 * (1.0 + s)
    if x < _STIRLING_FROM:
        return math.exp(
            -math.log(q)
            + loggamma(1.0 - 0.5 * q)
            + loggamma(0.5 * (1.0 + q + s))
            - 0.5 * q * math.log(s)
            - loggamma(x)
        )
    a = 0.5 * q
    ratio = (
        0.5 * s * math.log1p(a / x) - a
        + a * (math.log1p((1.0 + q) / s) - _LOG_2)
        + (_stirling_remainder(x + a) - _stirling_remainder(x))
    )
    return math.exp(-math.log(q) + loggamma(1.0 - a) + ratio)


def _stirling_remainder(z: float) -> float:
    """phi(z) = log Gamma(z) - (z - 1/2) log z + z - log sqrt(2 pi) by its
    asymptotic series sum_k B_2k / (2k (2k-1) z^(2k-1)) through z^-13; the
    first term left out, 3617 / (122400 z^15), is below 3e-17 at
    z >= _STIRLING_FROM."""
    w = 1.0 / (z * z)
    series = 1.0 / 1188.0 - w * (691.0 / 360360.0 - w / 156.0)
    return (1.0 / 12.0 - w * (1.0 / 360.0 - w * (1.0 / 1260.0 - w * (1.0 / 1680.0 - w * series)))) / z


def erlang_abs_moment(p: float, k: int, zeta: float, log_scale: float = 0.0) -> tuple[float, float, float]:
    """(upper, lower, error): exp(log_scale) times the integrals of
    |x - zeta|^p x^k e^(-x) over x > max(zeta, 0) (upper) and over
    0 < x < zeta (lower, 0 where zeta < 0), for p > -1, an integer k >= 0
    and zeta != 0; error bounds the rounding and truncation of the two
    together.  With z = |zeta|, every sum has positive terms but the last:

    - zeta > 0, upper: e^(-z) sum_j C(k, j) z^(k-j) Gamma(p+j+1);
    - zeta > 0, lower: z^(p+k+1) B(p+1, k+1) e^(-z) 1F1(p+1; p+k+2; z), the
      Kummer transformation (DLMF 13.2.39) of 1F1(k+1; p+k+2; -z), summed
      until a geometric bound on the rest of the series is negligible;
    - zeta < 0: sum_j C(k, j) (-z)^(k-j) G_j with G_j = e^z Gamma(p+j+1, z),
      built up by G_(j+1) = (p+j+1) G_j + z^(p+j+1) from s = p+1 less an
      integer in (0, 1], where e^z Gamma(s, z) comes from the gamma series
      for small z and otherwise from Legendre's continued fraction, whose
      convergents bracket it (Gautschi, ACM TOMS 5, 1979).  The
      alternating sum is charged on the sum of its parts' magnitudes.
      Where that charge exceeds quadrature._REL_TOL of its value (the
      relative accuracy of the quadrature), or the value is not positive
      (a high order far beyond the shift), the row is integrated instead:
      exp(log_scale) int_0^inf x^k e^(-x) (x + z)^p dx has a positive
      integrand, with nothing to cancel (`_beyond_integral`).  Where that integral fails to converge, the
      alternating sum stands.

    Each exp is charged as `exp_units` says, and the exp that scales a
    piece also a smallest subnormal per unit of the sum it scales, which it
    loses where it underflows.  Raises ValueError where a piece leaves the
    float range.
    """
    lower = lower_err = 0.0
    try:
        if zeta > 0.0:
            upper, upper_err = _upper_piece(p, k, zeta, log_scale)
            lower, lower_err = _lower_piece(p, k, zeta, log_scale)
        else:
            upper, upper_err = _beyond_piece(p, k, -zeta, log_scale)
            if upper <= 0.0 or upper_err > _REL_TOL * upper:
                try:
                    upper, upper_err = _beyond_integral(p, k, -zeta, log_scale)
                except QuadratureError:
                    pass
    except OverflowError:
        upper = upper_err = math.inf
    if not math.isfinite(upper + lower + upper_err + lower_err):
        raise ValueError("the shifted Erlang moment leaves the float range")
    return upper, lower, upper_err + lower_err


def exp_units(parts, lgamma_at=(), exp_err=1.0):
    """The relative rounding of exp(x), in units of _UNIT_ROUNDOFF, for an
    argument x summed from parts, each computed with up to three roundings,
    among them `loggamma` at each argument in lgamma_at.  exp turns the
    argument's absolute error into a relative one: each part costs four
    units of its magnitude (three for itself, one for the sum), each log
    Gamma 13 more (math.lgamma errs by up to about 13 units near 2 and
    three units of its value elsewhere, checked against mpmath) and half a
    unit of its rounded argument x times |psi(x)| <= |log x| + 1.6 / x, and
    exp itself exp_err: one for libm's, _NUMPY_EXP_UNITS for numpy's.
    Works elementwise on numpy arrays of parts."""
    units = exp_err + 4.0 * sum(map(abs, parts))
    for x in lgamma_at:
        units += 13.0 + 0.5 * x * abs(math.log(x))
    return units


def _charged_exp(*parts, lgamma_at=()):
    """exp(sum(parts)) and exp_units of it."""
    return math.exp(sum(parts)), exp_units(parts, lgamma_at)


def _upper_piece(p, k, z, log_scale):
    """exp(log_scale - z + log Gamma(p+1)) sum_j C(k, j) z^(k-j) (p+1)_j."""
    p1 = p + 1.0
    scale, units = _charged_exp(log_scale, -z, loggamma(p1), lgamma_at=(p1,))
    total = 0.0
    rising = 1.0
    for j in range(k + 1):
        total += math.comb(k, j) * z ** (k - j) * rising
        rising *= p1 + j
    # three units per factor of the rising factorial, four for the rest of
    # a part and k for the sum; an exp that underflows errs by up to a
    # smallest subnormal, times total
    value = scale * total
    return value, (units + 4.0 * k + 4.0) * _UNIT_ROUNDOFF * value + total * math.ulp(0.0)


def _lower_piece(p, k, z, log_scale):
    """exp(log_scale + (p+k+1) log z + log B(p+1, k+1) - z) 1F1(p+1; p+k+2; z)."""
    p1 = p + 1.0
    b = p + (k + 2)
    scale, units = _charged_exp(
        log_scale, (p + (k + 1)) * math.log(z), loggamma(p1), loggamma(k + 1.0), -loggamma(b), -z,
        lgamma_at=(p1, k + 1.0, b),
    )
    term = total = 1.0
    weighted = 0.0  # sum of n t_n: the n-th term carries 8n units
    n = 0
    while True:
        term *= (p1 + n) * z / ((b + n) * (n + 1.0))
        n += 1
        total += term
        weighted += n * term
        if total > 1e300:
            raise OverflowError("the Kummer series leaves the float range")
        # z / (n + 1) bounds the ratio of every later term to the one before
        ratio = z / (n + 1.0)
        if ratio < 1.0:
            tail = term * ratio / (1.0 - ratio)
            if tail <= 0.5 * _UNIT_ROUNDOFF * total:
                break
    value = scale * total
    err = value * units * _UNIT_ROUNDOFF + scale * ((8.0 * weighted + n * total) * _UNIT_ROUNDOFF + tail)
    return value, err + total * math.ulp(0.0)


def _beyond_piece(p, k, z, log_scale):
    """exp(log_scale) sum_j C(k, j) (-z)^(k-j) e^z Gamma(p+j+1, z)."""
    u = _UNIT_ROUNDOFF
    base = math.floor(p)
    s = p - base
    if s == 0.0:
        s, base = 1.0, base - 1
    if s == 1.0:
        # e^z Gamma(1, z) = 1
        h, rel, zpow, zpow_rel = 1.0, 0.0, z, 0.0
    else:
        zpow, zpow_units = _charged_exp(s * math.log(z))
        zpow_rel = zpow_units * u
        if z < _CF_FROM:
            # e^z Gamma(s) less z^s sum_n z^n / (s (s+1) .. (s+n))
            whole, whole_units = _charged_exp(z, loggamma(s), lgamma_at=(s,))
            term = total = 1.0 / s
            weighted = 0.0  # sum of n t_n: the n-th term carries 3n + 1 units
            n = 0
            while True:
                n += 1
                term *= z / (s + n)
                total += term
                weighted += n * term
                ratio = z / (s + n + 1.0)
                tail = term * ratio / (1.0 - ratio)
                if tail <= 0.5 * u * total:
                    break
            part = zpow * total
            part_err = part * zpow_rel + zpow * ((3.0 * weighted + (n + 2.0) * total) * u + tail)
            h = whole - part
            h_err = whole * whole_units * u + part_err + u * (whole + part)
        else:
            g, g_err = _legendre_fraction(s, z)
            h = zpow / g
            h_err = h * (zpow_rel + g_err / g + u)
        rel = h_err / h if h > 0.0 else math.inf
    # step i makes h = e^z Gamma(s + i, z), each step adding positive terms;
    # G_j is the value at step base + 1 + j
    total = mags = err = 0.0
    for i in range(base + 2 + k):
        j = i - base - 1
        if j >= 0:
            part = math.comb(k, j) * z ** (k - j) * h
            total += -part if (k - j) % 2 else part
            mags += part
            err += part * (rel + 4.0 * u)
        if j < k:
            h = (s + i) * h + zpow
            if h > 1e300:
                raise OverflowError("the incomplete gamma leaves the float range")
            rel = max(rel, zpow_rel) + 3.0 * u
            zpow *= z
            zpow_rel += u
    scale, units = _charged_exp(log_scale)
    err += (k + 1.0) * u * mags + units * u * abs(total)
    return scale * total, scale * err + mags * math.ulp(0.0)


def _beyond_integral(p, k, z, log_scale):
    """exp(log_scale) int_0^inf x^k e^(-x) (x + z)^p dx by `integrate`, the
    integrand in logarithms.  The error adds to the quadrature's estimate
    the rounding of exp's argument, taken at x = k + 1 + max(p, 0), a bound
    on the mean of the integrand's law."""
    def row(x):
        return np.exp(log_scale + k * np.log(x) - x + p * np.log(x + z))

    value, err = integrate(row, 0.0, math.inf)
    x = k + 1.0 + max(p, 0.0)
    units = exp_units((log_scale, k * math.log(x), x, p * math.log(x + z)))
    return value, err + units * _UNIT_ROUNDOFF * value


def _legendre_fraction(s, z):
    """(G, error) for G = z + (1-s)/(1 + 1/(z + (2-s)/(1 + 2/(z + ...)))),
    0 < s < 1, so that e^z Gamma(s, z) = z^s / G.  Every element is
    positive, so consecutive convergents bracket G and the forward
    recurrence of numerators and denominators sums positive terms, each
    step adding three units to either."""
    u = _UNIT_ROUNDOFF
    num_prev, num = 1.0, z
    den_prev, den = 0.0, 1.0
    i = 0
    while True:
        i += 1
        num_prev, num = num, num + (i - s) * num_prev
        den_prev, den = den, den + (i - s) * den_prev
        odd = num / den
        num_prev, num = num, z * num + i * num_prev
        den_prev, den = den, z * den + i * den_prev
        even = num / den
        if abs(even - odd) <= 0.5 * u * even:
            return even, abs(even - odd) + (12.0 * i + 1.0) * u * even
        if not even < math.inf:
            raise OverflowError("Legendre's continued fraction leaves the float range")
        if den > 1e150:
            # powers of two rescale exactly
            num_prev, num, den_prev, den = (math.ldexp(v, -500) for v in (num_prev, num, den_prev, den))
