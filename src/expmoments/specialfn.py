"""Closed-form special-function kernel.

All gamma-function machinery funnels through :func:`loggamma`
(`math.lgamma` on x > 0), so that gamma ratios are always formed in log
space and nothing overflows for arguments far above 170.  Even-integer
Gaussian moments take an exact integer double-factorial path, which the
exact-arithmetic certification suites rely on.
"""

from __future__ import annotations

import math

__all__ = [
    "loggamma",
    "gaussian_even_moment_exact",
    "gaussian_abs_moment",
    "fourier_constant",
    "psi",
    "ratio_r",
    "closed_integral_iqs",
]

_LOG_SQRT_PI = 0.5 * math.log(math.pi)


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
    Evaluated through log-gamma differences, so large x is safe.
    """
    beta = float(beta)
    x = float(x)
    if beta <= 0.0 or x <= 0.0:
        raise ValueError(f"psi requires beta > 0 and x > 0, got ({beta!r}, {x!r})")
    return math.exp(loggamma(x + beta + 0.5) - beta * math.log(x) - loggamma(x + 0.5))


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
    for 0 < q < 2 and s > 0; strictly decreasing in s.
    """
    q = float(q)
    s = float(s)
    if not 0.0 < q < 2.0:
        raise ValueError(f"closed_integral_iqs requires 0 < q < 2, got {q!r}")
    if s <= 0.0:
        raise ValueError(f"closed_integral_iqs requires s > 0, got {s!r}")
    return math.exp(
        -math.log(q)
        + loggamma(1.0 - 0.5 * q)
        + loggamma(0.5 * (1.0 + q + s))
        - 0.5 * q * math.log(s)
        - loggamma(0.5 * (1.0 + s))
    )
