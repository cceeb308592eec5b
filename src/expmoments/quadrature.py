"""Adaptive numerical integration on finite and semi-infinite intervals.

A 15-point Kronrod rule with embedded 7-point Gauss estimate drives a
global worst-panel-first refinement.  Semi-infinite upper limits are
mapped onto (0, 1) by t = a + u/(1-u).  Callers list interior points
carrying integrable singularities and the integrator splits there.
Endpoint power singularities |t-m|^p with -1 < p < 0 go through
:func:`integrate_abs_power`, which substitutes u = |t-m|^(p+1) on each
side of m so the transformed integrand is bounded.

All routines are reentrant: one invocation runs on a single worker and
keeps no shared state, so callers may integrate concurrently.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

__all__ = [
    "QuadratureConfig",
    "QuadratureError",
    "DEFAULT_CONFIG",
    "integrate",
    "integrate_abs_power",
    "integral_iqs",
]

# 15-point Kronrod / embedded 7-point Gauss pair on [-1, 1].
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993945,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.022935322010529224,
    0.06309209262997855,
    0.10479001032225018,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478542,
    0.20443294007529889,
    0.20948214108472782,
)
_WG = (
    0.1294849661688697,
    0.27970539148927664,
    0.3818300505051189,
    0.41795918367346935,
)


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_depth: int = 60
    tail_threshold: float = 1e3
    max_panels: int = 20000

    def __post_init__(self):
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_depth < 10:
            raise ValueError("max_depth must be at least 10")


DEFAULT_CONFIG = QuadratureConfig()


class QuadratureError(RuntimeError):
    """Non-convergence; carries the best estimate and the achieved error."""

    def __init__(self, message: str, value: float, err_estimate: float):
        super().__init__(f"{message} (best estimate {value!r}, error {err_estimate:.3e})")
        self.value = value
        self.err_estimate = err_estimate


def _gk15(f, lo, hi):
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    fc = f(c)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    for i in range(7):
        dx = h * _XGK[i]
        s = f(c - dx) + f(c + dx)
        resk += _WGK[i] * s
        if i % 2 == 1:
            resg += _WG[(i - 1) // 2] * s
    return resk * h, abs(resk - resg) * abs(h)


def _map_semi_infinite(f, c):
    def g(u):
        w = 1.0 - u
        if w <= 1e-300:
            # deep subdivision can round a node onto u = 1 exactly
            return 0.0
        return f(c + u / w) / (w * w)

    return g


def integrate(f, a, b, cfg=None, singular_points=()):
    """Integrate f on [a, b] (b may be +inf); returns (value, err_estimate).

    The estimate satisfies err <= max(abs_tol, rel_tol |value|) on success.
    Exhausting max_depth / max_panels raises :class:`QuadratureError`
    carrying the best value and the achieved error bound.
    """
    cfg = cfg or DEFAULT_CONFIG
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0, 0.0
    if b < a:
        raise ValueError("integrate requires a <= b")

    interior = sorted({float(p) for p in singular_points if a < p < b and math.isfinite(p)})
    edges = [a] + interior + [b]
    segments = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if math.isinf(hi):
            segments.append((_map_semi_infinite(f, lo), 0.0, 1.0))
        else:
            segments.append((f, lo, hi))

    heap = []
    counter = 0
    total = 0.0
    err_total = 0.0
    panels = 0
    for g, lo, hi in segments:
        v, e = _gk15(g, lo, hi)
        if not math.isfinite(v):
            raise QuadratureError("non-finite integrand", v, math.inf)
        heapq.heappush(heap, (-e, counter, g, lo, hi, 0, v))
        counter += 1
        total += v
        err_total += e
        panels += 1

    while True:
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        if err_total <= tol:
            return total, err_total
        if not heap:
            raise QuadratureError("max subdivision depth reached", total, err_total)
        if panels >= cfg.max_panels:
            raise QuadratureError("panel budget exhausted", total, err_total)
        neg_e, _, g, lo, hi, depth, v = heapq.heappop(heap)
        e = -neg_e
        width = hi - lo
        if depth >= cfg.max_depth or width <= 1e-300 or not (lo < lo + 0.5 * width < hi):
            # cannot be refined further; its error stays counted
            continue
        mid = lo + 0.5 * width
        v1, e1 = _gk15(g, lo, mid)
        v2, e2 = _gk15(g, mid, hi)
        if not (math.isfinite(v1) and math.isfinite(v2)):
            raise QuadratureError("non-finite integrand", total, err_total)
        total += v1 + v2 - v
        err_total += e1 + e2 - e
        heapq.heappush(heap, (-e1, counter, g, lo, mid, depth + 1, v1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, g, mid, hi, depth + 1, v2))
        counter += 1
        panels += 1


def integrate_abs_power(g, p, m, a, b, cfg=None, singular_points=()):
    """Integrate |t - m|^p g(t) over [a, b] for p > -1 (b may be +inf).

    For p in (-1, 0) the substitution u = |t - m|^(p+1) is applied on each
    side of m, rendering the integrand bounded; for p >= 0 the interval is
    merely split at m (a kink, not a singularity).
    """
    if p <= -1.0:
        raise ValueError(f"power must exceed -1, got {p!r}")
    cfg = cfg or DEFAULT_CONFIG
    if a < m < b:
        pieces = [(a, m), (m, b)]
    else:
        pieces = [(a, b)]
    val = 0.0
    err = 0.0
    for lo, hi in pieces:
        if p < 0.0 and (lo == m or hi == m):
            v, e = _abs_power_endpoint(g, p, m, lo, hi, cfg, singular_points)
        else:
            def h(t, _g=g):
                try:
                    return abs(t - m) ** p * _g(t)
                except OverflowError:
                    return _power_times(abs(t - m), p, _g(t))

            v, e = integrate(h, lo, hi, cfg, singular_points)
        val += v
        err += e
    return val, err


def _power_times(d, p, value):
    """d**p * value where d**p alone overflows: in logarithms, so that a
    finite product stays finite; an infinite one is inf."""
    if not value:
        return 0.0
    log_mag = p * math.log(d) + math.log(abs(value))
    return math.copysign(math.exp(log_mag) if log_mag < 709.0 else math.inf, value)


def _abs_power_endpoint(g, p, m, lo, hi, cfg, singular_points):
    q = p + 1.0
    inv_q = 1.0 / q
    if lo == m:
        ub = math.inf if math.isinf(hi) else (hi - m) ** q

        def tf(u, _g=g):
            return _g(m + u**inv_q) * inv_q

        mapped = [(s - m) ** q for s in singular_points if m < s < hi]
        return integrate(tf, 0.0, ub, cfg, mapped)
    if math.isinf(lo):
        raise ValueError("left endpoint of a singular piece must be finite")

    def tf(u, _g=g):
        return _g(m - u**inv_q) * inv_q

    mapped = [(m - s) ** q for s in singular_points if lo < s < m]
    return integrate(tf, 0.0, (m - lo) ** q, cfg, mapped)


def integral_iqs(q, s, cfg=None):
    """Quadrature of int_0^inf (1 - (1 + t^2/s)^(-(1+s)/2)) / t^(q+1) dt.

    Independent of the closed form: the head (0, 1] runs through the
    power-singularity path, the body [1, T] through doubling blocks, and
    the tail beyond T is the exact power integral 1/(q T^q) plus a bounded
    residual that is folded into the returned error estimate.
    """
    if not 0.0 < q < 2.0 or s <= 0.0:
        raise ValueError(f"integral_iqs requires 0 < q < 2 and s > 0, got ({q!r}, {s!r})")
    cfg = cfg or DEFAULT_CONFIG
    alpha = 0.5 * (1.0 + s)

    def gfun(t):
        # (1 - (1 + t^2/s)^(-alpha)) / t^2, stable near t = 0
        u = t * t / s
        if u < 1e-8:
            return (alpha / s) * (1.0 - 0.5 * (alpha + 1.0) * u)
        return -math.expm1(-alpha * math.log1p(u)) / (t * t)

    head_val, head_err = integrate_abs_power(gfun, 1.0 - q, 0.0, 0.0, 1.0, cfg)

    target = max(cfg.abs_tol, 1e-13)
    decay = 2.0 * alpha + q
    log_T = (alpha * math.log(s) - math.log(decay * target)) / decay
    T = max(math.exp(log_T), 2.0, cfg.tail_threshold if s <= 1.0 else 2.0)

    def body(t):
        return gfun(t) * t ** (1.0 - q)

    body_val = 0.0
    body_err = 0.0
    lo = 1.0
    while lo < T:
        hi = min(2.0 * lo, T)
        v, e = integrate(body, lo, hi, cfg)
        body_val += v
        body_err += e
        lo = hi
    tail_val = 1.0 / (q * T**q)
    tail_resid = math.exp(alpha * math.log(s) - decay * math.log(T)) / decay
    return head_val + body_val + tail_val, head_err + body_err + tail_resid
