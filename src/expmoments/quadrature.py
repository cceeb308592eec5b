"""Adaptive numerical integration on finite and semi-infinite intervals.

A 15-point Kronrod rule with embedded 7-point Gauss estimate drives a
global worst-panel-first refinement at one fixed accuracy (_REL_TOL,
_ABS_TOL, _MAX_DEPTH and _MAX_PANELS).  Every integrand takes an array of
nodes and returns an array of the same shape, and one driver refines
every integral: each round calls the integrand once, on the halves of the
worst panels of all unfinished integrals together.

:func:`integrate` refines one interval.  A semi-infinite interval is
mapped onto [0, 1) by t = a + u/(1-u).  An interior kink, and endpoint
power singularities |t-m|^p with -1 < p < 0, go through
:func:`integrate_abs_power`, which splits the interval at m and
substitutes u = |t-m|^(p+1) on each side of m so the transformed
integrand is bounded.

:func:`integrate_blocks` refines many finite blocks at once, each with its
own budget, and :func:`integrate_doubling` runs the doubling blocks
[a, 2a], [2a, 4a], ... of the Fourier engine and of :func:`integral_iqs`
through it in batches, read in order against a stopping rule.

All routines are reentrant: one invocation runs on a single worker and
keeps no shared state, so callers may integrate concurrently.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

__all__ = [
    "QuadratureError",
    "integrate",
    "integrate_blocks",
    "integrate_doubling",
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


# every integral stops once its error is at most max(_ABS_TOL, _REL_TOL
# |value|), and fails past _MAX_PANELS panels; a panel _MAX_DEPTH halvings
# deep is not halved again
_REL_TOL = 1e-10
_ABS_TOL = 1e-14
_MAX_DEPTH = 60
_MAX_PANELS = 20000
# the least block edge at which the Fourier engine's doubling blocks may stop
# and add the power tail, and the floor of `integral_iqs`' tail point at s <= 1
_TAIL_THRESHOLD = 1e3


class QuadratureError(RuntimeError):
    """Non-convergence; carries the best estimate and the achieved error."""

    def __init__(self, message: str, value: float, err_estimate: float):
        super().__init__(f"{message} (best estimate {value!r}, error {err_estimate:.3e})")
        self.value = value
        self.err_estimate = err_estimate


# the 15 nodes in increasing order, and the K15 and G7 weights at them
_NODES = np.array([-x for x in _XGK[:7]] + [0.0] + list(_XGK[6::-1]))
_KG = np.array(
    [(_WGK[i], _WG[(i - 1) // 2] if i % 2 else 0.0) for i in range(7)]
    + [(_WGK[7], _WG[3])]
    + [(_WGK[i], _WG[(i - 1) // 2] if i % 2 else 0.0) for i in range(6, -1, -1)]
)


def _gk15_rows(f, lo, hi):
    """GK15 on the panels [lo[i], hi[i]] in one call of f on a (panels, 15)
    array of nodes, in increasing order on each row: (values, errors).
    Every panel has lo <= hi, so its half-width h is its |h|."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    k, g = (f(c[:, None] + h[:, None] * _NODES) @ _KG).T
    return k * h, np.abs(k - g) * h


# panels near the top of an integral's heap whose halves `_refine`
# evaluates ahead of need in each round
_LOOKAHEAD = 7
# doubling blocks `integrate_doubling` reads without a stop before it raises
_MAX_BLOCKS = 4000


class _Refinement:
    """The worst-panel-first refinement of one integral, one split at a
    time.  `next_split` names the panel to halve, or returns None once
    `outcome` holds the integral's (value, err) or its QuadratureError;
    `split` takes the GK15 results of the halves.  The rule: stop once
    err <= max(_ABS_TOL, _REL_TOL |total|), halve the panel of largest
    error, and skip a panel at _MAX_DEPTH or too narrow to halve."""

    __slots__ = ("heap", "counter", "total", "err", "panels", "outcome", "_popped")

    def __init__(self, lo, hi, value, err):
        """Start from the evaluated panel [lo, hi], failed at once where
        its value is not finite."""
        self.heap = []
        self.counter = 0
        # a sum like every later total, so that a panel of -0.0 gives +0.0
        self.total = 0.0 + value
        self.err = err
        self.panels = 1
        self.outcome = None
        if math.isfinite(value):
            self._push(err, lo, hi, 0, value)
        else:
            self.outcome = QuadratureError("non-finite integrand", value, math.inf)

    def _push(self, err, lo, hi, depth, value):
        heapq.heappush(self.heap, (-err, self.counter, lo, hi, depth, value))
        self.counter += 1

    def next_split(self):
        """(key, lo, mid, hi) of the panel to halve next, key naming it
        among this integral's panels, or None once there is an outcome."""
        while self.outcome is None:
            if self.err <= max(_ABS_TOL, _REL_TOL * abs(self.total)):
                self.outcome = (self.total, self.err)
            elif not self.heap:
                self.outcome = QuadratureError("max subdivision depth reached", self.total, self.err)
            elif self.panels >= _MAX_PANELS:
                self.outcome = QuadratureError("panel budget exhausted", self.total, self.err)
            else:
                popped = heapq.heappop(self.heap)
                _, key, lo, hi, depth, _ = popped
                mid = self.halving(lo, hi, depth)
                # a panel that cannot be halved is dropped, its error still counted
                if mid is not None:
                    self._popped = popped, mid
                    return key, lo, mid, hi
        return None

    def halving(self, lo, hi, depth):
        """The midpoint at which a panel is halved, or None for a panel at
        _MAX_DEPTH or too narrow to halve."""
        width = hi - lo
        mid = lo + 0.5 * width
        if depth >= _MAX_DEPTH or width <= 1e-300 or not (lo < mid < hi):
            return None
        return mid

    def split(self, v1, e1, v2, e2):
        """Replace the panel `next_split` named by its evaluated halves."""
        if not (math.isfinite(v1) and math.isfinite(v2)):
            self.outcome = QuadratureError("non-finite integrand", self.total, self.err)
            return
        # the heap key neg_e is the panel's error negated
        (neg_e, _, lo, hi, depth, v), mid = self._popped
        self.total += v1 + v2 - v
        self.err += e1 + e2 + neg_e
        self._push(e1, lo, mid, depth + 1, v1)
        self._push(e2, mid, hi, depth + 1, v2)
        self.panels += 1


def _refine(f, edges):
    """Integrate the array integrand f over each segment [edges[i],
    edges[i+1]] of a finite, increasing array of edges, each segment one
    integral and one `_Refinement` with its own error budget.  Each round
    of refinement calls f once, on the halves of every unfinished
    integral's worst panel and, ahead of need, of up to
    _LOOKAHEAD panels near the top of its heap; halves evaluated ahead are
    used when their panel comes to be split, so an integral splits exactly
    the panels it would split one at a time, in the same order.

    Returns one entry per integral, in order: its (value, err), or its
    QuadratureError.  Once an integral fails, the integrals after it are
    abandoned and left out.
    """
    refs = []
    # halves evaluated ahead of need, by (integral, panel key)
    ahead = {}
    # a non-finite value of f fails its integral through `_Refinement`
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values, errors = _gk15_rows(f, edges[:-1], edges[1:])
        for panel in zip(edges[:-1].tolist(), edges[1:].tolist(), values.tolist(), errors.tolist()):
            refs.append(_Refinement(*panel))
            if refs[-1].outcome is not None:
                break
        # integrals from limit on are abandoned
        limit = len(refs)
        active = range(limit)
        while True:
            splitting = []
            wanted = []
            lows = []
            mids = []
            highs = []
            for k in active:
                if k >= limit:
                    break
                ref = refs[k]
                while (panel := ref.next_split()) is not None and (k, panel[0]) in ahead:
                    ref.split(*ahead.pop((k, panel[0])))
                if panel is None:
                    if isinstance(ref.outcome, QuadratureError):
                        limit = k + 1
                    continue
                splitting.append(k)
                wanted.append((k, None))
                lows.append(panel[1])
                mids.append(panel[2])
                highs.append(panel[3])
                for _, key, lo, hi, depth, _ in ref.heap[:_LOOKAHEAD]:
                    if (k, key) in ahead or (mid := ref.halving(lo, hi, depth)) is None:
                        continue
                    wanted.append((k, key))
                    lows.append(lo)
                    mids.append(mid)
                    highs.append(hi)
            if not splitting:
                break
            values, errors = _gk15_rows(f, np.array(lows + mids), np.array(mids + highs))
            values = values.tolist()
            errors = errors.tolist()
            n = len(wanted)
            for i, (k, key) in enumerate(wanted):
                halves = (values[i], errors[i], values[n + i], errors[n + i])
                if key is None:
                    refs[k].split(*halves)
                else:
                    ahead[k, key] = halves
            active = splitting
    return [ref.outcome for ref in refs[:limit]]


def integrate(f, a, b):
    """Integrate f on [a, b] (b may be +inf); returns (value, err_estimate).

    f maps an array of t to an array of the same shape.  The interval is
    refined as one block of `integrate_blocks`, whose driver calls f once
    per round on a (panels, 15) array of nodes.  An infinite b maps the
    interval onto u in [0, 1) by t = a + u/(1-u).  The estimate satisfies
    err <= max(_ABS_TOL, _REL_TOL |value|) on success.  A non-finite value
    of f, or exhausting _MAX_DEPTH / _MAX_PANELS, raises
    :class:`QuadratureError` carrying the best value and the achieved
    error bound.
    """
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0, 0.0
    if b < a:
        raise ValueError("integrate requires a <= b")

    g = f
    edges = [a, b]
    if math.isinf(b):
        edges = [0.0, 1.0]

        def g(u):
            w = 1.0 - u
            # deep subdivision can round a node onto u = 1 exactly
            return np.where(w > 0.0, f(a + u / w) / (w * w), 0.0)

    (outcome,) = _refine(g, np.array(edges))
    if isinstance(outcome, QuadratureError):
        raise outcome
    return outcome


def integrate_blocks(f, edges):
    """Integrate f over each block [edges[k], edges[k+1]] of finite edges,
    every block refined as `integrate` refines one interval, and all of
    them evaluated together: f maps an array of t to an array of the same
    shape, and each round of refinement calls it once for every
    unfinished block.

    Returns one entry per block, in order: its (value, err), or its
    QuadratureError, which is returned rather than raised.  Once a block
    fails, the blocks after it are abandoned and their entries are None,
    for a caller that reads the blocks in order stops at the failure.
    """
    edges = np.asarray(edges, dtype=float)
    outcomes = _refine(f, edges)
    return outcomes + [None] * (len(edges) - 1 - len(outcomes))


def integrate_doubling(f, lo, done, cap=math.inf):
    """Integrate f over the doubling blocks [lo, 2 lo], [2 lo, 4 lo], ...
    (each upper edge capped at `cap`) until done(hi, body) holds after a
    block, hi being its upper edge and body the sum of the block values so
    far; returns (body, err, hi).  f takes arrays, as in `integrate_blocks`.

    Blocks go to `integrate_blocks` in batches and are then read in order,
    so a block past the one that stops changes nothing, and a block's
    QuadratureError is raised only where it is read.  A batch ends at the
    first edge where done holds at the body read so far, taken as inf
    before any block is read (done is expected to hold more readily at a
    larger |body|); after the first batch, a batch holds at most as many
    blocks as have been read.  More than _MAX_BLOCKS blocks without a stop
    raise QuadratureError.
    """
    edges = [float(lo)]
    outcomes = []
    body = err = 0.0
    k = 0
    while True:
        if k == len(outcomes):
            estimate = body if k else math.inf
            size = k or _MAX_BLOCKS + 1
            while True:
                edges.append(min(2.0 * edges[-1], cap))
                if done(edges[-1], estimate) or len(edges) - 1 - k >= size or len(edges) > _MAX_BLOCKS + 1:
                    break
            outcomes += integrate_blocks(f, edges[k:])
        outcome = outcomes[k]
        if isinstance(outcome, QuadratureError):
            raise outcome
        body += outcome[0]
        err += outcome[1]
        k += 1
        if done(edges[k], body):
            return body, err, edges[k]
        if k > _MAX_BLOCKS:
            raise QuadratureError(f"no stop within {_MAX_BLOCKS} doubling blocks", body, err)


def integrate_abs_power(g, p, m, a, b):
    """Integrate |t - m|^p g(t) over [a, b] for p > -1 (b may be +inf).

    For p in (-1, 0) the substitution u = |t - m|^(p+1) is applied on each
    side of m, rendering the integrand bounded; for p >= 0 the interval is
    merely split at m (a kink, not a singularity).
    """
    if p <= -1.0:
        raise ValueError(f"power must exceed -1, got {p!r}")
    if a < m < b:
        pieces = [(a, m), (m, b)]
    else:
        pieces = [(a, b)]
    val = 0.0
    err = 0.0
    for lo, hi in pieces:
        if p < 0.0 and (lo == m or hi == m):
            v, e = _abs_power_endpoint(g, p, m, lo, hi)
        else:
            def h(t, _g=g):
                return np.abs(t - m) ** p * _g(t)

            v, e = integrate(h, lo, hi)
        val += v
        err += e
    return val, err


def _abs_power_endpoint(g, p, m, lo, hi):
    q = p + 1.0
    inv_q = 1.0 / q
    if lo == m:
        ub = math.inf if math.isinf(hi) else (hi - m) ** q

        def tf(u, _g=g):
            return _g(m + u**inv_q) * inv_q

        return integrate(tf, 0.0, ub)
    if math.isinf(lo):
        raise ValueError("left endpoint of a singular piece must be finite")

    def tf(u, _g=g):
        return _g(m - u**inv_q) * inv_q

    return integrate(tf, 0.0, (m - lo) ** q)


def integral_iqs(q, s):
    """Quadrature of int_0^inf (1 - (1 + t^2/s)^(-(1+s)/2)) / t^(q+1) dt.

    Independent of the closed form: the head (0, 1] runs through the
    power-singularity path, the body [1, T] through `integrate_doubling`, and
    the tail beyond T is the exact power integral 1/(q T^q) plus a bounded
    residual that is folded into the returned error estimate.
    """
    if not 0.0 < q < 2.0 or s <= 0.0:
        raise ValueError(f"integral_iqs requires 0 < q < 2 and s > 0, got ({q!r}, {s!r})")
    alpha = 0.5 * (1.0 + s)

    def gfun(t):
        # (1 - (1 + t^2/s)^(-alpha)) / t^2, stable near t = 0; the series
        # needs alpha u small, not u alone, as alpha grows with s
        tt = t * t
        u = tt / s
        return np.where(
            alpha * u < 1e-8,
            (alpha / s) * (1.0 - 0.5 * (alpha + 1.0) * u),
            -np.expm1(-alpha * np.log1p(u)) / tt,
        )

    head_val, head_err = integrate_abs_power(gfun, 1.0 - q, 0.0, 0.0, 1.0)

    target = max(_ABS_TOL, 1e-13)
    decay = 2.0 * alpha + q
    log_T = (alpha * math.log(s) - math.log(decay * target)) / decay
    T = max(math.exp(log_T), 2.0, _TAIL_THRESHOLD if s <= 1.0 else 2.0)

    def body(t):
        # on t >= 1, where alpha u >= 1/2 keeps gfun off its series
        return gfun(t) * t ** (1.0 - q)

    body_val, body_err, _ = integrate_doubling(body, 1.0, lambda hi, _: hi >= T, cap=T)
    tail_val = 1.0 / (q * T**q)
    tail_resid = math.exp(alpha * math.log(s) - decay * math.log(T)) / decay
    return head_val + body_val + tail_val, head_err + body_err + tail_resid
