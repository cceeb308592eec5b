"""Majorization machinery for moments of nonnegative-coefficient sums.

The central object is M_p(x) = E (sum_j sqrt(x_j) E_j)^p.  A Taylor-tail
kernel Q_k and its normalizing constant C_p give the integral
representation M_p(x) = C_p^{-1} int F_k(t^2 x) t^{-p-1} dt with
F_k(x) = E Q_k(sum sqrt(x_j) E_j), whose closed forms for k <= 3 drive
the Schur-concavity certificate (Ostrowski differentials).  For p > 4
the two-coordinate profile develops an interior maximum, which
``failure_profile`` locates; ``schur_scan`` maps the monotonicity phase
empirically through random T-transform pairs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import engines
from .model import GammaSumModel, MomentQuery, _h_table, sample
from .quadrature import integrate
from .specialfn import loggamma

__all__ = [
    "MajorizationPair",
    "m_p",
    "q_k",
    "q_k_array",
    "c_p_constant",
    "f_k",
    "f_k_mc",
    "mp_representation_check",
    "t_transform",
    "majorizes",
    "schur_scan",
    "schur_sweep",
    "ScanResult",
    "ScanRows",
    "failure_profile",
    "FailureProfile",
    "ostrowski_differential",
    "claim_inequality_check",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_MAJORIZATION_TOL = 1e-12
_FAILURE_GRID = 512


def _entries(x, name: str) -> list:
    """x as a list of floats, checked for the function `name`: a ValueError
    that names it unless every entry is finite and nonnegative."""
    xs = [float(v) for v in x]
    if not all(0.0 <= v < math.inf for v in xs):
        raise ValueError(f"{name} requires finite nonnegative entries")
    return xs


def m_p(x, p) -> engines.MomentEstimate:
    """M_p(x) = E (sum_j sqrt(x_j) E_j)^p for nonnegative x and p > -1.

    The sum is nonnegative, so the power moment equals the absolute
    moment and routes through the moment engines on sqrt(x) weights,
    whose model drops the zero entries.
    """
    xs = _entries(x, "m_p")
    p = float(p)
    if p <= -1.0:
        raise ValueError("m_p requires p > -1")
    weights = [math.sqrt(v) for v in xs]
    if not any(weights):
        if p > 0.0:
            return engines.MomentEstimate(0.0, 0.0, "exact", p)
        if p == 0.0:
            return engines.MomentEstimate(1.0, 0.0, "exact", p)
        raise ValueError("negative moment of the zero sum diverges")
    return engines.moment(GammaSumModel.of(weights), MomentQuery(p=p))


def q_k(k: int, t: float) -> float:
    """Q_k(t) = (-1)^(k+1) (e^{-t} - sum_{j<=k} (-t)^j / j!) > 0 for t > 0:
    `q_k_array` at one point."""
    if t <= 0.0:
        raise ValueError("q_k requires t > 0")
    if k < 0:
        raise ValueError("q_k requires k >= 0")
    return float(q_k_array(k, t))


def q_k_array(k: int, t: np.ndarray) -> np.ndarray:
    """Q_k elementwise on t > 0, for Monte Carlo batches and `q_k`.

    Below t = k + 1 the direct formula loses every digit to cancellation,
    so the Taylor tail sum_{j>k} (-1)^(j-k-1) t^j / j! is used instead,
    summed until every term drops under 1e-17 of its partial sum.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    small = t < k + 1.0
    ts = t[small]
    if ts.size:
        term = ts ** (k + 1) / math.factorial(k + 1)
        total = term.copy()
        j = k + 2
        while np.any(np.abs(term) > 1e-17 * np.abs(total)):
            term = term * (-ts / j)
            total += term
            j += 1
        out[small] = total
    tl = t[~small]
    if tl.size:
        partial = np.zeros_like(tl)
        term = np.ones_like(tl)
        for j in range(0, k + 1):
            partial += term
            term = term * (-tl / (j + 1))
        out[~small] = (-1.0) ** (k + 1) * (np.exp(-tl) - partial)
    return out


def c_p_constant(p: float) -> float:
    """C_p = int_0^inf Q_k(t) t^{-p-1} dt with k = floor(p), non-integer p > 0.

    The integral is (-1)^(k+1) Gamma(-p), continued past its poles, that is
    Gamma(k+1-p) / prod_{j=0..k} (p - j), formed through `loggamma`.
    """
    p = float(p)
    if p <= 0.0 or p.is_integer():
        raise ValueError("c_p_constant requires non-integer p > 0")
    k = math.floor(p)
    return math.exp(loggamma(k + 1.0 - p) - sum(math.log(p - j) for j in range(k + 1)))


def f_k(x, k: int) -> float:
    """F_k(x) = E Q_k(sum sqrt(x_j) E_j), closed forms for k in 0..3.

    With b_j = sqrt(x_j), P = prod 1/(1+b_j) and M_r = E (sum b_j E_j)^r:
    F_0 = 1 - P, F_1 = P - 1 + M_1, F_2 = -P + 1 - M_1 + M_2/2,
    F_3 = P - 1 + M_1 - M_2/2 + M_3/6.
    """
    if k not in (0, 1, 2, 3):
        raise ValueError("closed forms cover k in 0..3; use f_k_mc beyond")
    b = [math.sqrt(v) for v in _entries(x, "f_k")]
    P = 1.0
    for v in b:
        P /= 1.0 + v
    if k == 0:
        return 1.0 - P
    h = _h_table(b, 3)
    m1 = h[1]
    if k == 1:
        return P - 1.0 + m1
    m2 = 2.0 * h[2]
    if k == 2:
        return -P + 1.0 - m1 + 0.5 * m2
    m3 = 6.0 * h[3]
    return P - 1.0 + m1 - 0.5 * m2 + m3 / 6.0


def f_k_mc(x, k: int, seed: int = 0, count: int = 1_000_000) -> engines.MomentEstimate:
    """Monte Carlo estimate of F_k(x) with a 99% CI half-width."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    xs = _entries(x, "f_k_mc")
    weights = [math.sqrt(v) for v in xs]
    if not any(weights):
        return engines.MomentEstimate(0.0, 0.0, "exact", float(k))
    s = sample(GammaSumModel.of(weights), seed, count)
    vals = q_k_array(k, s)
    mean = float(vals.mean())
    ci = engines._Z99 * float(vals.std(ddof=1)) / math.sqrt(count) if count > 1 else math.inf
    return engines.MomentEstimate(mean, ci, "montecarlo", float(k))


def mp_representation_check(x, p: float) -> float:
    """Relative residual of M_p(x) = C_p^{-1} int_0^inf F_k(t^2 x) t^{-p-1} dt.

    Non-integer p in (0, 4), k = floor(p).  The head (0, 1] goes through
    the power substitution on F_k(t^2 x)/t^(k+1); past t = 1 the
    polynomial part of Q_k integrates exactly and the product
    E e^{-t sum b E} = prod (1 + b_j t)^{-1} decays fast enough for
    doubling blocks with a bounded remainder.
    """
    p = float(p)
    if not 0.0 < p < 4.0 or float(p).is_integer():
        raise ValueError("representation check requires non-integer p in (0, 4)")
    k = math.floor(p)
    xs = _entries(x, "mp_representation_check")
    b = [math.sqrt(v) for v in xs if v > 0.0]
    if not b:
        raise ValueError("all-zero input has no representation residual")
    # the head's series below takes h_(k+1) .. h_(k+62)
    h = _h_table(b, k + 62)

    # F_k(t^2 x) = (-1)^(k+1) (P(t) - sum_{j<=k} (-1)^j h_j t^j), with
    # P(t) = E e^{-t sum b E} = prod (1 + b_j t)^{-1}
    sign = (-1.0) ** (k + 1)

    def laplace_product(t):
        prod = 1.0
        for bi in b:
            prod = prod / (1.0 + bi * t)
        return prod

    # head: u = t^(k-p+1) applied to G(t) = F_k(t^2 x)/t^(k+1).  For
    # t h_1 < 1/2 the closed form cancels to O(t^(k+1)), and G is the series
    # sum_{j>k} (-1)^(j-k-1) h_j t^(j-k-1) instead, alternating with terms
    # that fall by a factor t h_1 < 1/2 or more (h_(j+1) <= h_1 h_j), so
    # the sum exceeds half its first term and 62 terms leave out less than
    # 1e-18 of it
    expo = k - p + 1.0
    inv_expo = 1.0 / expo
    series = np.array([(-1.0) ** (j - k - 1) * h[j] for j in range(k + 1, len(h))])

    def head(u):
        t = u**inv_expo
        powers = np.cumprod(np.repeat(t[..., None], len(series) - 1, axis=-1), axis=-1)
        near = series[0] + powers @ series[1:]
        far = laplace_product(t)
        power = 1.0
        for j in range(k + 1):
            far = far - (-1.0) ** j * h[j] * power
            power = power * t
        return np.where(t * h[1] < 0.5, near, sign * far / t ** (k + 1)) * inv_expo

    head_val, _ = integrate(head, 0.0, 1.0)

    # tail from 1, where the polynomial part integrates exactly
    def laplace_piece(t):
        return laplace_product(t) * t ** (-p - 1.0)

    lap_val, _ = integrate(laplace_piece, 1.0, math.inf)
    poly_val = sum((-1.0) ** j * h[j] / (p - j) for j in range(0, k + 1))
    integral = head_val + sign * (lap_val - poly_val)

    cp = c_p_constant(p)
    mp_val = m_p(xs, p).value
    return abs(mp_val - integral / cp) / abs(mp_val)


def t_transform(x, i: int, j: int, lam: float):
    """Average coordinates i and j by a convex combination.

    Returns x with entries i, j replaced by (lam x_i + (1-lam) x_j,
    (1-lam) x_i + lam x_j); the result is majorized by x and the total is
    preserved exactly.
    """
    xs = list(x)
    n = len(xs)
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise ValueError("indices must be distinct and in range")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    xi, xj = xs[i], xs[j]
    xs[i] = lam * xi + (1.0 - lam) * xj
    xs[j] = (1.0 - lam) * xi + lam * xj
    return xs


def majorizes(x, y) -> bool:
    """True when x majorizes y: equal totals, dominating sorted partial sums,
    each within _MAJORIZATION_TOL n max(1, max|x|).  Never true when an
    entry of either is not finite."""
    xs = sorted((float(v) for v in x), reverse=True)
    ys = sorted((float(v) for v in y), reverse=True)
    if len(xs) != len(ys) or not all(map(math.isfinite, xs + ys)):
        return False
    slack = _MAJORIZATION_TOL * max(1.0, max(map(abs, xs), default=1.0)) * len(xs)
    if abs(sum(xs) - sum(ys)) > slack:
        return False
    cx = 0.0
    cy = 0.0
    for vx, vy in zip(xs, ys):
        cx += vx
        cy += vy
        if cx < cy - slack:
            return False
    return True


@dataclass(frozen=True)
class MajorizationPair:
    """An ordered pair with x majorizing y (checked at construction)."""

    x: tuple
    y: tuple

    def __post_init__(self):
        x = tuple(float(v) for v in self.x)
        y = tuple(float(v) for v in self.y)
        if any(v < 0.0 for v in x) or any(v < 0.0 for v in y):
            raise ValueError("majorization pairs live on the nonnegative orthant")
        if not majorizes(x, y):
            raise ValueError("x must majorize y")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


_CERTIFICATE_NOTE = (
    "kernel-average differentials dF_k/dx_i - dF_k/dx_j are <= 0 for "
    "x_i > x_j at k = 0..3, a Schur-CONCAVITY certificate; the sign "
    "convention is pinned against finite differences of f_k rather than "
    "taken on faith, since the two directions are easy to conflate"
)


# a trial's contribution by its code in ScanRows
_CONTRIBUTIONS = ("within-budget", "convex", "concave")


class ScanRows(Sequence):
    """A scan's rows, read-only.  Trial t's row is a dict of its vectors x
    and y, its pair i, j and lambda, the moments and errors of both sides,
    their gap and the trial's contribution; it is built from the scan's
    trial arrays each time it is read, so a scan whose rows are not read
    builds none."""

    def __init__(self, xs, ys, ij, lam, mx, ex, my, ey, gap, codes):
        self._columns = (xs, ys, ij, lam, mx, ex, my, ey, gap, codes)

    def __len__(self) -> int:
        return len(self._columns[-1])

    def __getitem__(self, t):
        if isinstance(t, slice):
            return [self[i] for i in range(len(self))[t]]
        t = range(len(self))[t]
        xs, ys, ij, lam, mx, ex, my, ey, gap, codes = self._columns
        i, j = ij[t].tolist()
        return {"trial": t, "x": xs[t].tolist(), "y": ys[t].tolist(), "i": i, "j": j, "lam": float(lam[t]),
                "mp_x": float(mx[t]), "err_x": float(ex[t]), "mp_y": float(my[t]), "err_y": float(ey[t]),
                "gap": float(gap[t]), "contribution": _CONTRIBUTIONS[codes[t]]}

    def __eq__(self, other):
        if isinstance(other, Sequence) and not isinstance(other, str):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None


@dataclass
class ScanResult:
    p: float
    n: int
    trials: int
    verdict: str  # convex | concave | neither | inconclusive
    convex_evidence: int
    concave_evidence: int
    within_budget: int
    rows: Sequence = ()
    convex_examples: list = field(default_factory=list)
    concave_examples: list = field(default_factory=list)
    notes: tuple = (_CERTIFICATE_NOTE,)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "trials": self.trials,
            "verdict": self.verdict,
            "convex_evidence": self.convex_evidence,
            "concave_evidence": self.concave_evidence,
            "within_budget": self.within_budget,
            "convex_examples": self.convex_examples,
            "concave_examples": self.concave_examples,
            "notes": list(self.notes),
        }


def _draw_trials(rng: np.random.Generator, n: int, trials: int):
    """(xs, ij, lam): each trial's vector, the pair (i, j) its T-transform
    averages and lambda, drawn from rng by whole-array calls with the
    distribution `schur_scan`'s docstring states."""
    style = rng.integers(3, size=(trials, 1))
    u = rng.random((trials, n))
    level = rng.uniform(0.2, 2.0, (trials, 1))
    a = np.exp(rng.uniform(math.log(2e-3), math.log(0.5), trials))
    # the first two positions in the order of random keys are a uniformly
    # random ordered pair of distinct positions
    two = np.argsort(rng.random((trials, n)), axis=1)[:, :2]
    # level and jitter keep every entry of style 1 above 0.18
    xs = np.where(style == 0, u, level * (1.0 + 0.1 * (-1.0 + 2.0 * u)))
    t = np.flatnonzero(style == 2)
    xs[t] = 0.0
    xs[t, two[t, 0]] = a[t]
    xs[t, two[t, 1]] = 1.0 - a[t]
    redraw = np.count_nonzero(xs > 1e-9, axis=1) < 2
    xs[redraw] = rng.uniform(0.1, 1.0, (np.count_nonzero(redraw), n))
    # entries at most 1e-9 take keys from [1, 2), after every active entry
    ij = np.argsort(rng.random((trials, n)) + (xs <= 1e-9), axis=1)[:, :2]
    return xs, ij, rng.random(trials)


def schur_scan(p: float, n: int, trials: int = 500, seed: int = 0) -> ScanResult:
    """Compare M_p across random T-transform pairs and classify monotonicity.

    A trial counts as directional evidence only when the gap exceeds three
    times the combined engine error budgets; verdicts: convex when only
    M_p(x) > M_p(y) gaps appear (x majorizes y), concave when only the
    reverse, neither when both, inconclusive when every gap is in budget.
    All trials are drawn first; their 2 * trials moments then go through
    one `engines.moments` batch (`schur_sweep` with the one p).

    The trials are independent, and each is drawn as follows:

    - its style is uniform on {0, 1, 2}: style 0 is x ~ U[0, 1)^n; style 1
      is near-equal, level ~ U[0.2, 2) and x = level (1 + 0.1 U[-1, 1)^n);
      style 2 has two active entries, a log-uniform on [2e-3, 0.5] and
      1 - a at two distinct uniformly random positions, zeros elsewhere.
      Balanced and lopsided vectors, the two monotonicity regions for
      p > 4, are thus both sampled;
    - a vector with fewer than two entries above 1e-9 is redrawn as
      U[0.1, 1)^n;
    - (i, j) is a uniformly random ordered pair of distinct entries above
      1e-9;
    - lambda ~ U[0, 1).

    A `Generator(PCG64(SeedSequence(seed)))` draws them by a fixed handful
    of whole-array calls, so (seed, n, trials) gives the same trials, rows,
    verdicts and evidence counts every time; a run with fewer trials is
    not a prefix of a longer one.
    """
    return next(schur_sweep([p], n, trials, seed))


def schur_sweep(ps, n: int, trials: int = 500, seed: int = 0):
    """`schur_scan(p, n, trials, seed)` for each p of ps, in order, as
    an iterator of ScanResults.

    The scans share their trials: the draw, the T-transforms, the square
    roots and one multi-p `engines.moments` batch are done once for every
    p.  Each ScanResult is built when the iterator reaches it, so a caller
    that keeps none holds one at a time.  It keeps the shared trial arrays
    and its own moments, from which its `ScanRows` build a row only when it
    is read: a caller that reads the verdicts builds none.
    """
    ps = [float(p) for p in ps]
    if any(p <= -1.0 for p in ps):
        raise ValueError("schur_scan requires p > -1")
    if n < 2:
        raise ValueError("schur_scan requires n >= 2")
    if trials < 0:
        raise ValueError("schur_scan requires trials >= 0")
    return _sweep(ps, n, trials, seed)


def _sweep(ps: list, n: int, trials: int, seed: int):
    xs, ij, lam = _draw_trials(np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed))), n, trials)

    # T-transform of every trial, entrywise as in t_transform
    t = np.arange(trials)
    xi = xs[t, ij[:, 0]]
    xj = xs[t, ij[:, 1]]
    ys = xs.copy()
    ys[t, ij[:, 0]] = lam * xi + (1.0 - lam) * xj
    ys[t, ij[:, 1]] = (1.0 - lam) * xi + lam * xj

    # M_p(x) = E|sum sqrt(x_j) E_j|^p for the x rows, then the y rows
    values, errors = engines.moments(np.sqrt(np.concatenate([xs, ys])), ps)
    for p, value, error in zip(ps, values, errors):
        yield _scan_result(p, n, trials, xs, ys, ij, lam, value, error)


def _scan_result(p, n, trials, xs, ys, ij, lam, values, errors) -> ScanResult:
    """One p's classification of the trials from the moments of their x
    rows, then their y rows."""
    mx, my = values[:trials], values[trials:]
    ex, ey = errors[:trials], errors[trials:]
    budget = 3.0 * (ex + ey) + 1e-13 * np.maximum(np.abs(mx), np.abs(my))
    gap = mx - my
    codes = np.where(gap > budget, 1, np.where(gap < -budget, 2, 0))
    convex = int(np.count_nonzero(codes == 1))
    concave = int(np.count_nonzero(codes == 2))
    # a reported example carries its rows' values, exactly what the
    # single-query m_p gives for it
    examples = [
        [{"x": xs[t].tolist(), "y": ys[t].tolist(), "mp_x": float(mx[t]), "mp_y": float(my[t])}
         for t in np.flatnonzero(codes == code)[:3].tolist()]
        for code in (1, 2)
    ]
    if convex and concave:
        verdict = "neither"
    elif convex:
        verdict = "convex"
    elif concave:
        verdict = "concave"
    else:
        verdict = "inconclusive"
    return ScanResult(
        p=p,
        n=n,
        trials=trials,
        verdict=verdict,
        convex_evidence=convex,
        concave_evidence=concave,
        within_budget=trials - convex - concave,
        rows=ScanRows(xs, ys, ij, lam, mx, ex, my, ey, gap, codes),
        convex_examples=examples[0],
        concave_examples=examples[1],
    )


@dataclass
class FailureProfile:
    """Profile of f(v) = M_p(v^2, 1-v^2) / Gamma(p+1) on [0, 1/sqrt(2)]:
    f and f' on the grid xs of _FAILURE_GRID points, the endpoint values
    and derivatives, and for p > 4 the interior maximum, the root of f' in
    the grid cell where f' turns from positive to nonpositive (the last
    cell excluded, since f'(1/sqrt(2)) = 0 for every p).  Every derivative
    is analytic (`_failure_f`); f'(0) is -inf for p < 0."""

    p: float
    xs: np.ndarray
    f: np.ndarray
    fprime: np.ndarray
    monotone_regime: bool
    critical_point: float | None
    critical_value: float | None
    f_at_zero: float
    f_at_right: float
    d1_at_zero: float
    d1_at_right: float
    d2_at_right: float
    monotone_increasing: bool


def _failure_f(v: float, p: float) -> tuple:
    """(f, f', f'') at v for f = (a^(p+1) - b^(p+1)) / (a - b), a = sqrt(1-v^2),
    b = v.

    With N and D the numerator and denominator, a' = -b/a and a'' = -1/a^3,
    f = -a^(p+1) expm1((p+1) log(b/a)) / D, which keeps N's digits as p
    nears -1, f' = (N' - f D') / D and f'' = (N'' - 2 f' D' - f D'') / D.
    The last two cancel as a - b -> 0, so where (|p| + 2) |d| < m, with
    m = (a+b)/2 and d = (a-b)/2, the symmetric-mean expansion
    f = sum_j c_j m^(p-2j) d^(2j), c_j = C(p+1, 2j+1), is differentiated
    term by term instead (m' = d/a, d' = -m/a): a f' = sum_j b_j
    m^(p-2j-1) d^(2j+1) and a^2 f'' = b f' + sum_j e_j m^(p-2j) d^(2j), with
    b_j = c_j (p-2j)(4j+4-p)/(2j+3) and e_j = (p-2j+1) b_(j-1) - (2j+1) b_j.
    There each term is at most 1/4 of the one before, so the sums stop once
    a term of f falls under 1e-18 of f, after 30 terms at most.  At v = 0
    the v^(p+1) term of f = 1 + v + (1 - p/2) v^2 - v^(p+1) + ... sends f'
    to -inf for p < 0 and f'' to -inf for 0 < p < 1 and +inf for p < 0; at
    p = 0, f = 1.
    """
    if p == 0.0:
        return 1.0, 0.0, 0.0
    if v == 0.0:
        tail = math.inf if p < 1.0 else float(p == 1.0)  # lim v^(p-1)
        return 1.0, 1.0 if p > 0.0 else -math.inf, 2.0 - p - (p + 1.0) * p * tail
    a = math.sqrt(max(0.0, 1.0 - v * v))
    b = v
    m, d = 0.5 * (a + b), 0.5 * (a - b)
    if (abs(p) + 2.0) * abs(d) >= m:
        q = b / a
        f = -(a ** (p + 1.0)) * math.expm1((p + 1.0) * math.log(q)) / (a - b)
        f1 = (f * (1.0 + q) - (p + 1.0) * (a**p * q + b**p)) / (a - b)
        n2 = (p + 1.0) * ((p - 1.0) * a ** (p - 1.0) * q * q - a ** (p - 1.0) - p * b ** (p - 1.0))
        return f, f1, (n2 + 2.0 * f1 * (1.0 + q) + f / a**3) / (a - b)
    # term = c_j m^(p-2j) d^(2j), and b_term and b_prev the same with b_j
    # and b_(j-1) in place of c_j
    r2 = (d / m) ** 2
    term = (p + 1.0) * m**p
    f = g1 = g2 = b_prev = 0.0
    for k in range(0, 60, 2):  # k = 2j
        b_term = term * (p - k) * (2 * k + 4 - p) / (k + 3)
        f += term
        g1 += b_term * d / m
        g2 += (p - k + 1) * b_prev - (k + 1) * b_term
        b_prev = b_term * r2
        term *= (p - k) * (p - k - 1) / ((k + 2) * (k + 3)) * r2
        if abs(term) <= 1e-18 * abs(f):
            break
    return f, g1 / a, (g2 + b * g1 / a) / (a * a)


def failure_profile(p: float) -> FailureProfile:
    """Locate the interior maximum of the two-coordinate profile for p > 4.

    For p <= 4 the profile is in its monotone regime; the report then
    carries the grid and endpoint derivatives with no critical point.  For
    p > 4 the critical point is `analysis.brent_root` on the analytic f'
    over the first grid cell where f' turns from positive to nonpositive.
    """
    p = float(p)
    if not (math.isfinite(p) and p > -1.0):
        raise ValueError(f"failure_profile requires a finite p > -1, got {p!r}")
    xs = np.linspace(0.0, _INV_SQRT2, _FAILURE_GRID)
    fs, d1, d2 = np.array([_failure_f(v, p) for v in xs.tolist()]).T
    crit = crit_val = None
    if p > 4.0:
        # every cell but the last, where f'(1/sqrt(2)) = 0
        cell = np.flatnonzero((d1[:-2] > 0.0) & (d1[1:-1] <= 0.0))
        if cell.size:
            # a lazy import: importing schur loads no analysis
            from .analysis import brent_root

            i = int(cell[0])
            crit = brent_root(lambda v: _failure_f(v, p)[1], xs[i], xs[i + 1], tol=0.0).value
            crit_val = _failure_f(crit, p)[0]
    return FailureProfile(
        p=p,
        xs=xs,
        f=fs,
        fprime=d1,
        monotone_regime=p <= 4.0,
        critical_point=crit,
        critical_value=crit_val,
        f_at_zero=float(fs[0]),
        f_at_right=float(fs[-1]),
        d1_at_zero=float(d1[0]),
        d1_at_right=float(d1[-1]),
        d2_at_right=float(d2[-1]),
        monotone_increasing=bool(np.all(np.diff(fs) > -1e-12)),
    )


def ostrowski_differential(x, k: int, i: int, j: int) -> float:
    """dF_k/dx_i - dF_k/dx_j from the closed forms, k in 0..3.

    Nonpositive whenever x_i > x_j; that sign pattern over the orthant is
    the Schur-concavity certificate for F_k (cross-checked against finite
    differences of f_k in the test suite).
    """
    if k not in (0, 1, 2, 3):
        raise ValueError("closed-form differentials cover k in 0..3")
    xs = _entries(x, "ostrowski_differential")
    n = len(xs)
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise ValueError("indices must be distinct and in range")
    if any(v <= 0.0 for v in xs):
        raise ValueError("strictly positive entries required (sqrt in denominators)")
    b = [math.sqrt(v) for v in xs]
    bi, bj = b[i], b[j]
    P = 1.0
    for v in b:
        P /= 1.0 + v
    common = (bj - bi) / (2.0 * bi * bj)
    W = (1.0 + bi + bj) / ((1.0 + bi) * (1.0 + bj))
    if k == 0:
        return common * W * P
    m1 = sum(b)
    if k == 1:
        return common * (1.0 - W * P)
    if k == 2:
        return common * (W * P - 1.0 + m1)
    # k == 3: the M_3/6 block contributes (T + M1^2)/2 - b_i b_j
    T = sum(v * v for v in b)
    return common * (0.5 * (T + m1 * m1) - bi * bj + 1.0 - m1 - W * P)


def claim_inequality_check(b) -> bool:
    """(1 + b_1 + b_2) / ((1+b_1)(1+b_2)) > (1 - sum b_j) prod (1 + b_j)
    for positive b; trivially true once sum b_j >= 1."""
    bs = [float(v) for v in b]
    if len(bs) < 2 or any(v <= 0.0 for v in bs):
        raise ValueError("needs at least two positive entries")
    lhs = (1.0 + bs[0] + bs[1]) / ((1.0 + bs[0]) * (1.0 + bs[1]))
    prod = 1.0
    for v in bs:
        prod *= 1.0 + v
    rhs = (1.0 - sum(bs)) * prod
    return lhs > rhs
