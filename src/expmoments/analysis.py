"""Inequality verification suites, constant solvers, the constrained
minimizer with its criticality certificate, and experimental probes.

Comparisons happen at the p-th-power level wherever engines return
powers, taking roots once at reporting time, and a trial only counts as
a violation when the gap exceeds three times the combined engine error
budgets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import engines
from .model import GammaSumModel, MomentQuery, _h_table
from .quadrature import DEFAULT_CONFIG, QuadratureConfig
from .specialfn import gaussian_abs_moment, gaussian_even_moment_exact, loggamma

__all__ = [
    "VerificationReport",
    "RootResult",
    "laplace_abs_moment",
    "centered_exp_abs_moment",
    "L1_SCALE",
    "brent_root",
    "solve_pstar",
    "solve_p0",
    "verify_theorem1",
    "verify_theorem1_sweep",
    "verify_hunter_exact",
    "verify_mrtt",
    "verify_all_equal",
    "verify_gamma_extension",
    "verify_claim",
    "verify_stepII_bound",
    "gradient",
    "minimize_sphere",
    "MinimizeResult",
    "logconvexity_probe",
    "LogConvexityReport",
    "tang_density_check",
    "TangReport",
]

# Scale kappa making the first absolute moment of kappa (E - 1) equal 1.
# E|E - 1| = 2/e, so kappa = e/2; reports surface this convention because
# the inverse constant 2/e, which does not normalize the L1 norm, also
# circulates for the same comparison profile.
L1_SCALE = 0.5 * math.e

_KAPPA_NOTE = (
    "shifted-exponential comparison profile scaled to unit first absolute "
    "moment: kappa = e/2 (E|E-1| = 2/e; the reciprocal constant 2/e does "
    "not normalize the L1 norm and is deliberately not used)"
)


@dataclass
class VerificationReport:
    """Outcome of a randomized or exhaustive inequality sweep."""

    suite: str
    params: dict
    trials: int
    violations: list = field(default_factory=list)
    passed: bool = True
    notes: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def record_violation(self, payload: dict):
        self.violations.append(payload)
        self.passed = False

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "trials": self.trials,
            "violations": self.violations,
            "pass": self.passed,
            "notes": self.notes,
            "extra": self.extra,
        }


@dataclass(frozen=True)
class RootResult:
    value: float
    bracket: tuple
    residual: float
    iterations: int

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "bracket": list(self.bracket),
            "residual": self.residual,
            "iterations": self.iterations,
        }


def laplace_abs_moment(p: float) -> float:
    """E|E - E'|^p = Gamma(p + 1) for p > -1 (two-sided exponential)."""
    p = float(p)
    if p <= -1.0:
        raise ValueError("laplace_abs_moment requires p > -1")
    return math.exp(loggamma(p + 1.0))


def centered_exp_abs_moment(p: float) -> float:
    """E|E - 1|^p = e^{-1} (Gamma(p+1) + sum_{k>=0} 1/(k! (p+k+1))).

    The Gamma term is the t > 1 branch of the defining integral; the
    series (truncated when a term drops under 1e-16 of the partial sum)
    is the t < 1 branch and converges for every p > -1.
    """
    p = float(p)
    if p <= -1.0:
        raise ValueError("centered_exp_abs_moment requires p > -1")
    series = 0.0
    inv_fact = 1.0
    k = 0
    while True:
        term = inv_fact / (p + k + 1.0)
        series += term
        if term < 1e-16 * series and k > 2:
            break
        k += 1
        inv_fact /= k
        if k > 500:
            break
    return math.exp(-1.0) * (math.exp(loggamma(p + 1.0)) + series)


def brent_root(f, lo: float, hi: float, tol: float = 1e-12, max_iter: int = 200) -> RootResult:
    """Brent's method: bisection safeguarded by secant/inverse-quadratic steps.

    Needs a sign change on [lo, hi]; returns the root with |f| residual.
    """
    a, b = float(lo), float(hi)
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return RootResult(a, (lo, hi), 0.0, 0)
    if fb == 0.0:
        return RootResult(b, (lo, hi), 0.0, 0)
    if fa * fb > 0.0:
        raise ValueError(f"no sign change on [{lo}, {hi}]: f(lo)={fa!r}, f(hi)={fb!r}")
    c, fc = a, fa
    d = e = b - a
    eps = 2.220446049250313e-16
    for it in range(1, max_iter + 1):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * eps * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return RootResult(b, (lo, hi), abs(fb), it)
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                pq = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                pq = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if pq > 0.0:
                q = -q
            pq = abs(pq)
            if 2.0 * pq < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e = d
                d = pq / q
            else:
                d = xm
                e = d
        else:
            d = xm
            e = d
        a, fa = b, fb
        if abs(d) > tol1:
            b += d
        else:
            b += math.copysign(tol1, xm)
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    return RootResult(b, (lo, hi), abs(fb), max_iter)


def solve_pstar(bracket: tuple = (2.0, 4.0)) -> RootResult:
    """The crossing of Gamma(p+1)^(1/p) and kappa E|E-1|^p)^(1/p), kappa = e/2.

    Both profiles are normalized to 1 at p = 1, so that trivial root is
    excluded by the bracket.
    """
    log_kappa = math.log(L1_SCALE)

    def gap(p: float) -> float:
        return loggamma(p + 1.0) / p - log_kappa - math.log(centered_exp_abs_moment(p)) / p

    res = brent_root(gap, bracket[0], bracket[1], tol=1e-12)
    return RootResult(res.value, bracket, abs(gap(res.value)), res.iterations)


def solve_p0(bracket: tuple = (-0.99, -0.01)) -> RootResult:
    """The crossing of E|E-1|^p and E|G|^p on (-1, 0).

    Phrased on the raw moments (equality of the norms is equivalent);
    at p = 2 both sides are 1 by unit variance, which anchors the other
    end of the phase claim.
    """

    def gap(p: float) -> float:
        return math.log(centered_exp_abs_moment(p)) - math.log(gaussian_abs_moment(p))

    res = brent_root(gap, bracket[0], bracket[1], tol=1e-12)
    return RootResult(res.value, bracket, abs(gap(res.value)), res.iterations)


def _distinct_weights(rng: np.random.Generator, n: int, lo: float = -1.0, hi: float = 1.0):
    """Random weights bounded away from zero and from each other, so the
    closed-form density stays well conditioned."""
    while True:
        w = rng.uniform(lo, hi, n).tolist()
        if any(abs(v) < 1e-3 for v in w):
            continue
        if not any(abs(a - b) < 1e-3 * max(abs(a), abs(b)) for i, a in enumerate(w) for b in w[i + 1 :]):
            return w


def _check_trials(name: str, trials: int) -> None:
    if trials < 0:
        raise ValueError(f"{name} requires trials >= 0, got {trials}")


def verify_theorem1(
    p: float,
    trials: int = 200,
    n_max: int = 8,
    seed: int = 0,
) -> VerificationReport:
    """E|X|^p >= E|G|^p Var(X)^(p/2) for X a weighted exponential sum, p >= 2.

    Random mixed-sign weight vectors, compared at the power level within
    three combined error budgets; balanced half plus-minus vectors at
    n in {2, 4, 8, 16} are appended as the near-extremal family and their
    norm-level ratios recorded.
    """
    return verify_theorem1_sweep([p], trials, n_max, seed)[0]


def verify_theorem1_sweep(
    ps,
    trials: int = 200,
    n_max: int = 8,
    seed: int = 0,
) -> list[VerificationReport]:
    """`verify_theorem1(p, trials, n_max, seed)` for each p of ps, in
    order.  The reports share their trials: one draw, and one multi-p
    `engines.moments` batch whose rows are what engines.moment gives each
    trial's model."""
    ps = [float(p) for p in ps]
    if any(p < 2.0 - 1e-6 for p in ps):
        raise ValueError("verify_theorem1 requires p >= 2")
    _check_trials("verify_theorem1", trials)
    ps = [max(p, 2.0) for p in ps]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    # every trial is drawn first, by the same Generator calls in the same
    # order
    draws = []
    for _ in range(trials):
        n = int(rng.integers(1, n_max + 1))
        draws.append(_distinct_weights(rng, n))
    W = np.zeros((trials, n_max))
    for row, w in zip(W, draws):
        row[: len(w)] = w
    variances = [sum(v * v for v in w) for w in draws]
    values, errors = engines.moments(W, ps)
    return [_theorem1_report(p, n_max, seed, draws, variances, value.tolist(), error.tolist())
            for p, value, error in zip(ps, values, errors)]


def _theorem1_report(p, n_max, seed, draws, variances, values, errors) -> VerificationReport:
    """One p's report from the trials' weights, variances and moments."""
    report = VerificationReport(
        suite="theorem1", params={"p": p, "n_max": n_max, "seed": seed}, trials=len(draws)
    )
    gauss = gaussian_abs_moment(p)
    for trial, (w, var, value, error) in enumerate(zip(draws, variances, values, errors)):
        rhs = gauss * var ** (0.5 * p)
        budget = 3.0 * error + 1e-12 * rhs
        if value < rhs - budget:
            report.record_violation(
                {"trial": trial, "weights": list(w), "p": p, "lhs": value, "rhs": rhs, "budget": budget}
            )
    ratios = {}
    for n in (2, 4, 8, 16):
        w = [((-1.0) ** j) / math.sqrt(n) for j in range(n)]
        est = engines.moment(GammaSumModel.of(w), MomentQuery(p=p))
        ratios[n] = (est.value / gauss) ** (1.0 / p)
    report.extra["balanced_ratios"] = ratios
    if not (1.0 - 1e-9 <= ratios[16] <= 1.1):
        report.record_violation({"balanced_n16_ratio": ratios[16], "expected": "[1, 1.1]"})
    return report


def verify_hunter_exact(trials: int = 1000, ell_set=(2, 4, 6, 8), seed: int = 0) -> VerificationReport:
    """(ell! h_ell(x))^2 >= ((ell-1)!!)^2 (sum x^2)^ell in exact rationals.

    Squaring keeps both sides rational; zero tolerance, an actual
    certificate rather than a float comparison.  Three whole-array
    Generator calls draw every trial: the vector lengths n, uniform on
    1..6, then the sum(n) numerators, uniform on the 18 nonzero integers in
    [-9, 9], and the sum(n) denominators, uniform on 1..9, each trial's
    entries consecutive.  Each vector runs on the integers X = D x, D the
    lcm of its denominators: h_ell is homogeneous of degree ell, so the
    inequality times D^(2 ell) compares the integers (ell! h_ell(X))^2 and
    ((ell-1)!!)^2 (sum X^2)^ell.  One `_h_table` per vector length runs on
    the object-array columns of every such vector, giving every degree;
    violations are recorded trial by trial, in ell_set order.
    """
    _check_trials("verify_hunter_exact", trials)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    report = VerificationReport(
        suite="hunter", params={"ell_set": list(ell_set), "seed": seed}, trials=trials
    )
    for ell in ell_set:
        if ell % 2 != 0:
            raise ValueError("hunter suite needs even degrees")
    bounds = [(ell, math.factorial(ell), gaussian_even_moment_exact(ell) ** 2) for ell in ell_set]
    lengths = rng.integers(1, 7, trials)
    nums = rng.integers(-9, 9, lengths.sum())
    nums[nums >= 0] += 1
    dens = rng.integers(1, 10, nums.size)
    starts = np.cumsum(lengths) - lengths
    found = []  # (trial, position in ell_set, record)
    for n in range(1, 7):
        trial = np.flatnonzero(lengths == n)
        at = starts[trial, None] + np.arange(n)
        d = np.lcm.reduce(dens[at], axis=1)
        scaled = (nums[at] * (d[:, None] // dens[at])).astype(object)
        sq = (scaled * scaled).sum(axis=1)
        h = _h_table(scaled.T, max(ell_set, default=0))
        for k, (ell, factorial, rhs_square) in enumerate(bounds):
            lhs = factorial * h[ell]
            for i in np.flatnonzero((lhs * lhs < rhs_square * sq**ell).astype(bool)):
                x = [str(Fraction(int(a), int(b))) for a, b in zip(nums[at[i]], dens[at[i]])]
                lhs_exact = str(Fraction(lhs[i], int(d[i]) ** ell))
                found.append((int(trial[i]), k, {"trial": int(trial[i]), "x": x, "ell": ell, "lhs": lhs_exact}))
    for _, _, record in sorted(found, key=lambda f: f[:2]):
        report.record_violation(record)
    return report


@functools.cache
def _pstar() -> float:
    return solve_pstar().value


def verify_mrtt(
    p: float, trials: int = 100, seed: int = 0, cfg: QuadratureConfig | None = None
) -> VerificationReport:
    """Sharp two-sided bounds on r = ||X - EX||_p / ||X - EX||_1 for
    exponential sums: r >= Gamma(p+1)^(1/p) on -1 < p <= 1, r <= the same
    on 1 <= p <= p*, and r <= kappa (E|E-1|^p)^(1/p) with kappa = e/2
    beyond the crossing p*."""
    p = float(p)
    if p <= -1.0 or p == 0.0:
        raise ValueError("verify_mrtt requires p > -1, p != 0")
    _check_trials("verify_mrtt", trials)
    cfg = cfg or DEFAULT_CONFIG
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    pstar = _pstar()
    report = VerificationReport(
        suite="mrtt", params={"p": p, "seed": seed, "pstar": pstar}, trials=trials
    )
    report.notes.append(_KAPPA_NOTE)
    gauge = math.exp(loggamma(p + 1.0) / p)
    shifted_gauge = L1_SCALE * centered_exp_abs_moment(p) ** (1.0 / p)
    for trial in range(trials):
        n = int(rng.integers(1, 6))
        w = _distinct_weights(rng, n)
        model = GammaSumModel.of(w)
        mean = model.mean_variance()[0]
        num = engines.moment(model, MomentQuery(p=p, shift=mean), cfg=cfg)
        den = engines.moment(model, MomentQuery(p=1.0, shift=mean), cfg=cfg)
        r = num.value ** (1.0 / p) / den.value
        rel_budget = abs(num.error / (p * num.value)) + den.error / den.value
        budget = 3.0 * r * rel_budget + 1e-9
        payload = {"trial": trial, "weights": w, "p": p, "r": r, "budget": budget}
        if p <= 1.0:
            if r < gauge - budget:
                report.record_violation({**payload, "bound": gauge, "side": "lower"})
        if 1.0 <= p <= pstar:
            if r > gauge + budget:
                report.record_violation({**payload, "bound": gauge, "side": "upper"})
        if p >= pstar:
            if r > shifted_gauge + budget:
                report.record_violation({**payload, "bound": shifted_gauge, "side": "upper"})
    return report


def verify_all_equal(n_max: int = 20, p_set=(2.0, 3.0, 4.0, 6.0)) -> VerificationReport:
    """n^(-p/2) Gamma(n+p) / Gamma(n) >= 2^(p/2) E|G|^p for n >= 1, p >= 2.

    The left side is the closed-form moment of a normalized Erlang-n;
    equality sits at (n, p) = (1, 2).
    """
    report = VerificationReport(
        suite="all-equal", params={"n_max": n_max, "p_set": list(p_set)}, trials=n_max * len(p_set)
    )
    equality_gap = None
    for n in range(1, n_max + 1):
        for p in p_set:
            lhs = math.exp(loggamma(n + p) - loggamma(float(n)) - 0.5 * p * math.log(n))
            rhs = 2.0 ** (0.5 * p) * gaussian_abs_moment(p)
            if lhs < rhs * (1.0 - 1e-12):
                report.record_violation({"n": n, "p": p, "lhs": lhs, "rhs": rhs})
            if n == 1 and p == 2.0:
                equality_gap = abs(lhs - rhs)
    report.extra["equality_gap_n1_p2"] = equality_gap
    if equality_gap is not None and equality_gap > 1e-12:
        report.record_violation({"equality_case": equality_gap})
    return report


def verify_gamma_extension(
    p_set=(2.0, 3.0, 4.0),
    trials: int = 40,
    seed: int = 0,
    mc_count: int = 400_000,
) -> VerificationReport:
    """Gamma-shape generalization: ||X||_p >= ||G||_p sqrt(sum x_j^2 g_j),
    each trial through auto dispatch: integer shapes through the exact or
    density engine, fractional shapes at integer p through the exact engine
    where the moment is polynomial (even p, or weights of one sign) and
    through Monte Carlo otherwise.  Plus the shape identity
    E[X Phi(X)] = g E Phi(X + E) checked for Phi = |.|^p by two independent
    engines: the left side is a Gamma closed form and the right side keeps
    Monte Carlo at fractional shapes, where auto dispatch would take the
    exact engine."""
    if not p_set:
        raise ValueError("verify_gamma_extension requires a nonempty p_set")
    if any(p < 2.0 for p in p_set):
        raise ValueError("the lower-bound comparison needs p >= 2")
    _check_trials("verify_gamma_extension", trials)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    report = VerificationReport(
        suite="gamma", params={"p_set": list(p_set), "seed": seed}, trials=trials
    )
    for trial in range(trials):
        n = int(rng.integers(1, 5))
        w = _distinct_weights(rng, n)
        if trial % 2 == 0:
            shapes = [float(rng.integers(1, 4)) for _ in range(n)]
        else:
            shapes = [float(rng.uniform(0.4, 3.0)) for _ in range(n)]
            shapes = [s if not float(s).is_integer() else s + 0.5 for s in shapes]
        model = GammaSumModel.of(w, shapes)
        p = float(p_set[trial % len(p_set)])
        est = engines.moment(model, MomentQuery(p=p), seed=seed + trial, count=mc_count)
        var = sum(v * v * s for v, s in zip(w, shapes))
        rhs = gaussian_abs_moment(p) * var ** (0.5 * p)
        budget = 3.0 * est.error + 1e-12 * rhs
        if est.value < rhs - budget:
            report.record_violation(
                {
                    "trial": trial,
                    "weights": w,
                    "shapes": shapes,
                    "p": p,
                    "engine": est.engine,
                    "lhs": est.value,
                    "rhs": rhs,
                }
            )
    # shape identity: E X^(p+1) = g E (X + E)^p for X ~ Gamma(g)
    identity_rows = []
    for g in (2.0, 3.0, 1.7, 0.6):
        for p in p_set:
            lhs = math.exp(loggamma(g + p + 1.0) - loggamma(g))
            aug = GammaSumModel.of([1.0, 1.0], [g, 1.0])
            engine = None if aug.integer_shapes else "montecarlo"
            est = engines.moment(aug, MomentQuery(p=float(p)), engine=engine, seed=seed, count=mc_count)
            rhs = g * est.value
            budget = 3.0 * g * est.error + 1e-10 * lhs
            ok = abs(lhs - rhs) <= budget
            identity_rows.append(
                {"shape": g, "p": p, "lhs": lhs, "rhs": rhs, "engine": est.engine, "ok": ok}
            )
            if not ok:
                report.record_violation({"identity": identity_rows[-1]})
    report.extra["shape_identity"] = identity_rows
    return report


def verify_claim(trials: int = 10_000, n_max: int = 6, seed: int = 0) -> VerificationReport:
    """Randomized sweep of the product inequality behind the k = 2
    concavity case."""
    from .schur import claim_inequality_check

    if n_max < 2:
        raise ValueError(f"verify_claim requires n_max >= 2, got {n_max}")
    _check_trials("verify_claim", trials)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    report = VerificationReport(suite="claim", params={"n_max": n_max, "seed": seed}, trials=trials)
    for trial in range(trials):
        n = int(rng.integers(2, n_max + 1))
        b = [float(v) for v in np.exp(rng.uniform(math.log(1e-3), math.log(3.0), n))]
        if not claim_inequality_check(b):
            report.record_violation({"trial": trial, "b": b})
    return report


def verify_stepII_bound(trials: int = 50, seed: int = 0) -> VerificationReport:
    """Modulus bound chain for the augmented sum Y = S_x + x1 E + x2 E'
    with unit-norm x and x1 the largest coordinate in absolute value:
    Re phi_Y(t) <= |phi_Y(t)| <= (1 + x1^2 t^2)^(-(1+s)/2), s = x1^(-2)."""
    from .model import charfn

    _check_trials("verify_stepII_bound", trials)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    report = VerificationReport(suite="stepII-bound", params={"seed": seed}, trials=trials)
    tgrid = np.geomspace(1e-3, 1e3, 61)
    for trial in range(trials):
        n = int(rng.integers(2, 7))
        w = np.array(_distinct_weights(rng, n))
        w /= math.sqrt(float(np.sum(w * w)))
        order = np.argsort(-np.abs(w))
        x1 = float(w[order[0]])
        x2 = float(w[order[1]])
        s = x1**-2
        aug = GammaSumModel.of([*map(float, w), x1, x2])
        for t in tgrid:
            phi = charfn(aug, float(t))
            envelope = (1.0 + x1 * x1 * t * t) ** (-0.5 * (1.0 + s))
            if not (phi.real <= abs(phi) + 1e-12 and abs(phi) <= envelope + 1e-12):
                report.record_violation(
                    {"trial": trial, "weights": list(map(float, w)), "t": float(t)}
                )
                break
    return report


def gradient(
    x,
    p: float,
    j: int,
    engine: str = "density",
    seed: int = 0,
    count: int = 400_000,
) -> float:
    """d/dx_j E|S_x|^p = p E |S_x + x_j E|^(p-1) sgn(S_x + x_j E), p >= 2.

    The extra summand repeats the j-th weight, which the augmented model
    merges into a doubled pole there.
    """
    p = float(p)
    if p < 2.0:
        raise ValueError("gradient identity requires p >= 2")
    xs = [float(v) for v in x]
    if not (0 <= j < len(xs)):
        raise ValueError("index out of range")
    if not any(xs):
        return 0.0
    model = GammaSumModel.of(xs + [xs[j]])
    est = engines.moment(model, MomentQuery(p=p - 1.0, signed=True), engine=engine, seed=seed, count=count)
    return p * est.value


@dataclass
class MinimizeResult:
    x_min: np.ndarray
    value: float
    crux_residual: float | None
    converged: bool
    iterations: int
    starts: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "x_min": [float(v) for v in self.x_min],
            "value": self.value,
            "crux_residual": self.crux_residual,
            "converged": self.converged,
            "iterations": self.iterations,
        }


def _sphere_gradient(x: np.ndarray, p: float) -> np.ndarray:
    return np.array([gradient(x, p, j, engine="density") for j in range(len(x))])


def minimize_sphere(
    n: int,
    p: float,
    multistart: int = 8,
    seed: int = 0,
    max_iter: int = 400,
    grad_tol: float = 1e-7,
    cfg: QuadratureConfig | None = None,
) -> MinimizeResult:
    """Projected gradient descent for E|S_x|^p on the unit sphere, p >= 2.

    Projection is renormalization; the step uses backtracking line search.
    At the best converged point the criticality certificate
    |p E|S|^p - p(p-1) E|S + x1 E + x2 E'|^(p-2)| is evaluated on the two
    largest-magnitude distinct coordinates and reported relative to the
    objective.
    """
    p = float(p)
    if p < 2.0 or n < 2:
        raise ValueError("minimize_sphere requires p >= 2 and n >= 2")
    if multistart < 1:
        raise ValueError("minimize_sphere requires multistart >= 1")
    cfg = cfg or DEFAULT_CONFIG
    best = None
    starts = []
    for start in range(multistart):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(start,))))
        x = rng.standard_normal(n)
        x /= math.sqrt(x.dot(x))
        val = float(engines.moments(x[None, :], p, cfg)[0][0])
        converged = False
        it = 0
        for it in range(1, max_iter + 1):
            g = _sphere_gradient(x, p)
            gt = g - float(g @ x) * x
            gnorm = math.sqrt(gt.dot(gt))
            if gnorm < grad_tol * max(1.0, p * abs(val)):
                converged = True
                break
            # objective evaluations are closed-form cheap, so scan a whole
            # step ladder and keep the best point; plain Armijo accepts
            # valley-crossing steps here and ping-pongs
            step = 1.0 / max(1.0, gnorm)
            ladder = np.empty((40, n))
            for y in ladder:
                y[:] = x - step * gt
                y /= math.sqrt(y.dot(y))
                step *= 0.5
            best_y = None
            best_val = val
            for y, yval in zip(ladder, engines.moments(ladder, p, cfg)[0].tolist()):
                if yval < best_val:
                    best_val, best_y = yval, y
            if best_y is None:
                converged = gnorm < 1e-4 * max(1.0, p * abs(val))
                break
            x, val = best_y, best_val
        starts.append({"start": start, "value": val, "converged": converged, "iterations": it})
        if best is None or val < best[1]:
            best = (x, val, converged, it)
    x, val, converged, it = best
    crux = _crux_residual(x, p, val, cfg)
    return MinimizeResult(
        x_min=x, value=val, crux_residual=crux, converged=converged, iterations=it, starts=starts
    )


def _crux_residual(x: np.ndarray, p: float, val: float, cfg) -> float | None:
    """|p E|S|^p - p(p-1) E|S + x1 E + x2 E'|^(p-2)| / (p E|S|^p) for the two
    largest-magnitude distinct coordinate values; None when all equal."""
    xs = x.tolist()
    vals = sorted(GammaSumModel.of(xs).weights, key=abs, reverse=True)
    if len(vals) < 2:
        return None
    model = GammaSumModel.of(xs + vals[:2])
    inner = engines.moment(model, MomentQuery(p=p - 2.0), cfg=cfg)
    lhs = p * val
    rhs = p * (p - 1.0) * inner.value
    return abs(lhs - rhs) / abs(lhs)


@dataclass
class LogConvexityReport:
    weights: list
    p_grid: list
    log_ratio: list
    second_differences: list
    symmetric: bool
    asserted: bool
    min_second_difference: float

    def to_dict(self) -> dict:
        return {
            "weights": self.weights,
            "p_grid": self.p_grid,
            "log_ratio": self.log_ratio,
            "second_differences": self.second_differences,
            "symmetric": self.symmetric,
            "asserted": self.asserted,
            "min_second_difference": self.min_second_difference,
        }


def logconvexity_probe(x, p_grid=None, cfg: QuadratureConfig | None = None) -> LogConvexityReport:
    """Second differences of p -> log(E|S_x|^p / E|G|^p) on a grid, for
    mean-zero weights.

    Sign-symmetric weight multisets make S_x a scale mixture of Gaussians,
    so log-convexity is provable there and the caller may assert it; for
    general mean-zero weights the report is observational only.
    """
    xs = [float(v) for v in x]
    if abs(sum(xs)) > 1e-12 * max(1.0, max(abs(v) for v in xs)):
        raise ValueError("probe requires mean-zero weights (sum x_j = 0)")
    if p_grid is None:
        p_grid = [2.0 + 0.5 * i for i in range(9)]
    p_grid = [float(p) for p in p_grid]
    if len(p_grid) < 3:
        raise ValueError("logconvexity_probe requires at least 3 points in p_grid")
    model = GammaSumModel.of(xs)
    g = []
    for p in p_grid:
        est = engines.moment(model, MomentQuery(p=p), cfg=cfg)
        g.append(math.log(est.value) - math.log(gaussian_abs_moment(p)))
    second = [g[i + 1] - 2.0 * g[i] + g[i - 1] for i in range(1, len(g) - 1)]
    symmetric = sorted(xs) == sorted(-v for v in xs)
    return LogConvexityReport(
        weights=xs,
        p_grid=p_grid,
        log_ratio=g,
        second_differences=second,
        symmetric=symmetric,
        asserted=symmetric,
        min_second_difference=min(second),
    )


@dataclass
class TangReport:
    weights: list
    density_at_mean: float
    reference: float
    meets_reference: bool
    note: str

    def to_dict(self) -> dict:
        return {
            "weights": self.weights,
            "density_at_mean": self.density_at_mean,
            "reference": self.reference,
            "meets_reference": self.meets_reference,
            "note": self.note,
        }


def tang_density_check(x) -> TangReport:
    """Density of sum x_j (E_j - 1) at zero versus the single-exponential
    floor 1/e, for unit-norm nonnegative weights.

    Report-level: the comparison point is read as the density at the
    centering point (the mean shift), and the outcome is reported, not
    asserted.
    """
    xs = [float(v) for v in x]
    if any(v < 0.0 for v in xs):
        raise ValueError("tang check requires nonnegative weights")
    norm = math.sqrt(sum(v * v for v in xs))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError("tang check requires unit-norm weights")
    value = engines.density_at(GammaSumModel.of(xs), 0.0, shift=sum(xs))
    ref = math.exp(-1.0)
    return TangReport(
        weights=xs,
        density_at_mean=value,
        reference=ref,
        meets_reference=value >= ref - 1e-9,
        note=(
            "density of the centered sum evaluated at 0 (one-sided reading: "
            "the comparison point is the mean shift); reported, not asserted"
        ),
    )
