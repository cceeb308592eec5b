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

# Every suite, solver and the minimizer runs at one configuration, these
# constants; a report that names a setting echoes its value.
_BRENT_MAX_ITER = 200
_PSTAR_BRACKET = (2.0, 4.0)
_P0_BRACKET = (-0.99, -0.01)
_WEIGHT_RANGE = (-1.0, 1.0)  # of `_distinct_weights`
_THEOREM1_N_MAX = 8
_HUNTER_DEGREES = (2, 4, 6, 8)  # even
_ALL_EQUAL_N_MAX = 20
_ALL_EQUAL_PS = (2.0, 3.0, 4.0, 6.0)
_GAMMA_PS = (2.0, 3.0, 4.0)  # p >= 2, as the lower bound needs
_GAMMA_MC_COUNT = 400_000
_CLAIM_N_MAX = 6
_MINIMIZE_MAX_ITER = 400
_MINIMIZE_GRAD_TOL = 1e-7
_LOGCONVEXITY_PS = tuple(2.0 + 0.5 * i for i in range(9))


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
    """E|E - 1|^p for p > -1: the density engine's Exp(1) row at shift 1,
    exact at even p and within the engine's error bar elsewhere.

    The referee in the tests is e^{-1} (Gamma(p+1) + sum_{k>=0} 1/(k! (p+k+1))):
    the Gamma term is the t > 1 branch of the defining integral and the
    series the t < 1 branch.
    """
    p = float(p)
    if p <= -1.0:
        raise ValueError("centered_exp_abs_moment requires p > -1")
    return engines.moment(GammaSumModel.of([1.0]), MomentQuery(p=p, shift=1.0)).value


def brent_root(f, lo: float, hi: float, tol: float = 1e-12) -> RootResult:
    """Brent's method: bisection safeguarded by secant/inverse-quadratic steps.

    Needs a sign change on [lo, hi]; returns the root with |f| residual,
    after _BRENT_MAX_ITER steps at most.
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
    for it in range(1, _BRENT_MAX_ITER + 1):
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
    return RootResult(b, (lo, hi), abs(fb), _BRENT_MAX_ITER)


def solve_pstar() -> RootResult:
    """The crossing of Gamma(p+1)^(1/p) and kappa E|E-1|^p)^(1/p), kappa = e/2,
    in _PSTAR_BRACKET.

    Both profiles are normalized to 1 at p = 1, so that trivial root is
    excluded by the bracket.
    """
    log_kappa = math.log(L1_SCALE)

    def gap(p: float) -> float:
        return loggamma(p + 1.0) / p - log_kappa - math.log(centered_exp_abs_moment(p)) / p

    return brent_root(gap, *_PSTAR_BRACKET, tol=1e-12)


def solve_p0() -> RootResult:
    """The crossing of E|E-1|^p and E|G|^p on (-1, 0), in _P0_BRACKET.

    Phrased on the raw moments (equality of the norms is equivalent);
    at p = 2 both sides are 1 by unit variance, which anchors the other
    end of the phase claim.
    """

    def gap(p: float) -> float:
        return math.log(centered_exp_abs_moment(p)) - math.log(gaussian_abs_moment(p))

    return brent_root(gap, *_P0_BRACKET, tol=1e-12)


def _distinct_weights(rng: np.random.Generator, n: int):
    """Random weights on _WEIGHT_RANGE, bounded away from zero and from
    each other, so the closed-form density stays well conditioned."""
    while True:
        w = rng.uniform(*_WEIGHT_RANGE, n).tolist()
        if any(abs(v) < 1e-3 for v in w):
            continue
        if not any(abs(a - b) < 1e-3 * max(abs(a), abs(b)) for i, a in enumerate(w) for b in w[i + 1 :]):
            return w


def _check_trials(name: str, trials: int) -> None:
    if trials < 0:
        raise ValueError(f"{name} requires trials >= 0, got {trials}")


def verify_theorem1(p: float, trials: int = 200, seed: int = 0) -> VerificationReport:
    """E|X|^p >= E|G|^p Var(X)^(p/2) for X a weighted exponential sum, p >= 2.

    Random mixed-sign weight vectors of 1 to _THEOREM1_N_MAX entries,
    compared at the power level within three combined error budgets;
    balanced half plus-minus vectors at n in {2, 4, 8, 16} are appended as
    the near-extremal family and their norm-level ratios recorded.
    """
    return verify_theorem1_sweep([p], trials, seed)[0]


def verify_theorem1_sweep(ps, trials: int = 200, seed: int = 0) -> list[VerificationReport]:
    """`verify_theorem1(p, trials, seed)` for each p of ps, in order.
    The reports share their trials: one draw, and one multi-p
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
        n = int(rng.integers(1, _THEOREM1_N_MAX + 1))
        draws.append(_distinct_weights(rng, n))
    W = np.zeros((trials, _THEOREM1_N_MAX))
    for row, w in zip(W, draws):
        row[: len(w)] = w
    variances = [sum(v * v for v in w) for w in draws]
    values, errors = engines.moments(W, ps)
    return [_theorem1_report(p, seed, draws, variances, value.tolist(), error.tolist())
            for p, value, error in zip(ps, values, errors)]


def _theorem1_report(p, seed, draws, variances, values, errors) -> VerificationReport:
    """One p's report from the trials' weights, variances and moments."""
    report = VerificationReport(
        suite="theorem1", params={"p": p, "n_max": _THEOREM1_N_MAX, "seed": seed}, trials=len(draws)
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


def verify_hunter_exact(trials: int = 1000, seed: int = 0) -> VerificationReport:
    """(ell! h_ell(x))^2 >= ((ell-1)!!)^2 (sum x^2)^ell in exact rationals,
    at each even degree ell of _HUNTER_DEGREES.

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
    violations are recorded trial by trial, in _HUNTER_DEGREES order.
    """
    _check_trials("verify_hunter_exact", trials)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    report = VerificationReport(
        suite="hunter", params={"ell_set": list(_HUNTER_DEGREES), "seed": seed}, trials=trials
    )
    bounds = [(ell, math.factorial(ell), gaussian_even_moment_exact(ell) ** 2) for ell in _HUNTER_DEGREES]
    lengths = rng.integers(1, 7, trials)
    nums = rng.integers(-9, 9, lengths.sum())
    nums[nums >= 0] += 1
    dens = rng.integers(1, 10, nums.size)
    starts = np.cumsum(lengths) - lengths
    found = []  # (trial, position in _HUNTER_DEGREES, record)
    for n in range(1, 7):
        trial = np.flatnonzero(lengths == n)
        at = starts[trial, None] + np.arange(n)
        d = np.lcm.reduce(dens[at], axis=1)
        scaled = (nums[at] * (d[:, None] // dens[at])).astype(object)
        sq = (scaled * scaled).sum(axis=1)
        h = _h_table(scaled.T, max(_HUNTER_DEGREES))
        for k, (ell, factorial, rhs_square) in enumerate(bounds):
            lhs = factorial * h[ell]
            for i in np.flatnonzero((lhs * lhs < rhs_square * sq**ell).astype(bool)):
                x = [str(Fraction(int(a), int(b))) for a, b in zip(nums[at[i]], dens[at[i]])]
                lhs_exact = str(Fraction(lhs[i], int(d[i]) ** ell))
                found.append((int(trial[i]), k, {"trial": int(trial[i]), "x": x, "ell": ell, "lhs": lhs_exact}))
    for _, _, record in sorted(found, key=lambda f: f[:2]):
        report.record_violation(record)
    return report


def _root(value: float, p: float) -> float:
    """value^(1/p) for value > 0, formed as exp(log(value) / p); a
    ValueError where it leaves the float range."""
    try:
        return math.exp(math.log(value) / p)
    except OverflowError:
        raise ValueError(f"the 1/{p!r} power of {value!r} lies beyond the float range") from None


@functools.cache
def _pstar() -> float:
    return solve_pstar().value


def verify_mrtt(p: float, trials: int = 100, seed: int = 0) -> VerificationReport:
    """Sharp two-sided bounds on r = ||X - EX||_p / ||X - EX||_1 for
    exponential sums: r >= Gamma(p+1)^(1/p) on -1 < p <= 1, r <= the same
    on 1 <= p <= p*, and r <= kappa (E|E-1|^p)^(1/p) with kappa = e/2
    beyond the crossing p*.  A root that leaves the float range, as at
    tiny p, is a ValueError."""
    p = float(p)
    if p <= -1.0 or p == 0.0:
        raise ValueError("verify_mrtt requires p > -1, p != 0")
    _check_trials("verify_mrtt", trials)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    pstar = _pstar()
    report = VerificationReport(
        suite="mrtt", params={"p": p, "seed": seed, "pstar": pstar}, trials=trials
    )
    report.notes.append(_KAPPA_NOTE)
    gauge = math.exp(loggamma(p + 1.0) / p)
    shifted_gauge = L1_SCALE * _root(centered_exp_abs_moment(p), p)
    for trial in range(trials):
        n = int(rng.integers(1, 6))
        w = _distinct_weights(rng, n)
        model = GammaSumModel.of(w)
        mean = model.mean_variance()[0]
        num = engines.moment(model, MomentQuery(p=p, shift=mean))
        den = engines.moment(model, MomentQuery(p=1.0, shift=mean))
        r = _root(num.value, p) / den.value
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


def verify_all_equal() -> VerificationReport:
    """n^(-p/2) Gamma(n+p) / Gamma(n) >= 2^(p/2) E|G|^p for n >= 1, p >= 2,
    at n = 1.._ALL_EQUAL_N_MAX and each p of _ALL_EQUAL_PS.

    The left side is the closed-form moment of a normalized Erlang-n;
    equality sits at (n, p) = (1, 2).
    """
    report = VerificationReport(
        suite="all-equal",
        params={"n_max": _ALL_EQUAL_N_MAX, "p_set": list(_ALL_EQUAL_PS)},
        trials=_ALL_EQUAL_N_MAX * len(_ALL_EQUAL_PS),
    )
    for n in range(1, _ALL_EQUAL_N_MAX + 1):
        for p in _ALL_EQUAL_PS:
            lhs = math.exp(loggamma(n + p) - loggamma(float(n)) - 0.5 * p * math.log(n))
            rhs = 2.0 ** (0.5 * p) * gaussian_abs_moment(p)
            if lhs < rhs * (1.0 - 1e-12):
                report.record_violation({"n": n, "p": p, "lhs": lhs, "rhs": rhs})
            if n == 1 and p == 2.0:
                equality_gap = abs(lhs - rhs)
    report.extra["equality_gap_n1_p2"] = equality_gap
    if equality_gap > 1e-12:
        report.record_violation({"equality_case": equality_gap})
    return report


def verify_gamma_extension(trials: int = 40, seed: int = 0) -> VerificationReport:
    """Gamma-shape generalization: ||X||_p >= ||G||_p sqrt(sum x_j^2 g_j),
    with the powers of _GAMMA_PS in turn, trial by trial, and
    _GAMMA_MC_COUNT samples wherever an engine samples.  Each trial goes
    through auto dispatch: integer shapes through the exact or density
    engine, fractional shapes at integer p through the exact engine
    where the moment is polynomial (even p, or weights of one sign) and
    through Monte Carlo otherwise.  Plus the shape identity
    E[X Phi(X)] = g E Phi(X + E) checked for Phi = |.|^p by two independent
    engines: the left side is a Gamma closed form and the right side keeps
    Monte Carlo at fractional shapes, where auto dispatch would take the
    exact engine."""
    _check_trials("verify_gamma_extension", trials)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    report = VerificationReport(
        suite="gamma", params={"p_set": list(_GAMMA_PS), "seed": seed}, trials=trials
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
        p = _GAMMA_PS[trial % len(_GAMMA_PS)]
        est = engines.moment(model, MomentQuery(p=p), seed=seed + trial, count=_GAMMA_MC_COUNT)
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
        for p in _GAMMA_PS:
            lhs = math.exp(loggamma(g + p + 1.0) - loggamma(g))
            aug = GammaSumModel.of([1.0, 1.0], [g, 1.0])
            engine = None if aug.integer_shapes else "montecarlo"
            est = engines.moment(aug, MomentQuery(p=p), engine=engine, seed=seed, count=_GAMMA_MC_COUNT)
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


def verify_claim(trials: int = 10_000, seed: int = 0) -> VerificationReport:
    """Randomized sweep of the product inequality behind the k = 2
    concavity case, on 2 to _CLAIM_N_MAX entries."""
    from .schur import claim_inequality_check

    _check_trials("verify_claim", trials)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    report = VerificationReport(suite="claim", params={"n_max": _CLAIM_N_MAX, "seed": seed}, trials=trials)
    for trial in range(trials):
        n = int(rng.integers(2, _CLAIM_N_MAX + 1))
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


def gradient(x, p: float, j: int) -> float:
    """d/dx_j E|S_x|^p = p E |S_x + x_j E|^(p-1) sgn(S_x + x_j E), p >= 2,
    on the density engine.

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
    est = engines.moment(model, MomentQuery(p=p - 1.0, signed=True), engine="density")
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


def _sphere_gradient(X: np.ndarray, p: float) -> np.ndarray:
    """gradient(X[b], p, j) for every row b of a (B, n) array and every j,
    as a (B, n) array, bit for bit.

    The augmented rows X[b] with X[b, j] once more, all B n of them, take
    the density closed form at p - 1, signed, with pole j doubled, in one
    pass (`engines._simple_pole_moments`); a row with a zero entry, and an
    augmented row the closed form does not keep (equal or nearly coincident
    coordinates, a result that is not finite, a poor bar), is left to
    `gradient`."""
    B, n = X.shape
    rows = np.repeat(X, n, axis=0)
    doubled = np.tile(np.arange(n), B)
    (value,), _, (ok,) = engines._simple_pole_moments(rows, [p - 1.0], doubled, signed=True)
    G = (p * value).reshape(B, n)
    ok = ok.reshape(B, n) & X.all(axis=1)[:, None]
    for b, j in zip(*np.nonzero(~ok)):
        G[b, j] = gradient(X[b], p, int(j))
    return G


def _row_dots(A: np.ndarray, C: np.ndarray) -> np.ndarray:
    """A[b].dot(C[b]) for every row b, bit for bit: a stacked matmul of
    (B, 1, n) by (B, n, 1) takes ndarray.dot's kernel on each row, where
    einsum and row sums of products add in other orders."""
    return np.matmul(A[:, None, :], C[:, :, None])[:, 0, 0]


def _normalized(Y: np.ndarray) -> np.ndarray:
    """Each row of Y over its Euclidean norm."""
    return Y / np.sqrt(_row_dots(Y, Y))[:, None]


def minimize_sphere(n: int, p: float, multistart: int = 8, seed: int = 0) -> MinimizeResult:
    """Projected gradient descent for E|S_x|^p on the unit sphere, p >= 2,
    from multistart random starts.

    Each step projects the gradient g onto the sphere's tangent space and
    scans a ladder of 40 steps along it, the first 1 / max(1, |g|) and
    each half the one before, renormalized onto the sphere, keeping the
    ladder's best point if it improves on the current one.  A start
    converges when |g| < _MINIMIZE_GRAD_TOL max(1, p E|S|^p), and stops
    when no point of the ladder improves (converged if |g| is below 1e-4
    of that scale) or after _MINIMIZE_MAX_ITER steps.  All starts still running step
    together: one gradient batch (`_sphere_gradient`) and one `moments`
    batch of every ladder per step.  Both batches are row by row what
    one call per point gives, so each start follows the path it would
    follow alone.  At the best point of the first start with the
    least value, the criticality certificate |p E|S|^p - p(p-1) E|S + x1 E
    + x2 E'|^(p-2)| is evaluated on the two largest-magnitude distinct
    coordinates and reported relative to the objective.
    """
    p = float(p)
    if p < 2.0 or n < 2:
        raise ValueError("minimize_sphere requires p >= 2 and n >= 2")
    if multistart < 1:
        raise ValueError("minimize_sphere requires multistart >= 1")
    X = np.array(
        [
            np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(start,)))).standard_normal(n)
            for start in range(multistart)
        ]
    )
    X = _normalized(X)
    vals = engines.moments(X, p)[0]
    converged = np.zeros(multistart, dtype=bool)
    iterations = np.full(multistart, _MINIMIZE_MAX_ITER)
    live = np.arange(multistart)
    for it in range(1, _MINIMIZE_MAX_ITER + 1):
        x = X[live]
        g = _sphere_gradient(x, p)
        gt = g - _row_dots(g, x)[:, None] * x
        gnorm = np.sqrt(_row_dots(gt, gt))
        # max(1.0, p |val|), as Python's max takes it
        scale = p * np.abs(vals[live])
        scale = np.where(scale > 1.0, scale, 1.0)
        small = gnorm < _MINIMIZE_GRAD_TOL * scale
        converged[live[small]] = True
        iterations[live[small]] = it
        live, x, gt, gnorm, scale = live[~small], x[~small], gt[~small], gnorm[~small], scale[~small]
        if not live.size:
            break
        # objective evaluations are closed-form cheap, so scan a whole
        # step ladder and keep the best point; plain Armijo accepts
        # valley-crossing steps here and ping-pongs.  The steps halve one
        # after another from 1 / max(1, gnorm)
        halvings = np.full((len(live), 40), 0.5)
        halvings[:, 0] = 1.0 / np.where(gnorm > 1.0, gnorm, 1.0)
        steps = np.multiply.accumulate(halvings, axis=1)
        ladder = _normalized((x[:, None, :] - steps[:, :, None] * gt[:, None, :]).reshape(-1, n))
        ladder_vals = engines.moments(ladder, p)[0].reshape(len(live), 40)
        # the first least value of each ladder, taken if below the start's;
        # a NaN never improves
        ladder_vals[np.isnan(ladder_vals)] = np.inf
        pick = np.argmin(ladder_vals, axis=1)
        least = ladder_vals[np.arange(len(live)), pick]
        better = least < vals[live]
        X[live[better]] = ladder.reshape(len(live), 40, n)[better, pick[better]]
        vals[live[better]] = least[better]
        stalled = live[~better]
        converged[stalled] = gnorm[~better] < 1e-4 * scale[~better]
        iterations[stalled] = it
        live = live[better]
        if not live.size:
            break
    starts = [
        {"start": start, "value": float(vals[start]), "converged": bool(converged[start]), "iterations": int(iterations[start])}
        for start in range(multistart)
    ]
    best = 0
    for start in range(1, multistart):
        if vals[start] < vals[best]:
            best = start
    x, val = X[best].copy(), float(vals[best])
    crux = _crux_residual(x, p, val)
    return MinimizeResult(
        x_min=x,
        value=val,
        crux_residual=crux,
        converged=bool(converged[best]),
        iterations=int(iterations[best]),
        starts=starts,
    )


def _crux_residual(x: np.ndarray, p: float, val: float) -> float | None:
    """|p E|S|^p - p(p-1) E|S + x1 E + x2 E'|^(p-2)| / (p E|S|^p) for the two
    largest-magnitude distinct coordinate values; None when all equal."""
    xs = x.tolist()
    vals = sorted(GammaSumModel.of(xs).weights, key=abs, reverse=True)
    if len(vals) < 2:
        return None
    model = GammaSumModel.of(xs + vals[:2])
    inner = engines.moment(model, MomentQuery(p=p - 2.0))
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


def logconvexity_probe(x) -> LogConvexityReport:
    """Second differences of p -> log(E|S_x|^p / E|G|^p) on the grid
    _LOGCONVEXITY_PS, for mean-zero weights.

    Sign-symmetric weight multisets make S_x a scale mixture of Gaussians,
    so log-convexity is provable there and the caller may assert it; for
    general mean-zero weights the report is observational only.
    """
    xs = [float(v) for v in x]
    if abs(sum(xs)) > 1e-12 * max(1.0, max(abs(v) for v in xs)):
        raise ValueError("probe requires mean-zero weights (sum x_j = 0)")
    p_grid = list(_LOGCONVEXITY_PS)
    model = GammaSumModel.of(xs)
    g = []
    for p in p_grid:
        est = engines.moment(model, MomentQuery(p=p))
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
