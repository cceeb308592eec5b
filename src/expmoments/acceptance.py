"""The acceptance battery: every exit criterion as a callable returning a
pass/fail record at its pinned tolerance.

Both the test suite and the ``reproduce`` CLI command run these; each
criterion is independent and deterministic under its built-in seeds.

Criterion 16's 200 seeded Monte Carlo runs are split by `_split_map`
between the process and one forked child, which computes the second half
and sends its results back through a pipe.  It forks only on Linux with
``os.fork``, at least two usable CPUs and no thread but the main one (so
never beside the Monte Carlo engine's worker threads); anywhere else, or
where the child fails, the runs are computed in the process.  Each run
keeps its seed, and the covered runs are counted in run order, so the
result line is byte-identical either way.  No other criterion forks.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

import numpy as np

from . import analysis, engines, schur
from .model import GammaSumModel, MomentQuery, chs, partial_fraction_density
from .quadrature import integral_iqs
from .specialfn import closed_integral_iqs, gaussian_abs_moment, psi

__all__ = ["CriterionResult", "CRITERIA", "run_battery"]


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] criterion {self.index:2d}: {self.name} - {self.detail}"

    def to_dict(self) -> dict:
        return {"index": self.index, "name": self.name, "pass": self.passed, "detail": self.detail}


def criterion_01_pstar() -> CriterionResult:
    t0 = time.perf_counter()
    res = analysis.solve_pstar()
    dt = time.perf_counter() - t0
    ok = abs(res.value - 2.9414) <= 5e-3 and dt < 1.0
    return CriterionResult(
        1, "pstar solver", ok, f"value={res.value:.6f} (target 2.9414 +- 5e-3), {dt:.3f}s"
    )


def criterion_02_p0() -> CriterionResult:
    t0 = time.perf_counter()
    res = analysis.solve_p0()
    dt = time.perf_counter() - t0
    ok = abs(res.value - (-0.565)) <= 5e-3 and dt < 1.0
    return CriterionResult(
        2, "p0 solver", ok, f"value={res.value:.6f} (target -0.565 +- 5e-3), {dt:.3f}s"
    )


def criterion_03_iqs() -> CriterionResult:
    worst = 0.0
    for q in (0.25, 0.75, 1.0, 1.25, 1.75):
        for s in (0.5, 1.0, 2.0, 10.0, 100.0):
            closed = closed_integral_iqs(q, s)
            quad, _ = integral_iqs(q, s)
            worst = max(worst, abs(closed - quad) / closed)
    # the q = 1, s = 1 cell is the arctangent integral; both routes must hit pi/2
    pi_gap = max(
        abs(closed_integral_iqs(1.0, 1.0) - 0.5 * math.pi),
        abs(integral_iqs(1.0, 1.0)[0] - 0.5 * math.pi),
    )
    ok = worst < 1e-8 and pi_gap < 1e-10
    return CriterionResult(
        3, "power-tail integral closed form vs quadrature", ok,
        f"worst rel err {worst:.2e} (< 1e-8), |I(1,1) - pi/2| = {pi_gap:.2e} (< 1e-10)",
    )


def criterion_04_fourier_laplace() -> CriterionResult:
    model = GammaSumModel.of([1.0, -1.0])
    worst = 0.0
    for p in (0.25, 0.75, 1.25, 1.75):
        est = engines.moment(model, MomentQuery(p=p), engine="fourier")
        truth = analysis.laplace_abs_moment(p)
        worst = max(worst, abs(est.value - truth) / truth)
    ok = worst < 1e-6
    return CriterionResult(
        4, "fourier engine vs Gamma(p+1) on the two-sided exponential", ok,
        f"worst rel err {worst:.2e} (< 1e-6)",
    )


def criterion_05_density_vs_exact() -> CriterionResult:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5)))
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        x = []
        while len(x) < n:
            num = int(rng.integers(-9, 10))
            den = int(rng.integers(1, 10))
            if num == 0:
                continue
            cand = Fraction(num, den)
            if all(abs(float(cand) - float(v)) > 0.05 * max(abs(float(cand)), abs(float(v))) for v in x):
                x.append(cand)
        model = GammaSumModel.of(x)
        pfd = partial_fraction_density(model)
        for ell in (2, 4, 6):
            exact = float(math.factorial(ell) * chs(x, ell))
            dens = pfd.power_moment_with_error(float(ell))[0]
            worst = max(worst, abs(dens - exact) / abs(exact))
    ok = worst < 1e-9
    return CriterionResult(
        5, "density engine vs exact polynomial moments", ok, f"worst rel err {worst:.2e} (< 1e-9)"
    )


def criterion_06_hunter() -> CriterionResult:
    report = analysis.verify_hunter_exact(trials=1000, seed=6)
    return CriterionResult(
        6, "exact rational lower-bound certificate", report.passed,
        f"{report.trials} vectors x degrees {{2,4,6,8}}, {len(report.violations)} violations",
    )


def criterion_07_theorem1() -> CriterionResult:
    details = []
    ok = True
    ps = (2.0, 2.5, 3.0, 4.0, 5.0, 6.0)
    for p, report in zip(ps, analysis.verify_theorem1_sweep(ps, trials=200, seed=7)):
        ok = ok and report.passed
        details.append(f"p={p}: {len(report.violations)} violations, n16 ratio {report.extra['balanced_ratios'][16]:.4f}")
    return CriterionResult(7, "Gaussian lower bound sweep", ok, "; ".join(details))


def criterion_08_phase_map() -> CriterionResult:
    expectations = {
        -0.75: "convex",
        -0.25: "convex",
        0.5: "concave",
        2.0: "concave",
        3.9: "concave",
        4.5: "neither",
        5.0: "neither",
        6.0: "neither",
    }
    verdicts = {}
    for n in (2, 3, 4):
        # each n's scans share their trials; map reads each ScanResult's
        # verdict and drops it before the next one is built
        scans = schur.schur_sweep(list(expectations), n, trials=500, seed=8)
        verdicts.update(zip([(p, n) for p in expectations], map(attrgetter("verdict"), scans)))
    bad = [
        f"p={p}, n={n}: got {verdicts[p, n]}, expected {expected}"
        for p, expected in expectations.items()
        for n in (2, 3, 4)
        if verdicts[p, n] != expected
    ]
    return CriterionResult(
        8, "Schur-monotonicity phase map", not bad, "; ".join(bad) if bad else "all verdicts match"
    )


def criterion_09_failure_profile() -> CriterionResult:
    prof = schur.failure_profile(5.0)
    closed_d2 = (1.0 / 3.0) * 2.0 ** (1.0 - 0.5 * 5.0) * 5.0 * 6.0 * 1.0
    checks = []
    ok = True
    if prof.critical_point is None or prof.critical_value is None:
        ok = False
        checks.append("no interior critical point found")
    else:
        cv = prof.critical_value
        edge = max(prof.f_at_zero, prof.f_at_right)
        if not cv > edge:
            ok = False
        checks.append(f"f(crit)={cv:.6f} > max(f(0), f(right))={edge:.6f}")
    d2_rel = abs(prof.d2_at_right - closed_d2) / closed_d2
    if d2_rel >= 1e-4:
        ok = False
    checks.append(f"f'' rel err {d2_rel:.2e} (< 1e-4)")
    d1_gap = abs(prof.d1_at_zero - 1.0)
    if d1_gap >= 1e-6:
        ok = False
    checks.append(f"|f'(0) - 1| = {d1_gap:.2e} (< 1e-6)")
    return CriterionResult(9, "p = 5 failure profile", ok, "; ".join(checks))


def criterion_10_all_equal() -> CriterionResult:
    report = analysis.verify_all_equal()
    gap = report.extra["equality_gap_n1_p2"]
    return CriterionResult(
        10, "equal-coefficient closed-form suite", report.passed,
        f"{len(report.violations)} violations; equality gap at (1,2) = {gap:.2e}",
    )


def criterion_11_representation() -> CriterionResult:
    cases = (((1.0,), 1.5), ((1.0, 1.0), 0.5), ((2.0, 3.0), 2.5))
    worst = 0.0
    for x, p in cases:
        worst = max(worst, schur.mp_representation_check(x, p))
    ok = worst < 1e-4
    return CriterionResult(
        11, "integral representation residual", ok, f"worst residual {worst:.2e} (< 1e-4)"
    )


def criterion_12_psi() -> CriterionResult:
    grid = np.geomspace(1e-2, 1e4, 200)
    ok = True
    details = []
    for beta in (0.1, 0.5, 1.0, 2.5):
        vals = [psi(beta, float(x)) for x in grid]
        monotone = all(a > b for a, b in zip(vals, vals[1:]))
        at_top = psi(beta, 1e4)
        in_band = 1.0 < at_top < 1.001
        ok = ok and monotone and in_band
        details.append(f"beta={beta}: decreasing={monotone}, psi(1e4)={at_top:.6f}")
    return CriterionResult(12, "psi monotonicity and limit", ok, "; ".join(details))


def criterion_13_minimizer() -> CriterionResult:
    res = analysis.minimize_sphere(n=2, p=3.0, multistart=8, seed=13)
    target = 1.0 / math.sqrt(2.0)
    mags = sorted(abs(float(v)) for v in res.x_min)
    coord_gap = max(abs(m - target) for m in mags)
    opposite = float(res.x_min[0]) * float(res.x_min[1]) < 0.0
    gauss3 = gaussian_abs_moment(3.0)
    ok = (
        coord_gap < 1e-4
        and opposite
        and res.crux_residual is not None
        and res.crux_residual < 1e-3
        and res.value >= gauss3
    )
    return CriterionResult(
        13, "sphere minimizer certificate", ok,
        f"coord gap {coord_gap:.2e} (< 1e-4), crux residual {res.crux_residual:.2e} (< 1e-3), "
        f"value {res.value:.6f} >= E|G|^3 {gauss3:.6f}",
    )


def criterion_14_gradient() -> CriterionResult:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(14)))
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        x = analysis._distinct_weights(rng, n)
        p = float(rng.uniform(2.0, 5.0))
        j = int(rng.integers(0, n))
        grad = analysis.gradient(x, p, j)
        h = 1e-5 * max(1.0, abs(x[j]))
        xp = list(x)
        xm = list(x)
        xp[j] += h
        xm[j] -= h
        up = engines.moment(GammaSumModel.of(xp), MomentQuery(p=p)).value
        dn = engines.moment(GammaSumModel.of(xm), MomentQuery(p=p)).value
        fd = (up - dn) / (2.0 * h)
        worst = max(worst, abs(grad - fd) / max(abs(fd), 1e-12))
    ok = worst < 1e-3
    return CriterionResult(
        14, "gradient identity vs finite differences", ok, f"worst rel err {worst:.2e} (< 1e-3)"
    )


def criterion_15_logconvexity() -> CriterionResult:
    ok = True
    details = []
    for n in (2, 4, 8):
        x = [((-1.0) ** j) / math.sqrt(n) for j in range(n)]
        rep = analysis.logconvexity_probe(x)
        good = rep.min_second_difference >= -1e-9
        ok = ok and good and rep.asserted
        details.append(f"n={n}: min second difference {rep.min_second_difference:.2e}")
    return CriterionResult(15, "log-convexity on sign-symmetric models", ok, "; ".join(details))


def _can_fork() -> bool:
    """Whether `_split_map` forks a child here: Linux with `os.fork`, two
    usable CPUs or more, and no thread but this one, since a forked child
    keeps only the calling thread."""
    return (
        hasattr(os, "fork")
        and sys.platform == "linux"
        and engines._usable_cpus() >= 2
        and threading.active_count() == 1
    )


def _split_map(fn, items) -> list:
    """``[fn(x) for x in items]``, the second half computed by a forked
    child where `_can_fork` holds.  The child pickles its results into a
    pipe and leaves by `os._exit`, so it flushes none of the caller's
    buffers and runs no atexit handler; the parent computes the first half,
    reads the pipe to its end and reaps the child, also when its own half
    raises.  Where the child fails, the parent computes that half itself,
    so an error is raised here with its own traceback."""
    items = list(items)
    if not _can_fork():
        return [fn(x) for x in items]
    half = len(items) // 2
    head, tail = items[:half], items[half:]
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            with open(wfd, "wb") as pipe:
                pickle.dump([fn(x) for x in tail], pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    try:
        with open(rfd, "rb") as pipe:
            first = [fn(x) for x in head]
            payload = pipe.read()
    finally:
        # the read end is closed, so a child still writing fails and exits
        _, wait_status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(wait_status) == 0:
        try:
            return first + pickle.loads(payload)
        except Exception:  # a payload that does not unpickle is computed below
            pass
    return first + [fn(x) for x in tail]


def _mc_honesty_run(run: int) -> tuple[float, float]:
    """Run `run` of criterion 16: Exp(1) + 2 Exp(1) at p = 2 by forced
    antithetic Monte Carlo, 50,000 samples at seed 1600 + run."""
    est = engines.moment(
        GammaSumModel.of([1.0, 2.0]), MomentQuery(p=2.0), engine="montecarlo", seed=1600 + run, count=50_000
    )
    return est.value, est.error


def criterion_16_mc_honesty() -> CriterionResult:
    truth = 14.0
    runs = 200
    covered = sum(abs(value - truth) <= error for value, error in _split_map(_mc_honesty_run, range(runs)))
    ok = covered >= 0.95 * runs
    return CriterionResult(
        16, "Monte Carlo interval honesty", ok, f"99% CI covered truth in {covered}/{runs} runs (>= 190)"
    )


CRITERIA = (
    criterion_01_pstar,
    criterion_02_p0,
    criterion_03_iqs,
    criterion_04_fourier_laplace,
    criterion_05_density_vs_exact,
    criterion_06_hunter,
    criterion_07_theorem1,
    criterion_08_phase_map,
    criterion_09_failure_profile,
    criterion_10_all_equal,
    criterion_11_representation,
    criterion_12_psi,
    criterion_13_minimizer,
    criterion_14_gradient,
    criterion_15_logconvexity,
    criterion_16_mc_honesty,
)


def run_battery(only=None) -> list[CriterionResult]:
    """Run all (or selected) criteria and return their results in order."""
    picked = set(only) if only else None
    out = []
    for idx, fn in enumerate(CRITERIA, start=1):
        if picked is not None and idx not in picked:
            continue
        out.append(fn())
    return out
