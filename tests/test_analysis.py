import hashlib
import math

import numpy as np
import pytest

from expmoments import analysis
from expmoments.analysis import (
    L1_SCALE,
    brent_root,
    centered_exp_abs_moment,
    gradient,
    laplace_abs_moment,
    logconvexity_probe,
    minimize_sphere,
    solve_p0,
    solve_pstar,
    tang_density_check,
    verify_all_equal,
    verify_claim,
    verify_gamma_extension,
    verify_hunter_exact,
    verify_mrtt,
    verify_stepII_bound,
    verify_theorem1,
    verify_theorem1_sweep,
)
from expmoments.engines import moment
from expmoments.model import GammaSumModel, MomentQuery
from expmoments.quadrature import integrate_abs_power
from expmoments.specialfn import gaussian_abs_moment, loggamma


def test_laplace_abs_moment():
    assert laplace_abs_moment(1.0) == pytest.approx(1.0)
    assert laplace_abs_moment(2.0) == pytest.approx(2.0)
    assert laplace_abs_moment(0.5) == pytest.approx(math.gamma(1.5), rel=1e-12)
    with pytest.raises(ValueError):
        laplace_abs_moment(-1.0)


def test_laplace_duplication_cross_check():
    for p in (0.5, 1.0, 1.5, 3.0):
        rhs = 2.0 ** (0.5 * p) * math.exp(loggamma(0.5 * p + 1.0)) * gaussian_abs_moment(p)
        assert laplace_abs_moment(p) == pytest.approx(rhs, rel=1e-12)


def test_centered_exp_abs_moment_values():
    assert centered_exp_abs_moment(1.0) == pytest.approx(2.0 / math.e, rel=1e-14)
    assert centered_exp_abs_moment(2.0) == pytest.approx(1.0, rel=1e-13)
    # frozen from the quadrature oracle int |t-1|^3 e^(-t) dt
    assert centered_exp_abs_moment(3.0) == pytest.approx(2.4145532940573079, rel=1e-12)
    # and int |t-1|^0.5 e^(-t) dt
    assert centered_exp_abs_moment(0.5) == pytest.approx(0.7879451591738777, rel=1e-12)
    with pytest.raises(ValueError):
        centered_exp_abs_moment(-1.0)


def test_centered_moment_against_quadrature():
    for p in (-0.5, 0.3, 1.7, 4.0):
        val, _ = integrate_abs_power(lambda t: np.exp(-t), p, 1.0, 0.0, math.inf)
        assert centered_exp_abs_moment(p) == pytest.approx(val, rel=1e-9)


def test_normalization_anchors():
    assert laplace_abs_moment(1.0) == 1.0
    assert L1_SCALE * centered_exp_abs_moment(1.0) == pytest.approx(1.0, rel=1e-15)


def test_brent_root_basic():
    res = brent_root(lambda x: x * x - 2.0, 0.0, 2.0)
    assert res.value == pytest.approx(math.sqrt(2.0), rel=1e-12)
    with pytest.raises(ValueError):
        brent_root(lambda x: 1.0 + x * x, -1.0, 1.0)


def test_solve_pstar():
    res = solve_pstar()
    assert abs(res.value - 2.9414) < 5e-3
    assert res.residual < 1e-10
    assert res.bracket == (2.0, 4.0)
    # same root from a perturbed bracket
    assert solve_pstar((2.1, 3.9)).value == pytest.approx(res.value, abs=1e-8)


def test_solve_p0():
    res = solve_p0()
    assert abs(res.value - (-0.565)) < 5e-3
    assert res.residual < 1e-10
    assert solve_p0((-0.9, -0.1)).value == pytest.approx(res.value, abs=1e-8)
    # both sides agree at the root
    lhs = centered_exp_abs_moment(res.value)
    rhs = gaussian_abs_moment(res.value)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_p0_phase_endpoint():
    # at p = 2 both profiles equal 1 (unit variances)
    assert centered_exp_abs_moment(2.0) == pytest.approx(gaussian_abs_moment(2.0), rel=1e-13)


def test_verify_theorem1_passes_and_rejects_low_p():
    report = verify_theorem1(3.0, trials=120, seed=7)
    assert report.passed
    ratios = report.extra["balanced_ratios"]
    assert 1.0 - 1e-9 <= ratios[16] <= 1.1
    assert ratios[2] >= ratios[4] >= ratios[8] >= ratios[16] >= 1.0 - 1e-9
    with pytest.raises(ValueError):
        verify_theorem1(1.5, trials=10)


def test_verify_theorem1_pinned():
    # recorded when each trial made its own engines.moment call; the batch
    # gives the same numbers, so the report is unchanged
    assert verify_theorem1(p=3.0, trials=200, n_max=8, seed=7).to_dict() == {
        "suite": "theorem1",
        "params": {"p": 3.0, "n_max": 8, "seed": 7},
        "trials": 200,
        "violations": [],
        "pass": True,
        "notes": [],
        "extra": {
            "balanced_ratios": {
                2: 1.099542616505769,
                4: 1.0552217599412048,
                8: 1.0292917924150051,
                16: 1.0151163627951925,
            }
        },
    }


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_verify_theorem1_trials_are_the_scalar_moments(monkeypatch, p):
    # with E|G|^p inflated every trial is a violation, whose record carries
    # the batch's value and budget: each must be what moment gives its draw
    monkeypatch.setattr(analysis, "gaussian_abs_moment", lambda p: 1e6)
    report = verify_theorem1(p=p, trials=60, n_max=9, seed=3)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(3)))
    records = [v for v in report.violations if "trial" in v]
    assert len(records) == 60
    for trial, record in enumerate(records):
        w = analysis._distinct_weights(rng, int(rng.integers(1, 10)))
        est = moment(GammaSumModel.of(w), MomentQuery(p=p))
        assert record["trial"] == trial and record["weights"] == w
        assert record["lhs"] == est.value
        assert record["budget"] == 3.0 * est.error + 1e-12 * record["rhs"]


def test_verify_theorem1_sweep_is_criterion_7_report_by_report(monkeypatch):
    ps = [2.0, 2.5, 3.0, 4.0, 5.0, 6.0]
    reports = verify_theorem1_sweep(ps, trials=200, n_max=8, seed=7)
    assert [r.to_dict() for r in reports] == [
        verify_theorem1(p, trials=200, n_max=8, seed=7).to_dict() for p in ps
    ]
    # inflated E|G|^p: every trial is a violation, whose record is the
    # single-p report's, and no two reports share a weight list
    monkeypatch.setattr(analysis, "gaussian_abs_moment", lambda p: 1e6)
    reports = verify_theorem1_sweep([2.5, 3.5], trials=30, n_max=5, seed=2)
    assert [r.to_dict() for r in reports] == [
        verify_theorem1(p, trials=30, n_max=5, seed=2).to_dict() for p in (2.5, 3.5)
    ]
    assert reports[0].violations[0]["weights"] is not reports[1].violations[0]["weights"]
    with pytest.raises(ValueError):
        verify_theorem1_sweep([3.0, 1.5], trials=10)


def _digest(draws) -> str:
    return hashlib.sha256(repr(draws).encode()).hexdigest()


def test_distinct_weights_pinned():
    # recorded when the rejection tests ran on numpy scalars; the draws, and
    # the Generator calls that make them, are unchanged
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7)))
    draws = [analysis._distinct_weights(rng, int(rng.integers(1, 9))) for _ in range(200)]  # criterion 7
    assert draws[1] == [-0.06413009431255845, -0.39393514636137295, -0.44314877579845335, -0.4902608246917508,
                        -0.10984738823470686, 0.009096517915906599]
    assert _digest(draws) == "7858c0d92bde96e0b5ef4d42c316881f26b9e97e3143e7ab350e0caada1737b4"
    assert rng.random() == 0.125880708815428
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(14)))
    draws = []
    for _ in range(50):  # criterion 14
        n = int(rng.integers(1, 5))
        draws.append((analysis._distinct_weights(rng, n), float(rng.uniform(2.0, 5.0)), int(rng.integers(0, n))))
    assert draws[0] == ([-0.27810666633148684], 4.108217916746165, 0)
    assert _digest(draws) == "c9e6a957ebf39df66e0509c731121ac41addb26381ef56a924a869e246aee748"
    assert rng.random() == 0.5680332978918254
    # redraws for entries near zero, then for a close pair
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(3)))
    assert analysis._distinct_weights(rng, 4, -0.004, 0.004) == [
        -0.0017263906900096683, 0.0011883776566386003, 0.001569727973361243, -0.001658234007900103]
    assert rng.random() == 0.0014900835088361708
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(4)))
    w = analysis._distinct_weights(rng, 40)
    assert w[:3] == [-0.27244314982187334, 0.10111892707267, 0.697089676255972]
    assert _digest(w) == "d89c65fcf2ad03f634e29143445acaad0543393cfe721b24b021891bd88cbca4"
    assert rng.random() == 0.7842760222170254


def test_verify_theorem1_single_weight_edge():
    # ||E||_2 = sqrt(2) >= 1
    est = moment(GammaSumModel.of([1.0]), MomentQuery(p=2.0))
    assert est.value ** 0.5 >= gaussian_abs_moment(2.0) ** 0.5


def test_verify_hunter_exact():
    report = verify_hunter_exact(trials=300, seed=6)
    assert report.passed
    assert not report.violations


def test_verify_hunter_exact_records_the_rational_moments(monkeypatch):
    # with (ell-1)!! inflated every degree of every vector is a violation,
    # whose record must carry the rationals that Fraction arithmetic gives
    from fractions import Fraction

    from expmoments.model import chs

    monkeypatch.setattr(analysis, "gaussian_even_moment_exact", lambda ell: 10**9)
    report = verify_hunter_exact(trials=40, ell_set=(2, 6, 4), seed=2)
    # the draws: 40 lengths in 1..6, then every numerator on the nonzero
    # integers in [-9, 9], then every denominator in 1..9
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(2)))
    lengths = rng.integers(1, 7, 40).tolist()
    nums = [v + (v >= 0) for v in rng.integers(-9, 9, sum(lengths)).tolist()]
    dens = rng.integers(1, 10, sum(lengths)).tolist()
    expected = []
    for trial, n in enumerate(lengths):
        x = [Fraction(num, den) for num, den in zip(nums[:n], dens[:n])]
        del nums[:n], dens[:n]
        for ell in (2, 6, 4):
            lhs = math.factorial(ell) * chs(x, ell)
            expected.append({"trial": trial, "x": [str(v) for v in x], "ell": ell, "lhs": str(lhs)})
    assert report.violations == expected


def test_hunter_equality_adjacent_case():
    from expmoments.model import even_moment_exact

    # 2! h_2(1,-1) = 2 equals 1 * (sum of squares) = 2 exactly
    assert even_moment_exact([1, -1], 2) == 2


def test_verify_mrtt_branches():
    for p in (-0.5, 0.5, 1.0, 2.0, 4.0):
        report = verify_mrtt(p, trials=30, seed=3)
        assert report.passed, report.violations
    assert any("kappa" in note for note in verify_mrtt(0.5, trials=2, seed=0).notes)
    with pytest.raises(ValueError):
        verify_mrtt(0.0, trials=5)


def test_mrtt_extremiser_saturation():
    # the two-sided exponential saturates the lower branch at p = 1/2
    model = GammaSumModel.of([1.0, -1.0])
    num = moment(model, MomentQuery(p=0.5)).value
    den = moment(model, MomentQuery(p=1.0)).value
    r = num**2.0 / den
    assert r == pytest.approx(math.gamma(1.5) ** 2.0, rel=1e-9)
    # the shifted exponential saturates the upper branch at p = 4
    one = GammaSumModel.of([1.0])
    num = moment(one, MomentQuery(p=4.0, shift=1.0)).value ** 0.25
    den = moment(one, MomentQuery(p=1.0, shift=1.0)).value
    assert num / den == pytest.approx(
        L1_SCALE * centered_exp_abs_moment(4.0) ** 0.25, rel=1e-8
    )


def test_verify_all_equal():
    report = verify_all_equal(n_max=20, p_set=(2.0, 3.0, 4.0, 6.0))
    assert report.passed
    assert report.extra["equality_gap_n1_p2"] <= 1e-12


def test_all_equal_small_values():
    # n = 2, p = 2: 2^-1 Gamma(4)/Gamma(2) = 3 >= 2
    lhs = math.exp(loggamma(4.0) - loggamma(2.0)) / 2.0
    assert lhs == pytest.approx(3.0, rel=1e-14)
    assert lhs >= 2.0 ** (1.0) * gaussian_abs_moment(2.0)


def test_verify_gamma_extension():
    report = verify_gamma_extension(trials=16, seed=5, mc_count=150_000)
    assert report.passed, report.violations
    rows = report.extra["shape_identity"]
    assert all(row["ok"] for row in rows)
    # the worked example: shape 2, p = 2 gives E X^3 = 24 on both routes
    row = next(r for r in rows if r["shape"] == 2.0 and r["p"] == 2.0)
    assert row["lhs"] == pytest.approx(24.0, rel=1e-12)
    # the right side stays an engine independent of the Gamma closed form
    assert {r["engine"] for r in rows if not float(r["shape"]).is_integer()} == {"montecarlo"}


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: verify_gamma_extension(p_set=()), "verify_gamma_extension requires a nonempty p_set"),
        (lambda: logconvexity_probe([1, -1], p_grid=[2, 3]), "logconvexity_probe requires at least 3 points"),
        (lambda: verify_claim(n_max=1), "verify_claim requires n_max >= 2"),
        (lambda: verify_theorem1(3.0, trials=-1), "verify_theorem1 requires trials >= 0"),
        (lambda: verify_hunter_exact(trials=-1), "verify_hunter_exact requires trials >= 0"),
        (lambda: verify_mrtt(0.5, trials=-1), "verify_mrtt requires trials >= 0"),
        (lambda: verify_gamma_extension(trials=-1), "verify_gamma_extension requires trials >= 0"),
        (lambda: verify_claim(trials=-1), "verify_claim requires trials >= 0"),
        (lambda: verify_stepII_bound(trials=-1), "verify_stepII_bound requires trials >= 0"),
    ],
)
def test_degenerate_arguments_are_value_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_verify_claim_and_stepII():
    assert verify_claim(trials=2000, seed=0).passed
    assert verify_stepII_bound(trials=30, seed=0).passed


def test_gradient_single_weight():
    assert gradient([0.7], 2.0, 0) == pytest.approx(4.0 * 0.7, rel=1e-12)
    c, p = 1.3, 2.7
    assert gradient([c], p, 0) == pytest.approx(
        p * c ** (p - 1.0) * math.exp(loggamma(p + 1.0)), rel=1e-11
    )
    with pytest.raises(ValueError):
        gradient([1.0], 1.5, 0)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(14)
    for _ in range(15):
        n = int(rng.integers(1, 5))
        x = [float(v) for v in rng.uniform(0.2, 1.5, n) * rng.choice([-1.0, 1.0], n)]
        if any(
            abs(x[i] - x[j]) < 1e-3 for i in range(n) for j in range(i + 1, n)
        ):
            continue
        p = float(rng.uniform(2.0, 5.0))
        j = int(rng.integers(0, n))
        h = 1e-5
        xp, xm = list(x), list(x)
        xp[j] += h
        xm[j] -= h
        fd = (
            moment(GammaSumModel.of(xp), MomentQuery(p=p)).value
            - moment(GammaSumModel.of(xm), MomentQuery(p=p)).value
        ) / (2.0 * h)
        assert gradient(x, p, j) == pytest.approx(fd, rel=1e-3)


def test_minimize_sphere_balanced_pair():
    res = minimize_sphere(2, 3.0, multistart=8, seed=13)
    assert res.converged
    mags = sorted(abs(float(v)) for v in res.x_min)
    assert all(abs(m - 1.0 / math.sqrt(2.0)) < 1e-4 for m in mags)
    assert float(res.x_min[0]) * float(res.x_min[1]) < 0.0
    assert res.value == pytest.approx(math.gamma(4.0) / 2.0**1.5, rel=1e-6)
    assert res.crux_residual is not None and res.crux_residual < 1e-3
    assert res.value >= gaussian_abs_moment(3.0)
    with pytest.raises(ValueError, match="multistart"):
        minimize_sphere(2, 3.0, multistart=0, seed=13)


def test_minimize_sphere_pinned():
    # recorded when every point of the step ladder made its own
    # engines.moment call; the batch gives the same numbers, so the
    # minimizer takes the same path
    assert minimize_sphere(n=2, p=3.0, multistart=8, seed=13).to_dict() == {
        "x_min": [0.7071067876480701, -0.7071067747250248],
        "value": 2.1213203435596437,
        "crux_residual": 8.373826446313463e-16,
        "converged": True,
        "iterations": 12,
    }


def test_minimize_sphere_p2_mean_zero():
    res = minimize_sphere(2, 2.0, multistart=4, seed=1)
    assert abs(sum(float(v) for v in res.x_min)) < 1e-6
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_second_moment_expansion_exact():
    # E S_x^2 = sum x^2 + (sum x)^2 in exact arithmetic, the reduction
    # that makes the p = 2 minimizer check assertable
    from fractions import Fraction

    from expmoments.model import even_moment_exact

    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        x = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10))) for _ in range(n)]
        lhs = even_moment_exact(x, 2)
        rhs = sum(v * v for v in x) + sum(x) ** 2
        assert lhs == rhs


def test_minimize_sphere_rejections():
    with pytest.raises(ValueError):
        minimize_sphere(1, 3.0)
    with pytest.raises(ValueError):
        minimize_sphere(2, 1.0)


def test_logconvexity_symmetric_asserted():
    for n in (2, 4):
        x = [((-1.0) ** j) / math.sqrt(n) for j in range(n)]
        rep = logconvexity_probe(x)
        assert rep.symmetric and rep.asserted
        assert rep.min_second_difference >= -1e-9


def test_logconvexity_general_report_only():
    rep = logconvexity_probe([0.8, -0.5, -0.3])
    assert not rep.symmetric and not rep.asserted
    assert len(rep.second_differences) == len(rep.p_grid) - 2
    with pytest.raises(ValueError):
        logconvexity_probe([1.0, -0.5])


def test_tang_density_check():
    rep = tang_density_check([1.0])
    assert rep.density_at_mean == pytest.approx(1.0 / math.e, abs=1e-12)
    assert rep.meets_reference
    rep = tang_density_check([2**-0.5, 2**-0.5])
    assert rep.density_at_mean == pytest.approx(2.0 * math.sqrt(2.0) * math.exp(-2.0), rel=1e-12)
    assert rep.density_at_mean >= 1.0 / math.e
    assert "reported" in rep.note
    with pytest.raises(ValueError):
        tang_density_check([0.5, 0.5])


def test_tang_density_random_sweep_report_level():
    rng = np.random.default_rng(19)
    hits = 0
    for _ in range(20):
        n = int(rng.integers(1, 6))
        x = rng.uniform(0.05, 1.0, n)
        if len(set(np.round(x, 6))) < n:
            continue
        x = x / math.sqrt(float(np.sum(x * x)))
        rep = tang_density_check([float(v) for v in x])
        hits += rep.meets_reference
    assert hits >= 18  # report-level trend, not an assertion of the bound
