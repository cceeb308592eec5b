import math

import mpmath
import numpy as np
import pytest

from expmoments import schur
from expmoments.schur import (
    MajorizationPair,
    _draw_trials,
    _failure_f,
    c_p_constant,
    claim_inequality_check,
    f_k,
    f_k_mc,
    failure_profile,
    m_p,
    majorizes,
    mp_representation_check,
    ostrowski_differential,
    q_k,
    q_k_array,
    schur_scan,
    schur_sweep,
    t_transform,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_m_p_values():
    assert m_p([1.0], 2.0).value == pytest.approx(2.0)
    assert m_p([1.0, 4.0], 2.0).value == pytest.approx(14.0)
    # zero entries drop out
    assert m_p([1.0, 0.0, 4.0], 2.0).value == pytest.approx(14.0)
    a, b, p = 1.0, 2.0, 2.5
    closed = math.gamma(p + 1.0) * (b ** (p + 1) - a ** (p + 1)) / (b - a)
    assert m_p([a * a, b * b], p).value == pytest.approx(closed, rel=1e-11)


def test_m_p_rejections():
    with pytest.raises(ValueError):
        m_p([-1.0], 2.0)
    with pytest.raises(ValueError):
        m_p([1.0], -1.5)
    with pytest.raises(ValueError):
        m_p([0.0], -0.5)


_VECTOR_ENTRY_POINTS = [
    ("m_p", lambda x: m_p(x, 2.0)),
    ("f_k", lambda x: f_k(x, 1)),
    ("f_k", lambda x: f_k(x, 2)),
    ("f_k_mc", lambda x: f_k_mc(x, 1, count=10)),
    ("mp_representation_check", lambda x: mp_representation_check(x, 1.5)),
    ("ostrowski_differential", lambda x: ostrowski_differential(x, 1, 0, 1)),
]


@pytest.mark.parametrize("name,call", _VECTOR_ENTRY_POINTS)
@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_vector_entry_points_reject_negative_and_non_finite_entries(name, call, bad):
    with pytest.raises(ValueError, match=f"^{name} requires finite nonnegative entries"):
        call([bad, 1.0])


def test_q_k_values():
    assert q_k(0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
    assert q_k(1, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
    # leading Taylor term t^2/2 at tiny argument
    assert q_k(1, 1e-4) == pytest.approx(5e-9, rel=1e-3)
    with pytest.raises(ValueError):
        q_k(1, 0.0)
    with pytest.raises(ValueError):
        q_k(-1, 1.0)


def test_q_k_positivity_and_small_t_growth():
    for k in (0, 1, 2, 3, 5):
        for t in np.geomspace(1e-6, 50.0, 60):
            assert q_k(k, float(t)) > 0.0
        # Q_k(t)/t^(k+1) stays bounded by its limit 1/(k+1)! near zero
        for t in np.geomspace(1e-6, 1e-2, 10):
            ratio = q_k(k, float(t)) / float(t) ** (k + 1)
            assert 0.0 < ratio <= 1.0 / math.factorial(k + 1) + 1e-9


def test_q_k_series_direct_crossover_agreement():
    for k in (0, 1, 2, 3):
        t = k + 1.0
        assert q_k(k, t - 1e-9) == pytest.approx(q_k(k, t + 1e-9), rel=1e-7)


def test_q_k_array_matches_scalar():
    t = np.geomspace(1e-5, 30.0, 50)
    for k in (0, 2, 4):
        vec = q_k_array(k, t)
        for ti, vi in zip(t, vec):
            assert vi == pytest.approx(q_k(k, float(ti)), rel=1e-12)


def test_c_p_reflection_values():
    # oracle: (-1)^(k+1) Gamma(-p) via the reflection formula
    assert c_p_constant(0.5) == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-9)
    for p in (0.5, 1.5, 2.5, 3.3):
        k = math.floor(p)
        oracle = (-1.0) ** (k + 1) * math.pi / (math.sin(-math.pi * p) * math.gamma(1.0 + p))
        assert c_p_constant(p) == pytest.approx(oracle, rel=1e-9)
        assert c_p_constant(p) > 0.0
    with pytest.raises(ValueError):
        c_p_constant(2.0)


def test_c_p_power_representation_identity():
    # C_p^(-1) int Q_0(t x) t^(-p-1) dt = x^p; the tail splits into the
    # exact power integral minus a fast-decaying exponential piece
    from expmoments.quadrature import integrate, integrate_abs_power

    p = 0.5
    cp = c_p_constant(p)
    q_0 = np.vectorize(lambda t: q_k(0, t), otypes=[float])
    for x in (0.5, 2.0):
        def g(t, _x=x):
            return q_0(t * _x) / t

        head, _ = integrate_abs_power(g, -p, 0.0, 0.0, 1.0)
        power_tail = 1.0 / p  # int_1^inf t^(-p-1) dt
        exp_tail, _ = integrate(lambda t, _x=x: np.exp(-t * _x) * t ** (-p - 1.0), 1.0, math.inf)
        assert (head + power_tail - exp_tail) / cp == pytest.approx(x**p, rel=1e-6)


def test_f_k_closed_forms():
    assert f_k([1.0], 0) == pytest.approx(0.5)
    assert f_k([1.0], 1) == pytest.approx(0.5)
    assert f_k([0.0, 0.0], 0) == 0.0
    with pytest.raises(ValueError):
        f_k([1.0], 4)
    with pytest.raises(ValueError):
        f_k([-1.0], 0)


def test_f_k_closed_vs_monte_carlo():
    for k, x in ((0, [1.0]), (1, [0.5, 2.0]), (2, [1.0, 1.0]), (3, [0.3, 0.9, 1.5])):
        closed = f_k(x, k)
        est = f_k_mc(x, k, seed=21, count=400_000)
        assert abs(est.value - closed) <= max(3.0 * est.error, 1e-4)


def test_f_k_mc_positive_beyond_closed_range():
    est = f_k_mc([0.5], 5, seed=2, count=100_000)
    assert est.value > 0.0


def test_mp_representation_residuals():
    assert mp_representation_check([1.0], 1.5) < 1e-4
    assert mp_representation_check([1.0, 1.0], 0.5) < 1e-4
    assert mp_representation_check([2.0, 3.0], 2.5) < 1e-4
    assert mp_representation_check([0.4, 1.1, 2.2], 3.5) < 1e-4
    with pytest.raises(ValueError):
        mp_representation_check([1.0], 2.0)
    with pytest.raises(ValueError):
        mp_representation_check([1.0], 4.5)


def test_t_transform_and_majorization():
    assert t_transform([1.0, 0.0], 0, 1, 0.5) == [0.5, 0.5]
    x = [3.0, 1.0, 2.0]
    assert t_transform(x, 0, 2, 1.0) == x
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        x = [float(v) for v in rng.uniform(0, 2, n)]
        i, j = rng.permutation(n)[:2]
        lam = float(rng.uniform(0, 1))
        y = t_transform(x, int(i), int(j), lam)
        assert majorizes(x, y)
        assert sum(y) == pytest.approx(sum(x), rel=1e-14)
    with pytest.raises(ValueError):
        t_transform([1.0, 2.0], 0, 0, 0.5)
    with pytest.raises(ValueError):
        t_transform([1.0, 2.0], 0, 1, 1.5)


def test_majorization_pair_type():
    pair = MajorizationPair((1.0, 0.0), (0.5, 0.5))
    assert pair.x == (1.0, 0.0)
    with pytest.raises(ValueError):
        MajorizationPair((0.5, 0.5), (1.0, 0.0))
    with pytest.raises(ValueError):
        MajorizationPair((1.0, -0.5), (0.25, 0.25))
    for x, y in (((math.nan,), (1.0,)), ((1.0, 0.0), (math.nan, 0.5)), ((math.inf, 1.0), (math.inf, 1.0)),
                 ((1.0, 0.0), (0.5, 0.5, math.nan))):
        assert not majorizes(x, y)
        with pytest.raises(ValueError):
            MajorizationPair(x, y)


def test_schur_scan_known_phases():
    assert schur_scan(-0.5, 2, trials=300, seed=1).verdict == "convex"
    assert schur_scan(2.0, 3, trials=300, seed=1).verdict == "concave"
    res = schur_scan(5.0, 2, trials=300, seed=1)
    assert res.verdict == "neither"
    assert res.convex_examples and res.concave_examples


def test_schur_scan_concave_example_pair():
    # M_2(1, 0) = 2 against M_2(1/2, 1/2) = 3: the concave direction
    assert m_p([1.0, 0.0], 2.0).value == pytest.approx(2.0)
    assert m_p([0.5, 0.5], 2.0).value == pytest.approx(3.0)


def test_schur_scan_rejections():
    with pytest.raises(ValueError):
        schur_scan(2.0, 1, trials=10)
    with pytest.raises(ValueError):
        schur_scan(-1.5, 2, trials=10)
    with pytest.raises(ValueError):
        schur_scan(2.0, 2, trials=-1)


def _generator(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _trials(n, trials, seed):
    """(x, y, i, j, lam) of each trial the scan at (seed, n, trials) draws,
    y by the scalar t_transform."""
    xs, ij, lam = _draw_trials(_generator(seed), n, trials)
    return [(x, t_transform(x, i, j, t), i, j, t) for x, (i, j), t in zip(xs.tolist(), ij.tolist(), lam.tolist())]


def _five_sigma(count, total, share):
    """count of total is within five binomial sigma of share."""
    return abs(count - total * share) <= 5.0 * math.sqrt(total * share * (1.0 - share))


@pytest.mark.parametrize("n", range(2, 9))
def test_draw_trials_distribution(n):
    trials = 30_000
    xs, ij, lam = _draw_trials(_generator(n), n, trials)
    assert xs.dtype == lam.dtype == np.float64 and ij.dtype == np.dtype(int)
    assert xs.shape == (trials, n) and ij.shape == (trials, 2) and lam.shape == (trials,)
    for part, again in zip((xs, ij, lam), _draw_trials(_generator(n), n, trials)):
        assert part.tobytes() == again.tobytes()
    rows = np.arange(trials)

    # style 2: a and 1 - a, zeros elsewhere; the sum of two floats is 1
    # within an ulp, which no other style reaches
    two = (np.count_nonzero(xs, axis=1) == 2) & (np.abs(xs.sum(axis=1) - 1.0) <= 2.0**-52)
    assert _five_sigma(np.count_nonzero(two), trials, 1.0 / 3.0)
    x2 = xs[two]
    # 1 - a >= 1/2 >= a
    at_rest, at_a = np.argsort(-x2, axis=1)[:, :2].T
    a = x2[np.arange(x2.shape[0]), at_a]
    assert np.all((2e-3 <= a) & (a <= 0.5))
    # log-uniform: the quarters of [log 2e-3, log 0.5] take a quarter each
    quarter = np.floor(4.0 * np.log(a / 2e-3) / math.log(0.5 / 2e-3)).astype(int)
    for q in range(4):
        assert _five_sigma(np.count_nonzero(quarter == q), a.size, 0.25)
    cells = np.bincount(at_a * n + at_rest, minlength=n * n).reshape(n, n)
    assert np.all(np.diag(cells) == 0)
    for c in cells[~np.eye(n, dtype=bool)]:
        assert _five_sigma(c, a.size, 1.0 / (n * (n - 1)))
    # the pair is the two active entries, in either order
    i2, j2 = ij[two].T
    assert np.all(((i2 == at_a) & (j2 == at_rest)) | ((i2 == at_rest) & (j2 == at_a)))
    assert _five_sigma(np.count_nonzero(i2 == at_a), a.size, 0.5)

    # styles 0 and 1: U[0, 1)^n, or within 10% of a level in [0.2, 2)
    x01 = xs[~two]
    lo, hi = x01.min(axis=1), x01.max(axis=1)
    assert np.all((0.0 <= lo) & ((hi < 1.0) | ((lo >= 0.18) & (hi < 2.2) & (hi * 0.9 <= lo * 1.1))))
    # half of each: the mean entry is (0.5 + 1.1) / 2, jitter and level
    # independent
    means = x01.mean(axis=1)
    assert abs(means.mean() - 0.8) <= 5.0 * means.std() / math.sqrt(means.size)
    # every entry is active, and the pair is uniform over ordered pairs
    i01, j01 = ij[~two].T
    cells = np.bincount(i01 * n + j01, minlength=n * n).reshape(n, n)
    assert np.all(np.diag(cells) == 0)
    for c in cells[~np.eye(n, dtype=bool)]:
        assert _five_sigma(c, means.size, 1.0 / (n * (n - 1)))

    assert np.all(ij[:, 0] != ij[:, 1])
    assert np.all(xs[rows, ij[:, 0]] > 1e-9) and np.all(xs[rows, ij[:, 1]] > 1e-9)
    assert np.all((0.0 <= lam) & (lam < 1.0))
    assert abs(lam.mean() - 0.5) <= 5.0 * math.sqrt(1.0 / 12.0 / trials)


class _TinyUniforms:
    """A Generator whose styles are all 0 and whose first random((trials, n))
    leaves row t with t % 3 entries above 1e-9."""

    def __init__(self, rng):
        self._rng = rng
        self.first = None

    def integers(self, high, size):
        return np.zeros(size, dtype=int)

    def random(self, size):
        out = self._rng.random(size)
        if self.first is None:
            for t, row in enumerate(out):
                row[t % 3:] *= 1e-9
            self.first = out.copy()
        return out

    def uniform(self, low, high, size):
        return self._rng.uniform(low, high, size)


def test_draw_trials_redraws_vectors_with_fewer_than_two_active_entries():
    stub = _TinyUniforms(_generator(0))
    xs, ij, _ = _draw_trials(stub, 4, 9)
    redrawn = np.arange(9) % 3 < 2
    assert np.all((0.1 <= xs[redrawn]) & (xs[redrawn] < 1.0))
    assert xs[~redrawn].tobytes() == stub.first[~redrawn].tobytes()
    # the kept rows' pair is their two entries above 1e-9
    assert sorted(map(sorted, ij[~redrawn].tolist())) == [[0, 1]] * 3
    assert np.all(ij[:, 0] != ij[:, 1])


# criterion 8's expected verdict at each p, for n = 2, 3 and 4
_PHASES = {-0.75: "convex", -0.25: "convex", 0.5: "concave", 2.0: "concave", 3.9: "concave",
           4.5: "neither", 5.0: "neither", 6.0: "neither"}


def test_criterion_8_verdicts_hold_on_other_seeds():
    for seed in range(10):
        for n in (2, 3, 4):
            for res in schur_sweep(list(_PHASES), n, 500, seed=seed):
                assert res.verdict == _PHASES[res.p], (res.p, n, seed)


def test_schur_sweep_is_criterion_8_scan_by_scan():
    ps = list(_PHASES)
    for n in (2, 3, 4):
        results = list(schur_sweep(ps, n, 500, seed=8))
        assert [res.p for res in results] == ps
        for p, res in zip(ps, results):
            ref = schur_scan(p, n, 500, seed=8)
            assert res.to_dict() == ref.to_dict() and res.rows == ref.rows
        # the rows are read-only, and every read builds its own row and
        # vectors, so changing one changes no scan
        row = results[0].rows[0]
        row["x"].append(-1.0)
        with pytest.raises(TypeError):
            results[0].rows[0] = row
        assert not hasattr(results[0].rows, "append")
        assert results[0].rows[0] != row and results[0].rows == schur_scan(ps[0], n, 500, seed=8).rows
        assert results[1].rows == schur_scan(ps[1], n, 500, seed=8).rows
    with pytest.raises(ValueError):
        schur_sweep([2.0, -1.5], 2, 10)


def test_schur_scan_without_trials_and_with_one():
    res = schur_scan(2.0, 5, trials=0, seed=3)
    assert res.verdict == "inconclusive" and res.rows == []
    assert res.convex_evidence == res.concave_evidence == res.within_budget == 0
    assert res.convex_examples == res.concave_examples == []
    res = schur_scan(2.0, 5, trials=1, seed=3)
    ((x, y, i, j, lam),) = _trials(5, 1, 3)
    (row,) = res.rows
    assert (row["trial"], row["x"], row["y"], row["i"], row["j"], row["lam"]) == (0, x, y, i, j, lam)
    assert row["mp_x"] == m_p(x, 2.0).value and row["mp_y"] == m_p(y, 2.0).value
    assert res.within_budget + res.convex_evidence + res.concave_evidence == 1


def _reference_scan(p, n, trials, seed):
    """The scan one trial at a time: scalar m_p on each side of every pair."""
    rows = []
    examples = {"convex": [], "concave": []}
    for x, y, i, j, lam in _trials(n, trials, seed):
        mx = m_p(x, p)
        my = m_p(y, p)
        budget = 3.0 * (mx.error + my.error) + 1e-13 * max(abs(mx.value), abs(my.value))
        gap = mx.value - my.value
        kind = "convex" if gap > budget else "concave" if gap < -budget else "within-budget"
        if kind in examples and len(examples[kind]) < 3:
            examples[kind].append({"x": x, "y": y, "mp_x": mx.value, "mp_y": my.value})
        rows.append({"x": x, "y": y, "i": i, "j": j, "lam": lam, "mx": mx, "my": my, "contribution": kind})
    return rows, examples


@pytest.mark.parametrize("p,n", [(-0.75, 2), (0.5, 4), (2.0, 3), (3.9, 2), (4.5, 3), (6.0, 4)])
def test_schur_scan_matches_scalar_reference(p, n):
    res = schur_scan(p, n, trials=100, seed=8)
    rows, examples = _reference_scan(p, n, trials=100, seed=8)
    for got, ref in zip(res.rows, rows, strict=True):
        for key in ("x", "y", "i", "j", "lam", "contribution"):
            assert got[key] == ref[key]
        for side in ("x", "y"):
            est = ref[f"m{side}"]
            if est.engine == "exact":
                assert got[f"mp_{side}"] == est.value and got[f"err_{side}"] == 0.0
            else:
                assert abs(got[f"mp_{side}"] - est.value) <= est.error
    assert res.convex_examples == examples["convex"]
    assert res.concave_examples == examples["concave"]
    assert res.convex_evidence == sum(r["contribution"] == "convex" for r in rows)
    assert res.concave_evidence == sum(r["contribution"] == "concave" for r in rows)
    assert res.within_budget == sum(r["contribution"] == "within-budget" for r in rows)


def test_failure_profile_p5():
    prof = failure_profile(5.0)
    assert not prof.monotone_regime
    assert prof.f_at_zero == pytest.approx(1.0)
    assert prof.f_at_right == pytest.approx(6.0 * 2.0**-2.5, rel=1e-12)
    assert prof.critical_point is not None and 0.0 < prof.critical_point < INV_SQRT2
    assert prof.critical_value > max(prof.f_at_zero, prof.f_at_right)
    assert prof.d1_at_zero == pytest.approx(1.0, abs=1e-6)
    assert prof.d1_at_right == pytest.approx(0.0, abs=1e-5)
    closed = (1.0 / 3.0) * 2.0 ** (1.0 - 2.5) * 5.0 * 6.0 * 1.0
    assert prof.d2_at_right == pytest.approx(closed, rel=1e-4)


def test_failure_profile_monotone_regime():
    prof = failure_profile(3.0)
    assert prof.monotone_regime
    assert prof.critical_point is None
    assert prof.monotone_increasing


@pytest.mark.parametrize("p", [3.0, 5.0])
def test_failure_profile_on_two_grid_points(monkeypatch, p):
    monkeypatch.setattr(schur, "_FAILURE_GRID", 2)
    prof = failure_profile(p)
    assert prof.f_at_right == pytest.approx((p + 1.0) * 2.0 ** (-p / 2.0), rel=1e-12)


def test_failure_profile_just_above_threshold():
    prof = failure_profile(4.5)
    assert prof.critical_point is not None
    assert prof.critical_value > prof.f_at_right


def test_failure_profile_finds_a_maximum_in_the_first_cell():
    # at p = 2000, f' turns negative before the first grid point past 0
    prof = failure_profile(2000.0)
    assert prof.fprime[0] > 0.0 >= prof.fprime[1]
    assert not prof.monotone_increasing
    assert prof.critical_point is not None and 0.0 < prof.critical_point < prof.xs[1]
    assert prof.critical_value > max(prof.f[0], prof.f[1])
    # a maximum further in is found as before
    assert failure_profile(500.0).critical_point == 0.0020040201208179256


def _profile_mp(p):
    """f(v) = (a^(p+1) - v^(p+1)) / (a - v), a = sqrt(1 - v^2), in mpmath."""
    p = mpmath.mpf(p)

    def f(v):
        a = mpmath.sqrt(1 - v * v)
        return (a ** (p + 1) - v ** (p + 1)) / (a - v)

    return f


@pytest.mark.parametrize("p", [-0.5, 0.5, 3.0, 4.0, 5.0, 8.0])
def test_failure_derivatives_match_finite_differences(p):
    # the stencils the profile once used for its endpoint derivatives, here
    # the reference for the analytic f' and f'' at interior points on both
    # sides of the switch to the near-diagonal expansion
    def f(v):
        return _failure_f(v, p)[0]

    for v in (0.05, 0.2, 0.4, 0.6, 0.65, 0.69, 0.7):
        _, d1, d2 = _failure_f(v, p)
        h = 1e-5
        forward = (-3.0 * f(v) + 4.0 * f(v + h) - f(v + 2.0 * h)) / (2.0 * h)
        h = 1e-4
        backward = (3.0 * f(v) - 4.0 * f(v - h) + f(v - 2.0 * h)) / (2.0 * h)
        h = 1e-3
        second = (
            35.0 / 12.0 * f(v) - 26.0 / 3.0 * f(v - h) + 19.0 / 2.0 * f(v - 2.0 * h)
            - 14.0 / 3.0 * f(v - 3.0 * h) + 11.0 / 12.0 * f(v - 4.0 * h)
        ) / (h * h)
        assert abs(forward - d1) <= 1e-7 * max(1.0, abs(d1)), (v, forward, d1)
        assert abs(backward - d1) <= 1e-5 * max(1.0, abs(d1)), (v, backward, d1)
        assert abs(second - d2) <= 1e-3 * max(1.0, abs(d2)), (v, second, d2)


@pytest.mark.parametrize("p", [-0.99, -0.5, 0.5, 3.0, 4.0, 4.5, 5.0, 8.0, 30.5])
def test_failure_derivatives_continuous_across_the_expansion_switch(p):
    # the expansion takes over where (|p| + 2) |a - b| < a + b, that is
    # above b/a = (1 - s)/(1 + s) with s = 1/(|p| + 2); 65 consecutive
    # floats there straddle the switch
    s = 1.0 / (abs(p) + 2.0)
    ratio = (1.0 - s) / (1.0 + s)
    vs = [ratio / math.sqrt(1.0 + ratio * ratio)]
    for _ in range(32):
        vs.insert(0, math.nextafter(vs[0], 0.0))
        vs.append(math.nextafter(vs[-1], 1.0))
    gap = [(abs(p) + 2.0) * (math.sqrt(1.0 - v * v) - v) / (math.sqrt(1.0 - v * v) + v) for v in (vs[0], vs[-1])]
    assert gap[0] > 1.0 > gap[1]
    values = np.array([_failure_f(v, p) for v in vs])
    jumps = np.abs(np.diff(values, axis=0)).max(axis=0)
    assert (jumps <= 1e-12 * np.maximum(1.0, np.abs(values).max(axis=0))).all(), jumps
    # and each side, and points within 1e-7 of 1/sqrt(2), against mpmath
    f = _profile_mp(p)
    with mpmath.workdps(50):
        for v in (vs[0], vs[-1], INV_SQRT2 - 1e-7, INV_SQRT2 - 1e-9, INV_SQRT2):
            ref = [float(mpmath.diff(f, mpmath.mpf(v), k)) for k in (0, 1, 2)]
            got = _failure_f(v, p)
            assert got[0] == pytest.approx(ref[0], rel=1e-13), v
            # f' vanishes at 1/sqrt(2): an absolute bound on its scale there
            assert abs(got[1] - ref[1]) <= 1e-13 * max(1.0, abs(ref[2])), v
            assert got[2] == pytest.approx(ref[2], rel=1e-12, abs=1e-14), v


@pytest.mark.parametrize("p, root", [(4.5, 0.39218328728877327), (5.0, 0.30433389954802054),
                                     (8.0, 0.14879661054636744)])
def test_failure_critical_point_against_mpmath(p, root):
    f = _profile_mp(p)
    with mpmath.workdps(50):
        ref = mpmath.findroot(lambda v: mpmath.diff(f, v), mpmath.mpf(root))
        value = f(ref)
    assert abs(float(ref) - root) < 1e-15
    prof = failure_profile(p)
    assert abs(prof.critical_point - float(ref)) <= 1e-12
    assert prof.critical_value == pytest.approx(float(value), rel=1e-15)


def test_failure_profile_endpoint_derivatives():
    # f'(0) = 1 for p > 0, f'(1/sqrt(2)) = 0, and f''(1/sqrt(2)) is the
    # closed form (1/3) 2^(1-p/2) p (p+1) (p-4)
    for p in (0.5, 3.0, 4.5, 5.0, 8.0):
        prof = failure_profile(p)
        assert prof.d1_at_zero == 1.0
        assert abs(prof.d1_at_right) <= 1e-15
        closed = 2.0 ** (1.0 - 0.5 * p) * p * (p + 1.0) * (p - 4.0) / 3.0
        assert prof.d2_at_right == pytest.approx(closed, rel=1e-14)
        assert prof.fprime[0] == prof.d1_at_zero and prof.fprime[-1] == prof.d1_at_right
    assert abs(failure_profile(4.0).d2_at_right) <= 1e-14


def test_failure_profile_below_p_zero():
    # the v^(p+1) term sends f'(0) to -inf; nothing raises
    prof = failure_profile(-0.5)
    assert prof.d1_at_zero == -math.inf
    assert np.isfinite(prof.fprime[1:]).all() and np.isfinite(prof.f).all()
    assert prof.monotone_regime and prof.critical_point is None


def test_failure_profile_at_p_zero():
    # f = (a - b)/(a - b) = 1
    prof = failure_profile(0.0)
    assert (prof.f == 1.0).all() and (prof.fprime == 0.0).all()
    assert prof.d1_at_zero == prof.d1_at_right == prof.d2_at_right == 0.0
    assert prof.monotone_increasing and prof.critical_point is None


def test_ostrowski_symmetry_and_sign():
    assert ostrowski_differential([2.0, 2.0, 1.0], 1, 0, 1) == 0.0
    val = ostrowski_differential([4.0, 1.0], 0, 0, 1)
    b1, b2 = 2.0, 1.0
    P = 1.0 / ((1.0 + b1) * (1.0 + b2))
    expected = (b2 - b1) * (1.0 + b1 + b2) / (2.0 * b1 * b2 * (1.0 + b1) * (1.0 + b2)) * P
    assert val == pytest.approx(expected, rel=1e-12)
    assert val < 0.0
    with pytest.raises(ValueError):
        ostrowski_differential([1.0, 0.0], 0, 0, 1)


def test_ostrowski_matches_finite_differences():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        x = [float(v) for v in rng.uniform(0.05, 3.0, n)]
        i, j = (int(v) for v in rng.permutation(n)[:2])
        for k in (0, 1, 2, 3):
            h = 1e-6
            def d(idx):
                xp = list(x)
                xm = list(x)
                xp[idx] += h
                xm[idx] -= h
                return (f_k(xp, k) - f_k(xm, k)) / (2.0 * h)

            fd = d(i) - d(j)
            val = ostrowski_differential(x, k, i, j)
            assert val == pytest.approx(fd, rel=2e-6, abs=2e-8)


def test_ostrowski_concavity_certificate_sweep():
    # nonpositive differentials whenever x_i > x_j, across the orthant
    rng = np.random.default_rng(31)
    for _ in range(10_000):
        n = int(rng.integers(2, 7))
        x = [float(v) for v in np.exp(rng.uniform(math.log(1e-3), math.log(10.0), n))]
        i, j = (int(v) for v in rng.permutation(n)[:2])
        if x[i] == x[j]:
            continue
        if x[i] < x[j]:
            i, j = j, i
        for k in (0, 1, 2, 3):
            assert ostrowski_differential(x, k, i, j) <= 0.0


def test_claim_inequality():
    assert claim_inequality_check([0.1, 0.1])
    assert claim_inequality_check([0.9, 0.8])  # sum >= 1 branch
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        b = [float(v) for v in np.exp(rng.uniform(math.log(1e-3), math.log(3.0), n))]
        assert claim_inequality_check(b)
    with pytest.raises(ValueError):
        claim_inequality_check([0.5])
