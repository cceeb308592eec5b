import math

import numpy as np
import pytest

from expmoments.schur import (
    MajorizationPair,
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
    for x in (0.5, 2.0):
        def g(t, _x=x):
            return q_k(0, t * _x) / t

        head, _ = integrate_abs_power(g, -p, 0.0, 0.0, 1.0)
        power_tail = 1.0 / p  # int_1^inf t^(-p-1) dt
        exp_tail, _ = integrate(lambda t, _x=x: math.exp(-t * _x) * t ** (-p - 1.0), 1.0, math.inf)
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


def _reference_scan_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    """A scan trial's vector as the scan first drew it, on numpy arrays,
    frozen here as the reference for the stream `schur_scan` draws on Python
    floats."""
    style = int(rng.integers(3))
    if style == 0:
        x = rng.uniform(0.0, 1.0, n)
    elif style == 1:
        x = rng.uniform(0.2, 2.0) * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, n))
    else:
        x = np.zeros(n)
        a = math.exp(rng.uniform(math.log(2e-3), math.log(0.5)))
        idx = rng.permutation(n)[:2]
        x[idx[0]] = a
        x[idx[1]] = 1.0 - a
    if np.count_nonzero(x > 1e-9) < 2:
        x = rng.uniform(0.1, 1.0, n)
    return x


def _reference_draws(n, trials, seed):
    """(x, y, i, j, lam) of each trial of the reference stream."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    draws = []
    for _ in range(trials):
        x = _reference_scan_vector(rng, n)
        active = np.flatnonzero(x > 1e-9)
        i, j = active[rng.permutation(active.size)[:2]].tolist()
        lam = float(rng.uniform(0.0, 1.0))
        draws.append((x.tolist(), t_transform(x.tolist(), i, j, lam), i, j, lam))
    return draws


def _reference_scan(p, n, trials, seed):
    """The scan one trial at a time: scalar m_p on each side of every pair."""
    rows = []
    examples = {"convex": [], "concave": []}
    for x, y, i, j, lam in _reference_draws(n, trials, seed):
        mx = m_p(x, p)
        my = m_p(y, p)
        budget = 3.0 * (mx.error + my.error) + 1e-13 * max(abs(mx.value), abs(my.value))
        gap = mx.value - my.value
        kind = "convex" if gap > budget else "concave" if gap < -budget else "within-budget"
        if kind in examples and len(examples[kind]) < 3:
            examples[kind].append({"x": x, "y": y, "mp_x": mx.value, "mp_y": my.value})
        rows.append({"x": x, "y": y, "i": i, "j": j, "lam": lam, "mx": mx, "my": my, "contribution": kind})
    return rows, examples


# criterion 8's 24 cells, n = 5, and two other seeds; the draws depend on
# (seed, n, trials) only, and each is checked at every p that uses it
_CRITERION_8 = [(p, n, 8) for p in (-0.75, -0.25, 0.5, 2.0, 3.9, 4.5, 5.0, 6.0) for n in (2, 3, 4)]
_DRAW_CELLS = _CRITERION_8 + [(2.0, 5, 8), (5.0, 5, 8), (2.0, 3, 0), (4.5, 5, 0), (0.5, 2, 2**31 - 1),
                              (6.0, 4, 2**31 - 1)]


def test_schur_scan_draws_the_reference_stream(monkeypatch):
    # the draws alone, bit for bit: every pair is in budget at zero moments
    from expmoments import engines

    def zero_moments(W, ps, cfg=None):
        return np.zeros((len(ps), len(W))), np.zeros((len(ps), len(W)))

    monkeypatch.setattr(engines, "moments", zero_moments)
    references = {}
    for p, n, seed in _DRAW_CELLS:
        ref = references.setdefault((n, seed), _reference_draws(n, 500, seed))
        res = schur_scan(p, n, 500, seed=seed)
        assert [(r["x"], r["y"], r["i"], r["j"], r["lam"]) for r in res.rows] == ref
    # the sweep draws them once for every p
    for (n, seed), ref in references.items():
        for res in schur_sweep([p for p, m, s in _DRAW_CELLS if (m, s) == (n, seed)], n, 500, seed=seed):
            assert [(r["x"], r["y"], r["i"], r["j"], r["lam"]) for r in res.rows] == ref


def test_schur_sweep_is_criterion_8_scan_by_scan():
    ps = [p for p, n, _ in _CRITERION_8 if n == 2]
    for n in (2, 3, 4):
        results = list(schur_sweep(ps, n, 500, seed=8))
        assert [res.p for res in results] == ps
        for p, res in zip(ps, results):
            ref = schur_scan(p, n, 500, seed=8)
            assert res.to_dict() == ref.to_dict() and res.rows == ref.rows
        # every scan owns its rows and their vectors
        results[0].rows[0]["x"].append(-1.0)
        results[0].rows.append(None)
        assert results[1].rows == schur_scan(ps[1], n, 500, seed=8).rows
    with pytest.raises(ValueError):
        schur_sweep([2.0, -1.5], 2, 10)


def test_schur_scan_without_trials_and_with_one():
    res = schur_scan(2.0, 5, trials=0, seed=3)
    assert res.verdict == "inconclusive" and res.rows == []
    assert res.convex_evidence == res.concave_evidence == res.within_budget == 0
    assert res.convex_examples == res.concave_examples == []
    res = schur_scan(2.0, 5, trials=1, seed=3)
    ((x, y, i, j, lam),) = _reference_draws(5, 1, 3)
    (row,) = res.rows
    assert (row["trial"], row["x"], row["y"], row["i"], row["j"], row["lam"]) == (0, x, y, i, j, lam)
    assert row["mp_x"] == m_p(x, 2.0).value and row["mp_y"] == m_p(y, 2.0).value
    assert res.within_budget + res.convex_evidence + res.concave_evidence == 1


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


def test_failure_profile_just_above_threshold():
    prof = failure_profile(4.5)
    assert prof.critical_point is not None
    assert prof.critical_value > prof.f_at_right


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
