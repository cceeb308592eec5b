import itertools
import math

import numpy as np
import pytest

from expmoments.schur import (
    _ABOVE_TINY,
    MajorizationPair,
    _Words,
    _draw_trials,
    _walk_trials,
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
    return _reference_stream(np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed))), n, trials)


def _reference_stream(rng, n, trials):
    """`_reference_draws` on the Generator rng."""
    draws = []
    for _ in range(trials):
        x = _reference_scan_vector(rng, n)
        active = np.flatnonzero(x > 1e-9)
        i, j = active[rng.permutation(active.size)[:2]].tolist()
        lam = float(rng.uniform(0.0, 1.0))
        draws.append((x.tolist(), t_transform(x.tolist(), i, j, lam), i, j, lam))
    return draws


def _assert_draws_are(draws, ref, n):
    """The (xs, ij, lam) arrays of a walk hold the reference trials bit for bit."""
    xs, ij, lam = draws
    assert xs.dtype == lam.dtype == np.float64 and ij.dtype == np.dtype(int)
    assert xs.shape == (len(ref), n) and ij.shape == (len(ref), 2) and lam.shape == (len(ref),)
    assert xs.tobytes() == np.array([x for x, *_ in ref], dtype=float).reshape(len(ref), n).tobytes()
    assert ij.tolist() == [[i, j] for _, _, i, j, _ in ref]
    assert lam.tobytes() == np.array([t[4] for t in ref], dtype=float).tobytes()


def test_draw_trials_are_the_reference_draws():
    # the draws alone, bit for bit, without a moment computed
    for seed in range(100):
        for n in range(2, 9):
            _assert_draws_are(_draw_trials(seed, n, 64), _reference_draws(n, 64, seed), n)
    for trials in (0, 1):
        for n in (2, 5):
            _assert_draws_are(_draw_trials(11, n, trials), _reference_draws(n, trials, 11), n)


def test_draws_do_not_depend_on_how_the_words_are_fetched():
    # one to three words a call: every draw of every kind meets a refill
    for seed, n in ((3, 2), (4, 5), (5, 8)):
        bg = np.random.PCG64(np.random.SeedSequence(seed))
        sizes = itertools.cycle((1, 2, 3))
        raw = lambda size: bg.random_raw(min(size, next(sizes)))
        _assert_draws_are(_walk_trials(raw, n, 200), _reference_draws(n, 200, seed), n)


# PCG64 steps its 128-bit state s to s * mult + inc, then outputs the XSL-RR
# of the new state: (high ^ low) rotated right by its top six bits
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M64 = 2**64 - 1
_M128 = 2**128 - 1


def _pcg64_emitting(*words):
    """A PCG64 state dict whose next one or two outputs are words; the LCG
    makes the rest."""

    def state_for(word, high):
        rot = high >> 58
        low = (((word << rot) | (word >> (64 - rot))) & _M64) ^ high
        return (high << 64) | low

    s1 = state_for(words[0], 0x9E3779B97F4A7C15)
    if len(words) == 1:
        inc = 0xDA3E39CB94B95BDB5851F42D4C957F2D
    else:
        # the second state fixes inc, which must be odd: the high word's
        # last bit, which moves no rotation, sets the parity
        s2 = state_for(words[1], 0xBF58476D1CE4E5B8)
        if (s2 - s1) % 2 == 0:
            s2 = state_for(words[1], 0xBF58476D1CE4E5B9)
        inc = (s2 - s1 * _PCG_MULT) & _M128
    s0 = ((s1 - inc) * pow(_PCG_MULT, -1, 2**128)) & _M128
    state = {"bit_generator": "PCG64", "state": {"state": s0, "inc": inc}, "has_uint32": 0, "uinteger": 0}
    bg = np.random.PCG64()
    bg.state = state
    assert bg.random_raw(len(words)).tolist() == list(words)
    return state


_STYLE_0 = 1 | 0x12345678 << 32  # low half 1: integers(3) gives 0
_TINY_WORD = _ABOVE_TINY - 1  # the largest word whose double is <= 1e-9


_HAND_BUILT = [
    # a zero low half at the style draw: Lemire rejects it, and the retry
    # takes the high half, 0xAAAAAAAA, which gives style 1
    ("lemire-rejection", 3, (0xAAAAAAAA << 32,)),
    # style 0 with a first uniform <= 1e-9: the shuffle runs over 3 of 4 entries
    ("tiny-uniform", 4, (_STYLE_0, _TINY_WORD)),
    ("uniform-above-1e-9", 4, (_STYLE_0, _ABOVE_TINY)),
    # style 0 at n = 2 with a tiny entry: the n uniforms are redrawn on [0.1, 1)
    ("redraw", 2, (_STYLE_0, 5 << 11)),
    # style 2 at n = 3: the first swap draw is the style word's high half,
    # kept across the split's random(); its last bits 11 exceed 2, so it is
    # rejected and drawn again from a fresh word's low half
    ("kept-half-rejected", 3, (0xFFFFFFFF | 0x7 << 32,)),
]


@pytest.mark.parametrize("case,n,words", _HAND_BUILT, ids=[case for case, _, _ in _HAND_BUILT])
def test_walk_follows_hand_built_words(case, n, words):
    state = _pcg64_emitting(*words)
    walked, referee = np.random.PCG64(), np.random.PCG64()
    walked.state = referee.state = state
    draws = _walk_trials(walked.random_raw, n, 4)
    _assert_draws_are(draws, _reference_stream(np.random.Generator(referee), n, 4), n)
    # the first trial took the branch the words were built for
    x = draws[0][0]
    if case == "lemire-rejection":
        assert x.max() / x.min() <= 1.1 / 0.9
    elif case == "tiny-uniform":
        assert 0.0 < x[0] <= 1e-9 < x[1:].min() and 0 not in draws[1][0]
    elif case == "uniform-above-1e-9":
        assert x[0] == (_ABOVE_TINY >> 11) * 2.0**-53 > 1e-9
    elif case == "redraw":
        assert x.min() >= 0.1
    else:
        assert np.count_nonzero(x) == 2


def test_words_follow_the_generator_call_by_call():
    # from one PCG64 state, the walker's rules against a real Generator: a
    # numpy that changes one of them fails here, at the first call it moves
    state = np.random.PCG64(np.random.SeedSequence(2026)).state
    walked, referee = np.random.PCG64(), np.random.PCG64()
    walked.state = referee.state = state
    words = _Words(walked.random_raw, 10**5)
    rng = np.random.Generator(referee)
    plan = np.random.default_rng(5)
    for call, (kind, size) in enumerate(zip(plan.integers(4, size=10**4).tolist(),
                                             plan.integers(2, 9, size=10**4).tolist())):
        if kind == 0:
            assert words.random() == rng.random(), f"call {call}: random() is (w >> 11) * 2**-53"
        elif kind == 1:
            at, _ = words.take(size)
            assert words.doubles()[at:at + size].tolist() == rng.random(size).tolist(), (
                f"call {call}: random({size}) is {size} fresh words, each (w >> 11) * 2**-53")
        elif kind == 2:
            assert words.integers3() == rng.integers(3), (
                f"call {call}: integers(3) is 3u >> 32 on a 32-bit half u, drawn again at u = 0")
        else:
            got, ref = list(range(size)), list(range(size))
            words.shuffle(got)
            rng.shuffle(ref)
            assert got == ref, (f"call {call}: shuffle of a list of {size} is Fisher-Yates from the end "
                                "by masked 32-bit halves, a kept half first")


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
