"""The Erlang kernel behind both Monte Carlo samplers: block-size
invariance, agreement with the earlier one-shot sampler, bounded memory,
and the domain error for payoffs beyond the float range."""

import math
import tracemalloc

import numpy as np
import pytest

from expmoments import model as model_mod
from expmoments.engines import moment
from expmoments.model import GammaSumModel, MomentQuery, sample

# (weights, shapes, p, shift, signed, seed, count, value, error) of forced
# Monte Carlo queries, recorded from the one-shot sampler that drew
# rng.random((pairs, K)) at once and took -log1p(-U): the montecarlo
# workload's forced n = 4 and n = 1 classes (seed 7, operations 3, 4, 11, 12),
# criterion 16's seeds 1600-1602, the engine tests' seeds 3, 12 and 4, and a
# plain draw with an integer component
CORPUS = [
    ([-0.6889372111820696, -0.4694858202947545, -0.21951692362958328, -1.8370768496935213], [1.0, 2.0, 1.0, 2.0],
     6.0, -0.7618089442609804, False, 741682169, 400000, 353571.8538312024, 14124.346130439915),
    ([-0.6828855526962416], [2.0], 6.0, 0.8471334062744726, False, 1346300958, 400000,
     1438.3582059957612, 57.0648729509962),
    ([-0.4241786802371557, 1.1392408017924287, 0.2102276753922044, -0.23667054692457798], [2.0, 1.0, 2.0, 2.0],
     2.0, -1.656366060762524, False, 230290209, 400000, 5.442435407954215, 0.027067897964443748),
    ([-0.29657468926240144], [1.0], 2.0, -1.5037604158590643, False, 1026647124, 400000,
     1.5456497996518042, 0.0008673524874691771),
    ([1.0, 2.0], [1.0, 1.0], 2.0, 0.0, False, 1600, 50000, 14.149829359660913, 0.23112836242200363),
    ([1.0, 2.0], [1.0, 1.0], 2.0, 0.0, False, 1601, 50000, 13.961305485697842, 0.22564604614373726),
    ([1.0, 2.0], [1.0, 1.0], 2.0, 0.0, False, 1602, 50000, 14.117772902052486, 0.233387938017492),
    ([1.0, 2.0], [1.0, 1.0], 2.0, 0.0, False, 3, 200000, 13.884432772936682, 0.11352079324723191),
    ([1.0, -1.0], [1.0, 1.0], 1.0, 0.0, False, 12, 50000, 0.9938948105904115, 0.01300053760362271),
    ([1.0], [1.0], 2.5, 1.0, True, 4, 400000, 0.9900177118073051, 0.025503534519502817),
    ([1.0, -2.0], [2.0, 0.5], 3.0, 0.5, False, 5, 20000, 18.52445141323969, 1.4922653643592552),
]


def _forced(weights, shapes, p, shift=0.0, signed=False, seed=0, count=20_000):
    est = moment(GammaSumModel.of(weights, shapes), MomentQuery(p, shift, signed),
                 engine="montecarlo", seed=seed, count=count)
    assert est.engine == "montecarlo"
    return est.value, est.error


@pytest.mark.parametrize("weights, shapes, p, shift, signed, seed, count, value, error", CORPUS)
def test_kernel_agrees_with_the_one_shot_sampler(weights, shapes, p, shift, signed, seed, count, value, error):
    got_value, got_error = _forced(weights, shapes, p, shift, signed, seed, count)
    assert got_value == pytest.approx(value, rel=1e-14, abs=0.0)
    assert got_error == pytest.approx(error, rel=1e-14, abs=0.0)


QUERIES = [
    # antithetic: integer shapes, orders 1 to 9 in all
    ([1.0, 2.0], [1.0, 1.0], 2.0, 0.0, False),
    ([0.7], [3.0], 2.5, 1.0, True),
    ([-0.5, 1.3, 0.2], [2.0, 4.0, 3.0], 1.7, -0.3, False),
    # plain: a fractional shape beside integer ones
    ([1.0, -2.0], [2.0, 0.5], 3.0, 0.5, False),
    ([0.4, 1.1], [5.0, 1.5], 0.6, 0.2, True),
]


def test_results_do_not_depend_on_the_block_size(monkeypatch):
    default = [_forced(*q, seed=21, count=10_000) for q in QUERIES]
    draws = sample(GammaSumModel.of([0.3, -1.2], [3.0, 2.0]), seed=8, count=5_000)
    monkeypatch.setattr(model_mod, "_ERLANG_BLOCK", 7)
    assert [_forced(*q, seed=21, count=10_000) for q in QUERIES] == default
    assert np.array_equal(sample(GammaSumModel.of([0.3, -1.2], [3.0, 2.0]), seed=8, count=5_000), draws)


def test_kernel_draws_the_one_shot_uniforms():
    weights, orders = [0.5, -2.0], [2, 3]
    rows = 4000
    assert 5 * rows > model_mod._ERLANG_BLOCK  # several blocks
    u = np.random.default_rng(4).random((rows, 5))
    w = np.repeat(weights, orders)
    got = model_mod._erlang_rows(np.random.default_rng(4), weights, orders, rows)
    np.testing.assert_allclose(got, -np.log1p(-u) @ w, rtol=1e-13, atol=1e-13)
    payoff = lambda s: np.abs(s) ** 1.5
    got = model_mod._erlang_rows(np.random.default_rng(4), weights, orders, rows, payoff)
    want = 0.5 * (payoff(-np.log1p(-u) @ w) + payoff(-np.log(u) @ w))
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("weights, shapes", [([2.0], [200.0]), ([2.0, 1.0], [200.0, 0.5])])
def test_order_200_samples_in_bounded_memory(weights, shapes):
    # the one-shot sampler held count / 16 x 200 uniforms and two temporaries
    # of that size per partition (about 60 MB here); the kernel holds blocks
    tracemalloc.start()
    try:
        value, error = _forced(weights, shapes, 2.5, 1.0, count=200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(value) and error > 0.0
    assert peak < 16e6


def test_payoffs_beyond_the_float_range_are_a_domain_error():
    # (S + 1)^200.5 is finite for every draw, but its square overflows and
    # the moment itself (about Gamma(201.5)) lies beyond the float range; on
    # the plain path (S + 1)^400.5 itself overflows
    with pytest.raises(ValueError, match="float range"):
        _forced([1.0], [1.0], 200.5, -1.0)
    with pytest.raises(ValueError, match="float range"):
        _forced([1.0], [0.5], 400.5, -1.0)
