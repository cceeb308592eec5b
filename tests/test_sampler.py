"""The Erlang kernel behind both Monte Carlo samplers: block-size
invariance, blocks shared between partitions, the contraction of one and
two columns, agreement with the earlier one-shot sampler, recorded
estimates, bounded memory, and the domain errors for payoffs beyond the
float range and for sample counts below 1."""

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


# (weights, shapes, p, shift, signed, seed, count): forced queries at small
# counts, whose partitions share blocks at the default block size
SHARED = [
    ([1.0, 2.0], [1.0, 1.0], 2.0, 0.0, False, 5, 20_000),
    ([0.7], [1.0], 2.5, 0.3, True, 11, 200),
    ([-0.5, 1.3, 0.2], [2.0, 4.0, 3.0], 1.7, -0.3, False, 6, 3_000),
    ([1.5, -0.4], [1.0, 2.0], 3.0, 0.5, True, 7, 40),
]


def test_results_do_not_depend_on_the_block_size(monkeypatch):
    default = [_forced(*q, seed=21, count=10_000) for q in QUERIES]
    shared = [_forced(*q) for q in SHARED]
    draws = sample(GammaSumModel.of([0.3, -1.2], [3.0, 2.0]), seed=8, count=5_000)
    for block in (7, model_mod._ERLANG_BLOCK, 2**20):
        monkeypatch.setattr(model_mod, "_ERLANG_BLOCK", block)
        assert [_forced(*q, seed=21, count=10_000) for q in QUERIES] == default
        assert [_forced(*q) for q in SHARED] == shared
        assert np.array_equal(sample(GammaSumModel.of([0.3, -1.2], [3.0, 2.0]), seed=8, count=5_000), draws)


def test_partitions_share_blocks_where_they_fit():
    # criterion 16's partitions, 3125 pairs x 2 columns, run two to a block;
    # 25,000 pairs run alone over several blocks
    weights, orders = [1.0, 2.0], [1, 1]
    payoff = lambda s: s * s
    for rows, sizes in ((3125, [2, 2, 2, 2]), (25_000, [1] * 8), (50, [8])):
        blocks = list(model_mod._erlang_rows(_generators(8), weights, orders, rows, payoff))
        assert [len(h) for h in blocks] == sizes and all(h.shape[1] == rows for h in blocks)


def _generators(count, made=None):
    for seed in range(count):
        if made is not None:
            made.append(seed)
        yield np.random.default_rng(seed)


def test_generators_are_made_as_their_block_is_reached():
    made = []
    blocks = model_mod._erlang_rows(_generators(8, made), [1.0, 2.0], [1, 1], 3125)
    next(blocks)
    assert made == [0, 1]
    next(blocks)
    assert made == [0, 1, 2, 3]


@pytest.mark.parametrize("generators, rows", [(1, 4000), (5, 700), (5, 1500)])
def test_kernel_draws_the_one_shot_uniforms(generators, rows):
    # one generator over several blocks, or four and two to a block: each
    # generator's rows are those of one rng.random((rows, K)) call on its own
    weights, orders = [0.5, -2.0], [2, 3]
    w = np.repeat(weights, orders)
    payoff = lambda s: np.abs(s) ** 1.5
    plain = [h for b in model_mod._erlang_rows(_generators(generators), weights, orders, rows) for h in b]
    pairs = [h for b in model_mod._erlang_rows(_generators(generators), weights, orders, rows, payoff) for h in b]
    assert len(plain) == len(pairs) == generators
    for seed in range(generators):
        u = np.random.default_rng(seed).random((rows, 5))
        np.testing.assert_allclose(plain[seed], -np.log1p(-u) @ w, rtol=1e-13, atol=1e-13)
        want = 0.5 * (payoff(-np.log1p(-u) @ w) + payoff(-np.log(u) @ w))
        np.testing.assert_allclose(pairs[seed], want, rtol=1e-13, atol=1e-13)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("cols", [1, 2])
@pytest.mark.parametrize("sides", [1, 2])
def test_one_and_two_columns_contract_as_einsum_bit_for_bit(cols, sides):
    rng = np.random.default_rng(30 + cols)
    for trial in range(40):
        rows = int(rng.integers(1, 3000))
        u = rng.random((rows, cols))
        u[0] = 0.0  # log(1 - U) = +0.0, log U = -inf
        u[rng.random(rows) < 0.01] = 0.0
        with np.errstate(divide="ignore"):
            block = np.log(np.stack([1.0 - u, u])[:sides])
        neg = rng.uniform(0.1, 3.0, cols) * rng.choice([-1.0, 1.0], cols)
        if trial % 4 == 0:
            neg = -np.abs(neg)  # every product of a zero logarithm is -0.0
        with np.errstate(invalid="ignore"):  # inf - inf where both U are 0
            want = np.einsum("kij,j->ki", block, neg)
            got = model_mod._contract(block, neg, np.empty((sides, rows)))
        assert np.array_equal(_bits(got), _bits(want))


# (value, error) of SHARED, of CORPUS and of one forced query per column
# count 1 to 8 in the montecarlo workload's form (count 400,000, shifted,
# odd p signed), recorded from the kernel that ran one block per partition
# and contracted every block with einsum
SHARED_PINS = [
    (13.954684033567979, 0.3708172058349317),
    (0.9748434909800306, 0.7090008510370843),
    (18.71824883458069, 0.5752033590841318),
    (7.131041072785626, 11.150115423059235),
]
CORPUS_PINS = [
    (353571.8538312024, 14124.346130439919),
    (1438.3582059957614, 57.0648729509962),
    (5.442435407954215, 0.027067897964443748),
    (1.5456497996518042, 0.0008673524874691771),
    (14.149829359660913, 0.23112836242200363),
    (13.961305485697842, 0.22564604614373726),
    (14.117772902052486, 0.233387938017492),
    (13.884432772936682, 0.11352079324723191),
    (0.9938948105904115, 0.01300053760362271),
    (0.9900177118073051, 0.025503534519502817),
    (18.52445141323969, 1.4922653643592552),
]
COLUMNS = [
    (([-1.416496], [1.0], 3.0, 0.687959, True, 460255570, 400_000), (-27.670179166393996, 0.3594672232720716)),
    (([1.639039], [2.0], 4.0, 0.37024, False, 2138468723, 400_000), (712.5091288341812, 14.652553583138664)),
    (([0.341706, -0.525483], [2.0, 1.0], 5.0, 0.422277, True, 984590868, 400_000),
     (-3.3098243975452806, 0.299328385641126)),
    (([1.310254, -0.389694], [2.0, 2.0], 6.0, 0.108796, False, 1214898181, 400_000),
     (15463.918155127501, 1104.4491887361378)),
    (([1.037215, 1.95612, -1.638971], [2.0, 2.0, 1.0], 2.0, 0.492053, False, 698683064, 400_000),
     (27.36880411830507, 0.14379237275146167)),
    (([0.996906, -0.700475, -1.774924], [2.0, 2.0, 2.0], 3.0, 1.633646, True, 588936662, 400_000),
     (-246.07960814760975, 2.04661961133978)),
    (([0.683058, -0.682513, -0.327587, 1.040976], [2.0, 2.0, 2.0, 1.0], 4.0, 0.644005, False, 797756710, 400_000),
     (41.97248668011639, 1.0210087140473365)),
    (([1.077041, -1.042434, -1.936874, -1.816809], [2.0, 2.0, 2.0, 2.0], 5.0, 0.451095, True, 526572161, 400_000),
     (-221301.9263962087, 3764.869596396362)),
]


@pytest.mark.parametrize(
    "query, pinned", list(zip(SHARED, SHARED_PINS)) + list(zip([q[:7] for q in CORPUS], CORPUS_PINS)) + COLUMNS
)
def test_monte_carlo_estimates_are_bit_identical_to_the_record(query, pinned):
    assert _forced(*query) == pinned


def test_criterion_16_draws_are_bit_identical_to_the_record():
    # covered count and the reprs of the sums of the 200 values and errors
    values, errors = zip(*(_forced([1.0, 2.0], [1.0, 1.0], 2.0, seed=1600 + run, count=50_000) for run in range(200)))
    covered = sum(abs(v - 14.0) <= e for v, e in zip(values, errors))
    assert (covered, repr(sum(values)), repr(sum(errors))) == (198, "2798.4251721753762", "46.061605182498454")


@pytest.mark.parametrize("count", [0, -5])
def test_sample_counts_below_one_are_a_domain_error(count):
    with pytest.raises(ValueError, match="count"):
        _forced([1.0, 2.0], [1.0, 1.0], 2.0, seed=1, count=count)
    with pytest.raises(ValueError, match="count"):
        _forced([1.0, 2.0], [1.0, 0.5], 2.0, seed=1, count=count)
    with pytest.raises(ValueError, match="count"):
        sample(GammaSumModel.of([1.0, 2.0]), seed=1, count=count)


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
