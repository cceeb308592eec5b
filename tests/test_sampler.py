"""The Erlang kernel behind both Monte Carlo samplers: one random stream
per query drawn in 8 consecutive chunks, checked against a live one-shot
reference; chunks that share kernel passes, bit for bit against a live
chunk-by-chunk reference; block-size invariance, the contraction of one
and two columns, recorded estimates, bounded memory, the domain errors
for payoffs beyond the float range and for sample counts below 1; chunk
groups on worker threads, each on the stream advanced to its first
uniform, bit for bit at any worker count, with no thread for criterion
16's queries and none left to a forked child; and the coverage of the
intervals drawn on fractional shapes and on a signed, shifted antithetic
class."""

import math
import os
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from expmoments import engines
from expmoments import model as model_mod
from expmoments.engines import moment
from expmoments.model import GammaSumModel, MomentQuery, sample

# (weights, shapes, p, shift, signed, seed, count) of forced Monte Carlo
# queries: the montecarlo workload's forced n = 4 and n = 1 classes (seed 7,
# operations 3, 4, 11, 12), criterion 16's seeds 1600-1602, the engine
# tests' seeds 3, 12 and 4; and a plain draw with an integer component
# beside a fractional one, whose fractional shape numpy's standard_gamma
# draws
CORPUS = [
    ([-0.6889372111820696, -0.4694858202947545, -0.21951692362958328, -1.8370768496935213], [1.0, 2.0, 1.0, 2.0],
     6.0, -0.7618089442609804, False, 741682169, 400000),
    ([-0.6828855526962416], [2.0], 6.0, 0.8471334062744726, False, 1346300958, 400000),
    ([-0.4241786802371557, 1.1392408017924287, 0.2102276753922044, -0.23667054692457798], [2.0, 1.0, 2.0, 2.0],
     2.0, -1.656366060762524, False, 230290209, 400000),
    ([-0.29657468926240144], [1.0], 2.0, -1.5037604158590643, False, 1026647124, 400000),
    ([1.0, 2.0], [1.0, 1.0], 2.0, 0.0, False, 1600, 50000),
    ([1.0, 2.0], [1.0, 1.0], 2.0, 0.0, False, 1601, 50000),
    ([1.0, 2.0], [1.0, 1.0], 2.0, 0.0, False, 1602, 50000),
    ([1.0, 2.0], [1.0, 1.0], 2.0, 0.0, False, 3, 200000),
    ([1.0, -1.0], [1.0, 1.0], 1.0, 0.0, False, 12, 50000),
    ([1.0], [1.0], 2.5, 1.0, True, 4, 400000),
    ([1.0, -2.0], [2.0, 0.5], 3.0, 0.5, False, 5, 20000),
]


def _forced(weights, shapes, p, shift=0.0, signed=False, seed=0, count=20_000):
    est = moment(GammaSumModel.of(weights, shapes), MomentQuery(p, shift, signed),
                 engine="montecarlo", seed=seed, count=count)
    assert est.engine == "montecarlo"
    return est.value, est.error


def _one_shot(weights, shapes, p, shift, signed, seed, count):
    """The engine's estimate recomputed by the one-shot sampler: one
    generator, 8 chunks in order, each drawn with a single rng.random call
    per (antithetic) chunk or per integer-shape weight."""
    model = GammaSumModel.of(weights, shapes)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    per = max(2, count // 8)

    def payoff(s):
        return np.sign(s - shift) * np.abs(s - shift) ** p if signed else np.abs(s - shift) ** p

    chunks = []
    for _ in range(8):
        if model.integer_shapes:
            w = np.repeat(model.weights, [int(s) for s in model.shapes])
            u = rng.random((per // 2, w.size))
            chunks.append(0.5 * (payoff(-np.log1p(-u) @ w) + payoff(-np.log(u) @ w)))
        else:
            s = np.zeros(per)
            for w, g in zip(model.weights, model.shapes):
                if float(g).is_integer():
                    s += w * -np.log1p(-rng.random((per, int(g)))).sum(axis=1)
                else:
                    s += w * rng.standard_gamma(g, per)
            chunks.append(payoff(s))
    h = np.concatenate(chunks)
    return h.mean(), 2.5758293035489004 * math.sqrt(h.var(ddof=1) / h.size)


@pytest.mark.parametrize("weights, shapes, p, shift, signed, seed, count", CORPUS)
def test_kernel_agrees_with_the_one_shot_sampler(weights, shapes, p, shift, signed, seed, count):
    got_value, got_error = _forced(weights, shapes, p, shift, signed, seed, count)
    value, error = _one_shot(weights, shapes, p, shift, signed, seed, count)
    assert got_value == pytest.approx(value, rel=1e-13, abs=0.0)
    assert got_error == pytest.approx(error, rel=1e-13, abs=0.0)


def _chunk_by_chunk(weights, shapes, p, shift, signed, seed, count):
    """The engine's antithetic estimate recomputed one chunk at a time: one
    generator, 8 chunks in order, each a single rng.random call, the
    kernel's logs and contraction, the engine's payoff, and the chunks'
    sums added in order."""
    model = GammaSumModel.of(weights, shapes)
    query = MomentQuery(p, shift, signed)
    neg = -np.repeat(model.weights, [int(s) for s in model.shapes])
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    rows = max(2, count // 8) // 2
    n, acc, acc2 = 0, 0.0, 0.0
    for _ in range(8):
        u = rng.random((rows, neg.size))
        s = model_mod._contract(np.log(np.stack([1.0 - u, u])), neg, np.empty((2, rows)))
        h = engines._payoff(s, query)
        h = (h[0] + h[1]) * 0.5
        n += h.size
        acc += float(h.sum())
        acc2 += float((h * h).sum())
    mean = acc / n
    return mean, engines._Z99 * math.sqrt(max(0.0, (acc2 - n * mean * mean) / (n - 1)) / n)


@pytest.mark.parametrize("per_pass", [0, 1, 2, 3])
@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("weights, shapes", [([0.7], [1.0]), ([1.5], [2.0]), ([-0.5, 1.3], [1.0, 2.0])])
def test_chunks_sharing_passes_are_bit_identical_to_chunk_by_chunk(monkeypatch, weights, shapes, signed, per_pass):
    # 8 chunks of 250 pairs of K = 1, 2 or 3 columns, with a budget that
    # splits each chunk into blocks (0), or whose passes hold one chunk, two,
    # or three with a last pass of two
    cols = int(sum(shapes))
    monkeypatch.setattr(model_mod, "_ERLANG_BLOCK", cols * (250 * per_pass or 100))
    query = (weights, shapes, 3.0 if signed else 2.5, -0.2 if signed else 0.3, signed, 17, 4_000)
    assert _forced(*query) == _chunk_by_chunk(*query)


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
# counts, whose chunks each fit in one block at the default block size
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
    # 7 splits every chunk into blocks; at 5,000 the 1,250-pair chunks of
    # two columns of the first shared query share passes two at a time, and
    # at 2**20 every query's chunks share one pass
    for block in (7, 5_000, model_mod._ERLANG_BLOCK, 2**20):
        monkeypatch.setattr(model_mod, "_ERLANG_BLOCK", block)
        assert [_forced(*q, seed=21, count=10_000) for q in QUERIES] == default
        assert [_forced(*q) for q in SHARED] == shared
        assert np.array_equal(sample(GammaSumModel.of([0.3, -1.2], [3.0, 2.0]), seed=8, count=5_000), draws)


@pytest.mark.parametrize("seed, rows", [(0, 700), (1, 4000), (2, 1639)])
def test_kernel_draws_the_one_shot_uniforms(seed, rows):
    # 1638 rows of 5 columns to a block: one generator's rows, over one or
    # several blocks, are those of one rng.random((rows, 5)) call, and the
    # generator is left where that call leaves it
    weights, orders = [0.5, -2.0], [2, 3]
    w = np.repeat(weights, orders)
    payoff = lambda s: np.abs(s) ** 1.5
    u = np.random.default_rng(seed).random((rows + 1, 5))
    for pay, want in ((None, -np.log1p(-u[:rows]) @ w),
                      (payoff, 0.5 * (payoff(-np.log1p(-u[:rows]) @ w) + payoff(-np.log(u[:rows]) @ w)))):
        rng = np.random.default_rng(seed)
        [got] = model_mod._erlang_rows(rng, weights, orders, rows, pay)
        assert got.shape == (rows,)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
        assert np.array_equal(rng.random(5), u[rows])


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
# odd p signed), recorded from the one-stream sampler
SHARED_PINS = [
    (14.14857648020986, 0.3717958913643088),
    (0.8966709438585535, 0.45116808291950156),
    (18.327396052556626, 0.5575026716714296),
    (13.447228867669502, 29.660189837693537),
]
CORPUS_PINS = [
    (349557.4500775151, 13355.977631432286),
    (1419.832121724292, 48.84872758215119),
    (5.433886451653069, 0.027090550961719837),
    (1.5456701096743148, 0.0008674817369512945),
    (14.054749080160805, 0.23171464466654634),
    (13.892818142943694, 0.22528043101989254),
    (13.96696033214407, 0.22554483162840627),
    (13.973836613475076, 0.11432100685886551),
    (0.9959397763948273, 0.012982005500261646),
    (0.9739612393064517, 0.025634803700698486),
    (18.36275029054181, 1.5294453492013742),
]
COLUMNS = [
    (([-1.416496], [1.0], 3.0, 0.687959, True, 460255570, 400_000), (-27.589402606383167, 0.3574079041975594)),
    (([1.639039], [2.0], 4.0, 0.37024, False, 2138468723, 400_000), (724.0744855689214, 14.954771493573078)),
    (([0.341706, -0.525483], [2.0, 1.0], 5.0, 0.422277, True, 984590868, 400_000),
     (-3.3489858601725735, 0.24907982635712023)),
    (([1.310254, -0.389694], [2.0, 2.0], 6.0, 0.108796, False, 1214898181, 400_000),
     (15181.235420442381, 1224.8429357728758)),
    (([1.037215, 1.95612, -1.638971], [2.0, 2.0, 1.0], 2.0, 0.492053, False, 698683064, 400_000),
     (27.423403909538468, 0.14393243694357033)),
    (([0.996906, -0.700475, -1.774924], [2.0, 2.0, 2.0], 3.0, 1.633646, True, 588936662, 400_000),
     (-243.8871439968219, 1.9638347219488936)),
    (([0.683058, -0.682513, -0.327587, 1.040976], [2.0, 2.0, 2.0, 1.0], 4.0, 0.644005, False, 797756710, 400_000),
     (40.82687277938663, 0.9565721741939395)),
    (([1.077041, -1.042434, -1.936874, -1.816809], [2.0, 2.0, 2.0, 2.0], 5.0, 0.451095, True, 526572161, 400_000),
     (-220063.0936112832, 3779.5640542664123)),
]


@pytest.mark.parametrize(
    "query, pinned", list(zip(SHARED, SHARED_PINS)) + list(zip(CORPUS, CORPUS_PINS)) + COLUMNS
)
def test_monte_carlo_estimates_are_bit_identical_to_the_record(query, pinned):
    assert _forced(*query) == pinned


def test_criterion_16_draws_are_bit_identical_to_the_record():
    # covered count and the reprs of the sums of the 200 values and errors
    values, errors = zip(*(_forced([1.0, 2.0], [1.0, 1.0], 2.0, seed=1600 + run, count=50_000) for run in range(200)))
    covered = sum(abs(v - 14.0) <= e for v, e in zip(values, errors))
    assert (covered, repr(sum(values)), repr(sum(errors))) == (199, "2799.0546160958484", "46.084320733911724")


@pytest.mark.parametrize("k", [0, 1, 7, 1000, 600_000])
def test_an_advanced_stream_starts_at_the_double_it_skips_to(k):
    # Generator.random takes one 64-bit output per double, so advancing the
    # bit generator by k outputs skips k doubles of the serial draw
    serial = np.random.Generator(np.random.PCG64(np.random.SeedSequence(9))).random(k + 1)
    advanced = np.random.Generator(np.random.PCG64(np.random.SeedSequence(9)).advance(k))
    assert advanced.random() == serial[k]


@pytest.fixture
def fresh_pool(monkeypatch):
    """No worker pool at the start; the one the test makes is shut down."""
    monkeypatch.setattr(engines, "_pool", None)
    yield
    if engines._pool is not None:
        engines._pool.shutdown()


def _record_groups(monkeypatch):
    """The (first chunk, chunks) of the chunk groups of each antithetic
    query, one list per query."""
    groups = []
    split = engines._chunk_groups

    def recorded(uniforms):
        groups.append(split(uniforms))
        return groups[-1]

    monkeypatch.setattr(engines, "_chunk_groups", recorded)
    return groups


@pytest.mark.parametrize("split_all", [False, True])
@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_estimates_do_not_depend_on_the_worker_count(monkeypatch, fresh_pool, workers, split_all):
    # every recorded estimate, at each worker count; with split_all every
    # antithetic query splits, whatever its size
    monkeypatch.setattr(engines, "_MC_WORKERS", workers)
    if split_all:
        monkeypatch.setattr(engines, "_MC_GROUP_UNIFORMS", 1)
    groups = _record_groups(monkeypatch)
    queries = SHARED + CORPUS + [query for query, _ in COLUMNS]
    pins = SHARED_PINS + CORPUS_PINS + [pinned for _, pinned in COLUMNS]
    assert [_forced(*query) for query in queries] == pins
    # contiguous groups of the 8 chunks; the largest queries split into one
    # group per worker
    for split in groups:
        assert [first for first, _ in split] == [sum(chunks for _, chunks in split[:g]) for g in range(len(split))]
        assert sum(chunks for _, chunks in split) == 8
    assert max(map(len, groups)) == workers


def test_criterion_16_queries_start_no_thread(monkeypatch, fresh_pool):
    # 50,000 uniforms per side stay in one group at any worker count
    monkeypatch.setattr(engines, "_MC_WORKERS", 8)
    groups = _record_groups(monkeypatch)
    threads = threading.active_count()
    assert _forced([1.0, 2.0], [1.0, 1.0], 2.0, seed=1600, count=50_000) == CORPUS_PINS[4]
    assert groups == [[(0, 8)]]
    assert engines._pool is None and threading.active_count() == threads


def test_split_criterion_16_draws_are_bit_identical_to_the_record(monkeypatch, fresh_pool):
    # criterion 16's 200 queries, each split into 3 groups of chunks
    monkeypatch.setattr(engines, "_MC_WORKERS", 3)
    monkeypatch.setattr(engines, "_MC_GROUP_UNIFORMS", 1)
    test_criterion_16_draws_are_bit_identical_to_the_record()


def test_payoffs_overflowing_in_a_worker_group_are_a_domain_error(monkeypatch, fresh_pool):
    # sgn(S - 1) |S - 1|^150: S - 1 takes both signs, so no bound refuses
    # the query, and a square overflows where S - 1 > 10.7.  At seed 7 that
    # happens in chunk 4 alone, the first chunk of the worker's group when
    # there are 2 groups, which must neither warn nor lose it
    model, query = GammaSumModel.of([1.0]), MomentQuery(150.0, 1.0, signed=True)
    sums = engines._antithetic_sums(model.weights, [1], 25_000, query, 7, 0, 8)
    finite = [math.isfinite(total) and math.isfinite(squares) for _, total, squares in sums]
    assert finite == [True] * 4 + [False] + [True] * 3
    monkeypatch.setattr(engines, "_MC_WORKERS", 2)
    groups = _record_groups(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="float range"):
            moment(model, query, engine="montecarlo", seed=7, count=400_000)
    assert groups == [[(0, 4), (4, 4)]]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_draws_on_its_own_threads(monkeypatch, fresh_pool):
    # the parent's pool has no threads in a forked child, which makes its
    # own and gets the same estimate
    monkeypatch.setattr(engines, "_MC_WORKERS", 2)
    query, pinned = COLUMNS[7]
    assert _forced(*query) == pinned
    assert engines._pool is not None
    pid = os.fork()
    if pid == 0:
        status = 2
        try:
            status = 0 if engines._pool is None and _forced(*query) == pinned else 1
        finally:
            os._exit(status)
    deadline = time.monotonic() + 60.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


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
    # of that size per chunk (about 60 MB here); the kernel holds blocks
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


# (weights, shapes, query) of forced Monte Carlo on fractional shapes whose
# moments are polynomial, so that the exact engine gives the truth: every
# shape below 1, then every shape above 1
FRACTIONAL = [
    ([1.0, -2.0], [0.5, 0.7], MomentQuery(2.0, 0.3)),
    ([0.3, 1.2], [1.5, 2.5], MomentQuery(3.0, 0.2, signed=True)),
]


@pytest.mark.parametrize("weights, shapes, query", FRACTIONAL)
def test_fractional_shape_intervals_cover_the_exact_moment(weights, shapes, query):
    # criterion 16's check on the fractional-shape sampler: at least 190 of
    # 200 seeds' 99% intervals cover the truth
    model = GammaSumModel.of(weights, shapes)
    truth = moment(model, query, engine="exact").value
    estimates = [moment(model, query, engine="montecarlo", seed=seed, count=20_000) for seed in range(200)]
    assert sum(abs(e.value - truth) <= e.error for e in estimates) >= 190


def test_antithetic_signed_shifted_intervals_cover_the_density_moment():
    # criterion 16's check on a signed, shifted antithetic class whose
    # S - shift takes both signs: at least 190 of 200 seeds' 99% intervals
    # cover the density engine's value
    model, query = GammaSumModel.of([0.7], [3.0]), MomentQuery(2.5, 1.0, signed=True)
    truth = moment(model, query)
    assert truth.engine == "density" and truth.error < 1e-9
    estimates = [moment(model, query, engine="montecarlo", seed=seed, count=20_000) for seed in range(200)]
    assert sum(abs(e.value - truth.value) <= e.error for e in estimates) >= 190
