import json
import math
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
from benchkit import harness, layers, oracle, tracer, workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generators_are_deterministic_under_a_seed(workload):
    gen = workloads.GENERATORS[workload]
    first = [gen(5, i) for i in range(30)]
    assert first == [gen(5, i) for i in range(30)]
    if workload != "battery":  # the battery ignores the seed by design
        assert first != [gen(6, i) for i in range(30)]


def test_quad_keeps_one_fourier_query_in_ten():
    ops = [workloads.quad_op(3, i) for i in range(100)]
    fractional = [op for op in ops if not all(s.is_integer() for s in op["shapes"])]
    assert len(fractional) == 10
    assert all(not op["signed"] and 0.0 < op["p"] < 2.0 and op["shift"] != 0.0 for op in fractional)
    assert all(op["shift"] != 0.0 for op in ops)


def test_oracle_self_check_and_closed_forms():
    oracle.self_check()
    for p in (0.3, 1.5, 4.0):
        assert oracle.integer_shape_moment((2.0, -2.0), (1.0, 1.0), p) == pytest.approx(
            2.0**p * math.gamma(p + 1.0), rel=1e-15)
    # E|E - m| = m - 1 + 2 exp(-m) for m > 0
    for m in (0.5, 2.5):
        want = m - 1.0 + 2.0 * math.exp(-m)
        assert oracle.integer_shape_moment((1.0,), (1.0,), 1.0, m) == pytest.approx(want, rel=1e-15)
        assert oracle.fourier_moment((1.0,), (1.0,), 1.0, m) == pytest.approx(want, rel=1e-13)


def test_oracle_routes_agree():
    w, s = (0.7, -1.3, 0.4), (2.0, 1.0, 1.0)
    # even p at shift 0: partial fractions against exact rationals
    assert oracle.integer_shape_moment(w, s, 4.0) == pytest.approx(
        float(oracle.exact_integer_moment(w, s, 4, 0.0)), rel=1e-15)
    # odd p, signed, shifted: closed forms against exact rationals
    assert oracle.integer_shape_moment(w, s, 3.0, 0.6, signed=True) == pytest.approx(
        float(oracle.exact_integer_moment(w, s, 3, 0.6)), rel=1e-14)
    # fractional p, shifted: closed forms against the Fourier route
    assert oracle.fourier_moment(w, s, 0.7, -0.4) == pytest.approx(
        oracle.integer_shape_moment(w, s, 0.7, -0.4), rel=1e-12)


def test_oracle_shifted_closed_form_matches_quadrature_of_the_density():
    # E|S - m|^p for S = E1 - 2 E2: density e^{-t}/3 (t > 0), e^{t/2}/3 (t < 0)
    p, m = 1.7, 0.8

    def f(t):
        return abs(t - m) ** p * (mpmath.exp(-t) if t > 0 else mpmath.exp(t / 2)) / 3

    with mpmath.workdps(30):
        want = float(mpmath.quad(f, [-mpmath.inf, 0, m, mpmath.inf]))
    assert oracle.integer_shape_moment((1.0, -2.0), (1.0, 1.0), p, m) == pytest.approx(want, rel=1e-14)


def test_oracle_handles_near_coincident_and_equal_weights():
    merged = oracle.integer_shape_moment((1.0,), (2.0,), 2.5)
    assert merged == pytest.approx(math.gamma(4.5) / math.gamma(2.0), rel=1e-15)
    near = oracle.integer_shape_moment((1.0, 1.0 + 1e-9), (1.0, 1.0), 2.5)
    assert near == pytest.approx(merged, rel=1e-8)


def test_self_times_on_a_synthetic_call_tree():
    # root [0, 10] -> a [1, 4] (-> a1 [2, 3]), b [3.5, 6] overlapping a, c [8, 9]
    start = [0.0, 1.0, 2.0, 3.5, 8.0]
    end = [10.0, 4.0, 3.0, 6.0, 9.0]
    parent = [-1, 0, 1, 0, 0]
    leaf = [0.5, 0.0, 0.25, 0.0, 0.0]
    got = tracer.self_times(start, end, parent, leaf)
    # root: 10 - |[1, 6] u [8, 9]| - 0.5 leaf
    assert got == pytest.approx([10.0 - 6.0 - 0.5, 3.0 - 1.0, 1.0 - 0.25, 2.5, 1.0])


def test_tracer_wraps_and_restores():
    class Host:
        pass

    host = Host()
    host.inner = lambda x: x + 1
    host.outer = lambda x: host.inner(x) * 2
    t = tracer.Tracer()
    t.patch(host, "inner", lambda fn: t.leaf("inner", fn))
    original_outer = host.outer
    t.patch(host, "outer", lambda fn: t.span("outer", fn))
    assert host.outer(1) == 4 and host.outer(2) == 6
    summary = t.summary()
    assert summary["outer"]["calls"] == 2 and summary["inner"]["calls"] == 2
    assert summary["outer"]["self_s"] == pytest.approx(summary["outer"]["total_s"] - summary["inner"]["self_s"])
    t.uninstall()
    assert host.outer is original_outer


@pytest.mark.parametrize("workload,count", [("scan", 1), ("quad", 12), ("montecarlo", 2)])
def test_smoke_run_of_each_stream_workload(workload, count, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    harness.load_package(ROOT)
    loop = harness.Loop(workload, seed=1)
    t = tracer.Tracer()
    layers.install(t)
    loop.tracer = t
    try:
        loop.run_count(count)
    finally:
        t.uninstall()
    checks = harness.check_estimates(loop.pending)
    assert not loop.failed and not checks["bad_ops"] and checks["estimates"] > 0
    per_layer = layers.metrics(t, dict.fromkeys(
        ("interpreter_s", "import_numpy_s", "import_expmoments_s", "first_op_s"), 0.1),
        dict(checks, fail_rate=0.0), 1.0)
    assert list(per_layer) == [name for name, _ in layers.PER_LAYER]
    assert per_layer["engines.moment.calls"] > 0


def test_smoke_run_of_the_battery_on_one_criterion():
    harness.load_package(ROOT)
    t = tracer.Tracer()
    layers.install(t)
    try:
        op = workloads.first_op("battery", 1, 0)
        raws = [workloads.execute("battery", step) for step in workloads.steps("battery", op)]
        assert workloads.digest("battery", op, raws)["ok"]
    finally:
        t.uninstall()
    summary = t.summary()
    assert summary["cli.main"]["calls"] == 1 and summary["acceptance.criterion_01"]["calls"] == 1


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == ["scan", "quad", "montecarlo", "battery"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


def test_run_fails_without_the_package(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "quad", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
