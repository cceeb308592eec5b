"""Acceptance gate: one test per exit criterion, each at its pinned
tolerance, printing a pass/fail line (visible under pytest -s, and in the
captured output on failure)."""

import dataclasses
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

import expmoments
from expmoments import acceptance, cli, engines, schur


def _check(fn):
    result = fn()
    print(result.line())
    assert result.passed, result.line()


def test_criterion_01_pstar_solver():
    _check(acceptance.criterion_01_pstar)


def test_criterion_02_p0_solver():
    _check(acceptance.criterion_02_p0)


def test_criterion_03_power_tail_integral_grid():
    _check(acceptance.criterion_03_iqs)


def test_criterion_04_fourier_engine_laplace():
    _check(acceptance.criterion_04_fourier_laplace)


def test_criterion_05_density_vs_exact_moments():
    _check(acceptance.criterion_05_density_vs_exact)


def test_criterion_06_exact_certificate_sweep():
    _check(acceptance.criterion_06_hunter)


def test_criterion_07_gaussian_lower_bound_sweep():
    _check(acceptance.criterion_07_theorem1)


def test_criterion_08_phase_map():
    _check(acceptance.criterion_08_phase_map)


def test_criterion_09_failure_profile():
    _check(acceptance.criterion_09_failure_profile)


def test_criterion_10_equal_coefficient_suite():
    _check(acceptance.criterion_10_all_equal)


def test_criterion_11_integral_representation():
    _check(acceptance.criterion_11_representation)


def test_criterion_12_psi_monotonicity():
    _check(acceptance.criterion_12_psi)


def test_criterion_13_minimizer_certificate():
    _check(acceptance.criterion_13_minimizer)


def test_criterion_14_gradient_identity():
    _check(acceptance.criterion_14_gradient)


def test_criterion_15_logconvexity_symmetric():
    _check(acceptance.criterion_15_logconvexity)


def test_criterion_16_monte_carlo_honesty():
    _check(acceptance.criterion_16_mc_honesty)


def test_criterion_08_holds_one_scan_at_a_time():
    # eight ScanResults of 500 rows held at once would pass 2 MB; the shared
    # trials and the batch for all p stay well below it
    tracemalloc.start()
    try:
        acceptance.criterion_08_phase_map()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_criterion_08_builds_no_scan_rows(monkeypatch):
    # the phase map reads verdicts only; a row is built only where it is read
    def unread(rows, t):
        raise AssertionError(f"criterion 8 built scan row {t!r}")

    monkeypatch.setattr(schur.ScanRows, "__getitem__", unread)
    _check(acceptance.criterion_08_phase_map)


# criterion 16's 200 draws: covered runs, and the reprs of the sums of the
# values and of the errors, as test_sampler.py records them
CRITERION_16_RECORD = (199, "2799.0546160958484", "46.084320733911724")


def _criterion_16_record(pairs):
    values, errors = zip(*pairs)
    covered = sum(abs(v - 14.0) <= e for v, e in pairs)
    return covered, repr(sum(values)), repr(sum(errors))


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def lone_thread(monkeypatch):
    """Two usable CPUs whatever the machine has, and no worker thread left
    by an earlier split Monte Carlo query, so that only what a test changes
    keeps _split_map from forking."""
    if not (hasattr(os, "fork") and sys.platform == "linux"):
        pytest.skip("_split_map forks only on Linux")
    monkeypatch.setattr(engines, "_usable_cpus", lambda: 2)
    if engines._pool is not None:
        engines._pool.shutdown()
        engines._drop_pool()
    assert threading.active_count() == 1


@pytest.fixture
def forks(monkeypatch, lone_thread):
    """The list of pids os.fork returned to the parent."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    assert acceptance._can_fork()
    return pids


def test_forked_and_serial_splits_give_criterion_16s_recorded_draws(monkeypatch, forks):
    assert _criterion_16_record(acceptance._split_map(acceptance._mc_honesty_run, range(200))) == CRITERION_16_RECORD
    assert len(forks) == 1
    _assert_no_child()
    monkeypatch.setattr(engines, "_usable_cpus", lambda: 1)
    assert _criterion_16_record(acceptance._split_map(acceptance._mc_honesty_run, range(200))) == CRITERION_16_RECORD
    assert len(forks) == 1


def test_a_child_payload_beyond_the_pipe_buffer_is_read_whole(forks):
    # 4 x 200 kB from the child, several times a pipe's buffer
    assert acceptance._split_map(lambda x: str(x) * 200_000, range(8)) == [str(x) * 200_000 for x in range(8)]
    assert len(forks) == 1
    _assert_no_child()


def test_an_error_in_the_childs_half_is_raised_by_the_parent(forks):
    # item 7 is the child's; the child exits non-zero and the parent, which
    # computes that half again, raises
    with pytest.raises(ZeroDivisionError) as info:
        acceptance._split_map(lambda x: 1 / (x - 7), range(10))
    assert len(forks) == 1
    assert info.traceback[-1].frame.code.name == "<lambda>"
    _assert_no_child()


def test_a_payload_that_does_not_unpickle_is_computed_by_the_parent(monkeypatch, forks):
    def broken(data):
        raise EOFError("truncated")

    monkeypatch.setattr(acceptance.pickle, "loads", broken)
    assert acceptance._split_map(abs, range(-3, 3)) == [3, 2, 1, 0, 1, 2]
    assert len(forks) == 1
    _assert_no_child()


def test_an_error_in_the_parents_half_reaps_the_child(forks):
    # the parent raises at once while the child still computes 5 MB of
    # results, more than the pipe holds: closing the read end ends the child
    def fn(x):
        if x < 5:
            raise KeyError(x)
        return bytes(1 << 20)

    with pytest.raises(KeyError):
        acceptance._split_map(fn, range(10))
    assert len(forks) == 1
    _assert_no_child()


def _no_fork():
    raise AssertionError("os.fork called")


@pytest.mark.parametrize("fallback", ["one usable CPU", "a live extra thread", "no os.fork"])
def test_each_fallback_runs_serially_without_forking(monkeypatch, lone_thread, fallback):
    if fallback == "one usable CPU":
        monkeypatch.setattr(engines, "_usable_cpus", lambda: 1)
    if fallback == "no os.fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", _no_fork)
    release = threading.Event()
    extra = threading.Thread(target=release.wait)
    if fallback == "a live extra thread":
        extra.start()
    try:
        assert not acceptance._can_fork()
        assert acceptance._split_map(abs, range(-3, 3)) == [3, 2, 1, 0, 1, 2]
    finally:
        release.set()
        if extra.is_alive():
            extra.join()


def test_text_buffered_before_the_split_is_written_once():
    # stdout is a pipe, so block-buffered (unless PYTHONUNBUFFERED is set,
    # which the test unsets): a child that flushed its copy of
    # the buffer would write the line twice, after success or failure
    src = str(Path(expmoments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)
    code = """
import os, sys
from expmoments import acceptance, engines
engines._usable_cpus = lambda: 2
parent = os.getpid()
sys.stdout.write("before the split\\n")
assert acceptance._split_map(abs, range(-3, 3)) == [3, 2, 1, 0, 1, 2]
assert acceptance._split_map(lambda x: x if os.getpid() == parent else 1 / 0, range(4)) == [0, 1, 2, 3]
sys.stdout.write("after the split\\n")
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (done.stdout, done.stderr) == ("before the split\nafter the split\n", "")


def test_criterion_16_output_is_the_same_bytes_forked_and_serial(monkeypatch, capsys, forks):
    argv = ["reproduce", "--only", "16", "--format", "json"]
    assert cli.main(argv) == 0
    forked = capsys.readouterr().out
    assert len(forks) == 1
    monkeypatch.setattr(engines, "_usable_cpus", lambda: 1)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == forked
    assert len(forks) == 1
    assert json.loads(forked)["rows"][0]["detail"] == "99% CI covered truth in 199/200 runs (>= 190)"


def test_criterion_09_fails_on_a_wrong_profile(monkeypatch):
    # each check of criterion 9 alone fails it, on a profile that breaks
    # only that check
    good = schur.failure_profile(5.0)
    cases = [
        {"critical_point": None, "critical_value": None},
        {"critical_value": good.f_at_zero},
        {"d2_at_right": 2.0 * good.d2_at_right},
        {"d1_at_zero": 1.0 + 1e-5},
    ]
    for changes in cases:
        monkeypatch.setattr(schur, "failure_profile", lambda p, changes=changes: dataclasses.replace(good, **changes))
        result = acceptance.criterion_09_failure_profile()
        assert not result.passed
        assert ("no interior critical point found" in result.detail) == (changes is cases[0])
