import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import expmoments
from expmoments import cli
from expmoments.cli import main, parse_model_literal
from expmoments.schur import failure_profile


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_model_literal():
    m = parse_model_literal("1,2^3,-0.5")
    assert m.weights == (1.0, 2.0, -0.5)
    assert m.shapes == (1.0, 3.0, 1.0)
    m = parse_model_literal("1e-2^2")
    assert m.weights == (0.01,)
    with pytest.raises(ValueError):
        parse_model_literal("")
    with pytest.raises(ValueError):
        parse_model_literal("1,,2")
    with pytest.raises(ValueError):
        parse_model_literal("1^-2")


@pytest.mark.parametrize("literal", ["1^nan", "1^inf", "1,2^nan"])
def test_non_finite_weights_and_shapes_are_parse_errors(capsys, literal):
    code, out, err = run(capsys, "moment", "-m", literal, "-p", "2")
    assert code == 2 and not out
    assert err.startswith("error: ") and "Traceback" not in err


def test_moment_command_values(capsys):
    code, out, _ = run(capsys, "moment", "-m", "1,-1", "-p", "1.5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(math.gamma(2.5), rel=1e-9)
    assert payload["schema_version"] == 1

    code, out, _ = run(capsys, "moment", "-m", "1,2", "-p", "2", "--format", "json")
    assert json.loads(out)["value"] == 14.0

    code, out, _ = run(capsys, "moment", "-m", "1", "-p", "1", "--shift", "1", "--format", "json")
    assert json.loads(out)["value"] == pytest.approx(2.0 / math.e, rel=1e-8)

    # polynomial moments are exact at fractional shapes and at a shift:
    # Var + mean^2 for the float shape 0.7, correctly rounded, and E(S - 1)^2 = 9
    for argv, value in (
        (("-m", "1^0.5,2^0.7", "-p", "2"), 6.909999999999999),
        (("-m", "1,2", "-p", "2", "--shift", "1"), 9.0),
        (("-m", "1", "-p", "100"), float(math.factorial(100))),
    ):
        code, out, _ = run(capsys, "moment", *argv, "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["engine"] == "exact", argv
        assert payload["value"] == value and payload["error"] == 0.0, argv
    # above the exact engine's cap, 170! near the top of the float range
    # comes from the density closed form, within its bound
    code, out, _ = run(capsys, "moment", "-m", "1", "-p", "170", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["engine"] == "density"
    assert 0.0 < payload["error"] <= 1e-12 * payload["value"]
    assert abs(payload["value"] - math.factorial(170)) <= payload["error"]


@pytest.mark.parametrize(
    "argv, engine, value, error",
    [
        # polynomial moments at shift 0 with integer shapes: exact at odd p,
        # signed or not, as at even p
        (("-m", "1,2,3", "-p", "3"), "exact", 540.0, 0.0),
        (("-m", "1,2,3", "-p", "3", "--signed"), "exact", 540.0, 0.0),
        (("-m", "1,2,3", "-p", "5"), "exact", 115920.0, 0.0),
        (("-m", "1,2,3", "-p", "4", "--signed"), "exact", 7224.0, 0.0),
        (("-m", "1,-2", "-p", "3", "--signed"), "exact", -30.0, 0.0),
        (("-m", "0.3,1.7^2", "-p", "9"), "exact", 511348213.20300466, 0.0),
        (("-m", "1e-300", "-p", "3"), "exact", 0.0, 0.0),
        # not polynomial (mixed signs at odd p), above the exact cap, and
        # fractional shapes, which were exact already
        (("-m", "1,-2", "-p", "3"), "density", 34.0, 2.222860737210139e-13),
        (("-m", "1,2,3", "-p", "101"), "density", 6.55819414247007e208, 1.589702363667598e196),
        (("-m", "1^0.5,2^1.5", "-p", "3"), "exact", 136.125, 0.0),
    ],
)
def test_moment_command_corpus(capsys, argv, engine, value, error):
    code, out, _ = run(capsys, "moment", *argv, "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert (payload["engine"], payload["value"], payload["error"]) == (engine, value, error)
    assert math.copysign(1.0, payload["value"]) == math.copysign(1.0, value)


def test_moment_exit_codes(capsys):
    code, _, err = run(capsys, "moment", "-m", "1,,2", "-p", "2")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "moment", "-m", "1", "-p", "-2")
    assert code == 3 and "error" in err
    # 172! is beyond the float range: a domain error, not an OverflowError
    code, _, err = run(capsys, "moment", "-m", "1", "-p", "172")
    assert code == 3 and "float range" in err
    code, _, err = run(capsys, "moment", "-m", "1000", "-p", "100", "--shift", "-1")
    assert code == 3 and "float range" in err
    # Monte Carlo payoffs whose squares sum beyond the float range
    code, out, err = run(capsys, "moment", "-m", "1", "-p", "200.5", "--shift", "-1", "--count", "20000")
    assert code == 3 and "float range" in err and not out
    code, out, err = run(capsys, "moment", "-m", "1", "-p", "150.5", "--shift", "-1", "--engine", "montecarlo",
                         "--count", "20000")
    assert code == 3 and "squares sum beyond the float range" in err and not out
    # a literal of only zero weights has no model
    for literal, p in (("0", "-0.5"), ("0", "2"), ("0,-0.0", "2.5")):
        code, _, err = run(capsys, "moment", "-m", literal, "-p", p)
        assert code == 3 and "nonzero weight" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("moment", "-m", "1", "-p", "2", "--shift", "inf"),
        ("moment", "-m", "1", "-p", "inf"),
        ("verify", "theorem1", "-p", "inf"),
        ("failure", "-p", "nan"),
        ("failure", "-p", "inf"),
        # an even p far above the exact engine's cap, at shift 0
        ("moment", "-m", "1,2", "-p", "1e300"),
        ("moment", "-m", "0.3,0.5", "-p", "102", "--engine", "exact"),
        # moments whose float-range check squares an offset beyond 1e154,
        # refused before any sampling
        ("moment", "-m", "1e200,2e200", "-p", "2.5"),
        ("moment", "-m", "1e160,-2e160", "-p", "2.5", "--shift", "1"),
        ("moment", "-m", "1e300", "-p", "2.5", "--engine", "montecarlo"),
        # an exact moment s (s + 1) of a shape far too large to unroll
        ("moment", "-m", "1^1e300", "-p", "2"),
        # orders too large to build, refused before any table or sample
        ("moment", "-m", "1^1e20", "-p", "2.5"),
        ("moment", "-m", "1^1e15", "-p", "2.5"),
        ("moment", "-m", "1^1e20,1.00000001", "-p", "2.5"),
        ("moment", "-m", "1^1e20", "-p", "2.5", "--engine", "montecarlo", "--count", "16"),
        ("moment", "-m", "1^1e9", "-p", "2.5", "--engine", "montecarlo", "--count", "16"),
        # ratios r = ||X - EX||_p / ||X - EX||_1 whose 1/p-th power leaves
        # the float range
        ("verify", "mrtt", "-p", "1e-200", "--trials", "3"),
        ("verify", "mrtt", "-p", "1e-300", "--trials", "3"),
    ],
)
def test_non_finite_or_out_of_reach_p_and_shift_are_domain_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and not out
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("moment", "-m", "1,2", "-p", "2", "--engine", "montecarlo", "--count", "-5"),
        ("moment", "-m", "1,2", "-p", "2", "--engine", "montecarlo", "--count", "0"),
        ("verify", "hunter", "--trials", "-3"),
        ("schur", "-p", "2", "-n", "3", "--trials", "0"),
        ("minimize", "-n", "2", "-p", "3", "--multistart", "0"),
    ],
)
def test_counts_and_trials_below_one_are_parse_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2 and "positive integer" in capsys.readouterr().err


def test_large_powers_and_pole_orders_end_in_a_value_or_a_domain_error(capsys):
    # |t + 1|^80.5 alone overflows where the density quadrature's integrand is finite
    code, out, _ = run(capsys, "moment", "-m", "1", "-p", "80.5", "--shift", "-1", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["engine"] == "density" and math.isfinite(payload["value"])
    argv = ("moment", "-m", "1", "-p", "81", "--shift", "-1", "--format", "json")
    code, out, _ = run(capsys, *argv, "--engine", "density")
    density = json.loads(out)
    assert code == 0 and math.isfinite(density["value"])
    _, out, _ = run(capsys, *argv)
    exact = json.loads(out)
    assert exact["engine"] == "exact"
    assert abs(density["value"] - exact["value"]) <= density["error"]
    # a pole of order 200 or 400 takes the density's term table beyond the
    # float range: the forced engine declines, auto dispatch goes on
    for literal, shift in (("2^200", "1"), ("0.01^400", "4")):
        argv = ("moment", "-m", literal, "-p", "2.5", "--shift", shift)
        code, _, err = run(capsys, *argv, "--engine", "density")
        assert code == 3 and "float range" in err
        code, out, _ = run(capsys, *argv, "--count", "20000", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["engine"] == "montecarlo" and math.isfinite(payload["value"])


def test_a_high_power_of_a_close_pair_ends_in_a_value_or_a_domain_error(capsys):
    # the gamma mixture's tail bound at p = 150.5 exceeds the float range
    # before its share is applied; the close pair takes the density engine,
    # and a third weight ends in an honest answer or exit 3
    code, out, _ = run(capsys, "moment", "-m", "1,1.00000001", "-p", "150.5", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["engine"] == "density" and math.isfinite(payload["value"])
    code, out, err = run(capsys, "moment", "-m", "1,1.00000001,1.3", "-p", "150.5", "--format", "json")
    if code == 0:
        payload = json.loads(out)
        assert math.isfinite(payload["value"]) and math.isfinite(payload["error"])
    else:
        assert code == 3 and "float range" in err


def test_json_output_is_deterministic(capsys):
    args = ("schur", "-p", "2", "-n", "3", "--trials", "15", "--seed", "4", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "hunter", "--trials", "50", "--format", "json")
    assert code == 0
    assert json.loads(out)["pass"] is True
    code, out, _ = run(capsys, "verify", "mrtt", "-p", "0.5", "--trials", "20", "--format", "json")
    assert code == 0


def test_verify_remaining_suites(capsys):
    for argv in (
        ("verify", "theorem1", "-p", "3", "--trials", "40"),
        ("verify", "all-equal",),
        ("verify", "gamma", "--trials", "8"),
        ("verify", "claim", "--trials", "500"),
        ("verify", "stepII-bound", "--trials", "10"),
    ):
        code, _, _ = run(capsys, *argv, "--format", "json")
        assert code == 0, argv


@pytest.mark.parametrize(
    "suite, flag",
    [
        ("theorem1", ("--tol", "1e-8")),
        ("hunter", ("-p", "3")),
        ("mrtt", ("--tol", "1e-8")),
        ("all-equal", ("--trials", "3")),
        ("all-equal", ("--seed", "9")),
        ("all-equal", ("--tol", "1e-3")),
        ("gamma", ("--tol", "1e-8")),
        ("claim", ("-p", "2")),
        ("stepII-bound", ("--tol", "1e-8")),
    ],
)
def test_verify_suites_refuse_flags_they_do_not_read(capsys, suite, flag):
    # -p: theorem1 and mrtt; --seed and --trials: all but all-equal; --tol:
    # none
    with pytest.raises(SystemExit) as exc:
        main(["verify", suite, *flag])
    assert exc.value.code == 2
    assert "error: unrecognized arguments: " + " ".join(flag) in capsys.readouterr().err


def test_verify_mrtt_reads_every_flag(capsys):
    argv = ("verify", "mrtt", "-p", "0.5", "--seed", "2", "--trials", "3", "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["params"]["seed"] == 2


@pytest.mark.parametrize(
    "argv",
    [("schur", "-p", "3", "-n", "2"), ("minimize", "-n", "2", "-p", "3"), ("moment", "-m", "1,2", "-p", "2")],
    ids=["schur", "minimize", "moment"],
)
def test_commands_whose_engines_read_no_tolerance_refuse_tol(capsys, argv):
    # every quadrature runs at one fixed accuracy
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol", "1e-8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1e-8" in capsys.readouterr().err


def test_schur_report_carries_certificate_note(capsys):
    code, out, _ = run(capsys, "schur", "-p", "3", "-n", "2", "--trials", "10", "--format", "json")
    assert code == 0
    notes = json.loads(out)["notes"]
    assert any("concav" in n.lower() for n in notes)


def test_schur_command(capsys):
    code, out, _ = run(capsys, "schur", "-p", "5", "-n", "2", "--trials", "120", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "neither"
    assert len(payload["rows"]) == 120

    code, out, _ = run(capsys, "schur", "-p", "2", "-n", "3", "--trials", "60", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("trial,x,y,")
    assert len(lines) == 61


def test_failure_command(capsys):
    code, out, _ = run(capsys, "failure", "-p", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["critical_point"] is not None
    assert payload["d2_at_right"] == pytest.approx(3.5355339059327378, rel=1e-4)
    # every row carries the profile's analytic f', endpoints included
    assert [row["fprime"] for row in payload["rows"]] == failure_profile(5.0).fprime.tolist()
    assert payload["rows"][0]["fprime"] == 1.0 and abs(payload["rows"][-1]["fprime"]) < 1e-15
    code, out, _ = run(capsys, "failure", "-p", "5", "--format", "csv")
    assert out.splitlines()[0] == "x,f,fprime"


def test_failure_command_below_p_zero(capsys):
    # f'(0) = -inf for p < 0: reported, not raised
    code, out, _ = run(capsys, "failure", "-p", "-0.5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["d1_at_zero"] == -math.inf and payload["rows"][0]["fprime"] == -math.inf
    assert all(math.isfinite(row["fprime"]) for row in payload["rows"][1:])


def test_solve_command(capsys):
    code, out, _ = run(capsys, "solve", "pstar", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(2.9414, abs=5e-3)
    code, out, _ = run(capsys, "solve", "p0", "--format", "json")
    assert json.loads(out)["value"] == pytest.approx(-0.565, abs=5e-3)


def test_minimize_command(capsys):
    code, out, _ = run(capsys, "minimize", "-n", "2", "-p", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(2.1213203435596424, rel=1e-6)
    assert payload["crux_residual"] < 1e-3


def test_reproduce_subset(capsys):
    code, out, _ = run(capsys, "reproduce", "--only", "1,2,12")
    assert code == 0
    assert out.count("[PASS]") == 3


@pytest.mark.parametrize("only, message", [("0", "numbered 1-16, got 0"), ("17", "numbered 1-16, got 17"),
                                           ("x", "invalid criterion number: 'x'")])
def test_reproduce_only_takes_criterion_numbers(capsys, only, message):
    # a number outside the battery is a parse error, not an empty pass
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "--only", only])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_reproduce_only_range_is_the_battery():
    from expmoments import acceptance

    assert cli._CRITERIA == len(acceptance.CRITERIA)


def test_reproduce_sweeps_are_pinned(capsys):
    # criteria 7 and 8, byte for byte as recorded when each p drew its own
    # trials and made its own engines.moments call
    code, out, _ = run(capsys, "reproduce", "--only", "7,8", "--format", "json")
    assert code == 0
    assert out == (
        '{"failing": 0, "rows": [{"detail": "p=2.0: 0 violations, n16 ratio 1.0000; p=2.5: 0 violations, '
        'n16 ratio 1.0076; p=3.0: 0 violations, n16 ratio 1.0151; p=4.0: 0 violations, n16 ratio 1.0299; '
        'p=5.0: 0 violations, n16 ratio 1.0443; p=6.0: 0 violations, n16 ratio 1.0585", "index": 7, '
        '"name": "Gaussian lower bound sweep", "pass": true}, {"detail": "all verdicts match", "index": 8, '
        '"name": "Schur-monotonicity phase map", "pass": true}], "schema_version": 1, "total": 2}\n'
    )


@pytest.mark.parametrize("argv", [("failure", "-p", "5"), ("solve", "pstar"), ("reproduce", "--only", "1")],
                         ids=["failure", "solve", "reproduce"])
def test_commands_without_randomness_or_quadrature_take_no_seed_or_tol(capsys, argv):
    # neither flag would be read: passing one is a parse error
    for flag in (("--seed", "3"), ("--tol", "1e-8")):
        with pytest.raises(SystemExit) as exc:
            main([*argv, *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + " ".join(flag) in capsys.readouterr().err
    assert main([*argv, "--format", "json"]) == 0


def test_out_file(tmp_path, capsys):
    target = tmp_path / "est.json"
    code, out, _ = run(
        capsys, "moment", "-m", "1,2", "-p", "2", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["value"] == 14.0
    # the battery's table goes to the file as it would go to stdout
    _, table, _ = run(capsys, "reproduce", "--only", "3,12")
    code, out, _ = run(capsys, "reproduce", "--only", "3,12", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == table


def test_repeated_main_calls_share_one_parser(capsys, monkeypatch):
    monkeypatch.delenv("EXPMOMENTS_SEED", raising=False)
    argv = ("moment", "-m", "1,2^0.5", "-p", "2.3", "--count", "20000", "--format", "json")
    outputs = [run(capsys, *argv) for _ in range(3)]
    assert outputs[0][0] == 0 and outputs == [outputs[0]] * 3
    assert cli.build_parser() is cli.build_parser()
    scan = ("schur", "-p", "4.5", "-n", "3", "--trials", "40", "--format", "csv")
    assert run(capsys, *scan) == run(capsys, *scan)
    # the default seed is read at every call
    monkeypatch.setenv("EXPMOMENTS_SEED", "5")
    assert json.loads(run(capsys, *argv)[1])["seed"] == 5
    monkeypatch.delenv("EXPMOMENTS_SEED")
    assert run(capsys, *argv) == outputs[0]


def test_env_seed_default(capsys, monkeypatch):
    monkeypatch.setenv("EXPMOMENTS_SEED", "77")
    code, out, _ = run(
        capsys, "moment", "-m", "1,2", "-p", "2.3", "--engine", "montecarlo",
        "--count", "20000", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["seed"] == 77


@pytest.mark.parametrize(
    "argv",
    [
        ("moment", "-m", "1,2", "-p", "2"),
        ("moment", "-m", "1,2^0.5", "-p", "2.3"),
        ("schur", "-p", "2", "-n", "3"),
        ("verify", "hunter"),
        ("minimize", "-n", "2", "-p", "3"),
    ],
)
def test_negative_seed_is_a_parse_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: a seed must be a nonnegative integer, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "-1", "1.5", ""])
def test_invalid_env_seed_is_a_parse_error(capsys, monkeypatch, value):
    monkeypatch.setenv("EXPMOMENTS_SEED", value)
    with pytest.raises(SystemExit) as exc:
        main(["moment", "-m", "1,2", "-p", "2"])
    assert exc.value.code == 2
    assert "error: environment variable EXPMOMENTS_SEED: " in capsys.readouterr().err
    # an explicit --seed leaves the variable unread
    assert main(["moment", "-m", "1,2", "-p", "2", "--seed", "0"]) == 0


def test_python_dash_m_runs_the_cli():
    # `python -m expmoments` from a checkout, the package found on PYTHONPATH
    src = str(Path(expmoments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "expmoments", "reproduce", "--only", "1", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["failing"] == 0


# every public name of the package, submodules included
PACKAGE_NAMES = [
    "GammaSumModel", "MajorizationPair", "MomentEstimate", "MomentQuery", "PartialFractionDensity",
    "QuadratureError", "analysis", "c_p_constant", "centered_exp_abs_moment", "charfn",
    "chs", "claim_inequality_check", "closed_integral_iqs", "density_at", "engines", "even_moment_exact",
    "f_k", "f_k_mc", "failure_profile", "fourier_constant", "gamma_mixture", "gaussian_abs_moment",
    "gaussian_even_moment_exact", "gradient", "integrate", "integrate_abs_power", "laplace_abs_moment",
    "logconvexity_probe", "loggamma", "m_p", "majorizes", "minimize_sphere", "model", "moment", "moments",
    "mp_representation_check", "ostrowski_differential", "partial_fraction_density", "psi", "q_k",
    "quadrature", "ratio_r", "sample", "schur", "schur_scan", "solve_p0", "solve_pstar", "specialfn",
    "t_transform", "tang_density_check", "verify_all_equal", "verify_gamma_extension", "verify_hunter_exact",
    "verify_mrtt", "verify_theorem1",
]


def test_package_names_load_their_modules_on_first_access():
    # in a fresh interpreter: importing the engines, or running a moment
    # query from the CLI, loads neither schur nor analysis, nor the thread
    # pool of split Monte Carlo queries, and starts no thread; importing
    # schur loads no analysis; every public name of the package still
    # resolves
    src = str(Path(expmoments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"""
import sys, threading, types
import expmoments.engines
assert "expmoments.schur" not in sys.modules and "expmoments.analysis" not in sys.modules
from expmoments.cli import main
assert main(["moment", "-m", "1,2", "-p", "2.5", "--format", "json"]) == 0
assert not {{"expmoments.schur", "expmoments.analysis", "expmoments.acceptance"}} & set(sys.modules)
assert "concurrent.futures" not in sys.modules and threading.active_count() == 1
assert expmoments.engines._pool is None
import expmoments.schur
assert "expmoments.analysis" not in sys.modules
import expmoments
assert expmoments.moment is expmoments.engines.moment
for name in {PACKAGE_NAMES!r}:
    value = getattr(expmoments, name)
    if isinstance(value, types.ModuleType):
        assert value.__name__ == "expmoments." + name
    else:
        assert value.__module__.startswith("expmoments."), name
from expmoments import *
assert sample is expmoments.model.sample and schur_scan is expmoments.schur.schur_scan
assert expmoments.__version__ == "0.1.0"
try:
    expmoments.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("expmoments.no_such_name resolved")
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
