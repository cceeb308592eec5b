"""Rewrite the golden CLI corpus, ``tests/golden/cli.jsonl``.

Each command of COMMANDS runs in-process through ``expmoments.cli.main``,
with EXPMOMENTS_SEED unset.  The file's first line records the platform
(`platform_header`); each later line one command's argv, exit code,
stdout and the first line of its stderr (an argparse error's ``error:``
line, after its usage), and for a command with ``--out OUT`` the text of
the file it writes.  ``tests/test_golden.py`` runs every line again and
compares the bytes.  A regenerated diff is a declared output change.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

CORPUS = Path(__file__).with_name("cli.jsonl")

# the wall times in the detail of criteria 1 and 2, such as ", 0.012s"
_TIMING = re.compile(r"\b\d+\.\d{3}s\b")

_MC = ("--count", "20000", "--format", "json")
# the argument of --out that `run` replaces by a file of its own
_OUT = "OUT"

COMMANDS = [
    # exact: Hunter's identity (total shape <= 2 p), the cumulant
    # recurrence above it, a huge shape, and the table and csv formats
    ("moment", "-m", "1,2,3", "-p", "4", "--format", "json"),
    ("moment", "-m", "1^20,2", "-p", "3", "--format", "json"),
    ("moment", "-m", "1^1e20", "-p", "2", "--format", "json"),
    ("moment", "-m", "1,2^3,-0.5", "-p", "2"),
    ("moment", "-m", "1,0,2,1^0.5", "-p", "3", "--signed", "--format", "csv"),
    # density at shift 0 by partial fractions and by the gamma mixture
    ("moment", "-m", "1,2,3", "-p", "2.5", "--format", "json"),
    ("moment", "-m", "1,2,3", "-p", "2.5", "--format", "csv", "--out", _OUT),
    ("moment", "-m", "1,-2", "-p", "3", "--format", "json"),
    ("moment", "-m", "1,1.00000001", "-p", "2.5", "--format", "json"),
    ("moment", "-m", "1,1.00000001,1.3", "-p", "-0.5", "--format", "json"),
    # a cluster whose partial-fraction bar, 2.5e-3 of the value, is poor
    ("moment", "-m", "2,2.001,2.002,2.003", "-p", "0.5", "--format", "json"),
    # a doubled pole whose factor 1 / c**2 is not 1 / (c * c) in libm's pow
    ("moment", "-m", "1.48^2,1.84", "-p", "2.5", "--format", "json"),
    # shifted, signed, and the off-support row integral
    ("moment", "-m", "1", "-p", "1", "--shift", "1", "--format", "json"),
    ("moment", "-m", "1,2", "-p", "2.5", "--shift", "1", "--format", "json"),
    ("moment", "-m", "1,-2", "-p", "1.5", "--signed", "--format", "json"),
    ("moment", "-m", "0.1^12", "-p", "2.5", "--shift", "-10", "--format", "json"),
    # Fourier, auto and forced
    ("moment", "-m", "1^0.5,2^0.7", "-p", "0.5", "--format", "json"),
    ("moment", "-m", "1,-1", "-p", "1.5", "--engine", "fourier", "--format", "json"),
    # Monte Carlo: auto at a fractional shape, forced antithetic, and a
    # pole of order 200 that leaves the density engine on the float range
    ("moment", "-m", "1^0.5,2^0.7", "-p", "2.5", "--seed", "3", *_MC),
    ("moment", "-m", "1,2", "-p", "2", "--engine", "montecarlo", *_MC),
    ("moment", "-m", "1^0.5,-2^0.7", "-p", "-0.3", "--shift", "0.5", *_MC),
    ("moment", "-m", "2^200", "-p", "2.5", "--shift", "1", *_MC),
    # exit 3: the float range, no nonzero weight, outside an engine's domain
    ("moment", "-m", "1", "-p", "172"),
    ("moment", "-m", "1e200,2e200", "-p", "2.5"),
    ("moment", "-m", "2^200", "-p", "2.5", "--shift", "1", "--engine", "density"),
    # two partial-fraction terms that overflow while the moment does not
    ("moment", "-m", "1,1.001", "-p", "169.5", "--engine", "density", "--format", "json"),
    ("moment", "-m", "1,1.001", "-p", "169.5", "--shift", "0.5", "--engine", "density", "--format", "json"),
    ("moment", "-m", "1,1.001", "-p", "169.5", "--signed", "--engine", "density", "--format", "json"),
    ("moment", "-m", "0,-0.0", "-p", "2.5"),
    ("moment", "-m", "1,2", "-p", "-2"),
    ("moment", "-m", "1,2", "-p", "2.5", "--signed", "--engine", "fourier"),
    # exit 2: parse errors, a tolerance, bad seeds and counts
    ("moment", "-m", "1,,2", "-p", "2"),
    ("moment", "-m", "1^nan", "-p", "2"),
    ("moment", "-m", "1,2", "-p", "2", "--tol", "1e-8"),
    ("moment", "-m", "1,2", "-p", "2", "--seed", "-1"),
    ("moment", "-m", "1,2", "-p", "2", "--seed", "x"),
    ("moment", "-m", "1,2", "-p", "2", "--count", "0"),
    ("verify", "all-equal", "--seed", "9"),
    ("reproduce", "--only", "17"),
    # the orders and powers beyond reach
    ("moment", "-m", "1^1e20", "-p", "2.5"),
    ("moment", "-m", "1^1e20", "-p", "2.5", "--engine", "montecarlo", "--count", "16"),
    ("verify", "mrtt", "-p", "1e-200", "--trials", "3"),
    ("verify", "mrtt", "-p", "1e-300", "--trials", "3"),
    # a tiny p whose ratio r is noise, within its bar on log r
    ("verify", "mrtt", "-p", "1e-15", "--trials", "20", "--format", "json"),
    # every verification suite
    ("verify", "theorem1", "-p", "3", "--trials", "20", "--format", "json"),
    ("verify", "hunter", "--trials", "30", "--format", "json"),
    ("verify", "mrtt", "-p", "0.5", "--trials", "5", "--format", "json"),
    ("verify", "mrtt", "-p", "4", "--trials", "3", "--seed", "2", "--format", "json"),
    ("verify", "all-equal", "--format", "json"),
    ("verify", "gamma", "--trials", "4", "--format", "json"),
    ("verify", "claim", "--trials", "50", "--format", "json"),
    ("verify", "stepII-bound", "--trials", "3", "--format", "json"),
    # schur, failure, solve, minimize
    ("schur", "-p", "4.5", "-n", "3", "--trials", "12", "--seed", "4", "--format", "json"),
    ("schur", "-p", "2", "-n", "2", "--trials", "5", "--format", "csv"),
    ("failure", "-p", "5", "--format", "json"),
    ("failure", "-p", "3"),
    ("solve", "pstar", "--format", "json"),
    ("solve", "p0"),
    ("minimize", "-n", "2", "-p", "3", "--multistart", "2", "--format", "json"),
    # the battery, with the wall times of criteria 1 and 2 stripped
    ("reproduce", "--format", "json"),
    ("reproduce", "--only", "3,12"),
]


def platform_header() -> dict:
    """What the corpus's bytes depend on: libm and the numpy build."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def run(argv) -> dict:
    """One corpus line: `cli.main(argv)` in-process, as the console script
    runs it, with an argument _OUT of --out replaced by a temporary file.
    An argparse error is its SystemExit code, and an uncaught exception
    exit 1 with its traceback."""
    from expmoments import cli

    out, err = io.StringIO(), io.StringIO()
    env = {key: value for key, value in os.environ.items() if key != "EXPMOMENTS_SEED"}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, env, clear=True), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        path = Path(tmp, "out")
        try:
            code = cli.main([str(path) if arg == _OUT else arg for arg in argv])
        except SystemExit as exc:
            code = exc.code
        except Exception:  # recorded as the interpreter reports it
            err.write("Traceback (most recent call last):\n")
            code = 1
        written = path.read_text() if _OUT in argv else None
    stdout = out.getvalue()
    if argv[0] == "reproduce":
        stdout = _TIMING.sub("<t>s", stdout)
    lines = err.getvalue().split("\n")
    # argparse writes its usage, over one or more lines, before the error
    stderr = next(line for line in lines if ": error: " in line) if lines[0].startswith("usage:") else lines[0]
    line = {"argv": list(argv), "code": code, "stdout": stdout, "stderr": stderr}
    return line if written is None else {**line, "out": written}


def read() -> tuple[dict, list]:
    """The corpus's platform header and its lines."""
    header, *lines = [json.loads(line) for line in CORPUS.read_text().splitlines()]
    return header["platform"], lines


def main() -> None:
    lines = [json.dumps({"platform": platform_header()}, sort_keys=True)]
    lines += [json.dumps(run(argv), sort_keys=True) for argv in COMMANDS]
    CORPUS.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(COMMANDS)} commands to {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    main()
