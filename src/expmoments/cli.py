"""Command-line surface.

Model literals are comma-separated weights with an optional ``^shape``
suffix per weight (e.g. ``1,2^3,-0.5``); scientific notation is fine.
Zero weights are dropped and equal weights merge with their shapes
added (``1,0,2,1^0.5`` is ``1^1.5,2``); the ``model`` field shows that
canonical fingerprint, and a literal of only zero weights exits 3.
Output formats: ``table`` (human), ``csv`` (header row, comma separator,
dot decimal), and ``json`` (sorted keys, carries a schema_version field;
byte-identical across runs for a fixed seed).  Exit codes: 0 success /
suite pass, 1 violations or acceptance failures, 2 parse errors,
3 domain errors.  A weight must be finite and a shape finite and
positive, else the literal is a parse error.  No command takes a
tolerance: every quadrature runs at one fixed accuracy.  ``failure``,
``solve`` and ``reproduce`` take no ``--seed``, and each ``verify``
suite only the flags it reads; elsewhere a seed is an integer >= 0, from
``--seed`` or, where that is unset, the ``EXPMOMENTS_SEED`` environment
variable (default 0), and any other value of either is a parse error.
``reproduce --only`` takes comma-separated criterion numbers from 1 to
16, and anything else is a parse error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

# each command imports analysis, schur or acceptance where it runs, so that a
# moment query loads neither
from . import engines
from .model import GammaSumModel, MomentQuery
from .quadrature import QuadratureError

SCHEMA_VERSION = 1
# the criteria of the acceptance battery, len(acceptance.CRITERIA), which
# `reproduce --only` checks before it imports the battery
_CRITERIA = 16


class ModelLiteralError(ValueError):
    pass


def parse_model_literal(text: str) -> GammaSumModel:
    """Parse ``w1[,w2,...]`` with optional ``^shape`` suffixes."""
    weights = []
    shapes = []
    if not text.strip():
        raise ModelLiteralError("empty model literal")
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ModelLiteralError(f"empty weight in literal {text!r}")
        if "^" in part:
            wtxt, stxt = part.split("^", 1)
        else:
            wtxt, stxt = part, "1"
        try:
            w = float(wtxt)
            s = float(stxt)
        except ValueError as exc:
            raise ModelLiteralError(f"cannot parse {part!r}: {exc}") from None
        if not math.isfinite(w):
            raise ModelLiteralError(f"non-finite weight in {part!r}")
        if not 0.0 < s < math.inf:
            raise ModelLiteralError(f"shape must be finite and positive in {part!r}")
        weights.append(w)
        shapes.append(s)
    return GammaSumModel.of(weights, shapes)


def _emit(args, payload: dict, rows=None, row_fields=None) -> None:
    """Write payload in the chosen format; rows feed the csv format."""
    fmt = args.format
    if fmt == "json":
        body = dict(payload)
        body["schema_version"] = SCHEMA_VERSION
        if rows is not None:
            body["rows"] = rows
        text = json.dumps(body, sort_keys=True) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        if rows:
            fields = row_fields or sorted(rows[0])
            writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _csv_cell(row.get(k)) for k in fields})
        else:
            writer = csv.writer(buf, lineterminator="\n")
            keys = sorted(payload)
            writer.writerow(keys)
            writer.writerow([_csv_cell(payload[k]) for k in keys])
        text = buf.getvalue()
    else:
        lines = [f"{k}: {payload[k]}" for k in payload]
        if rows is not None:
            lines.append(f"rows: {len(rows)}")
        text = "\n".join(lines) + "\n"
    _write(args, text)


def _write(args, text: str) -> None:
    """Write text to the file named by --out, else to stdout."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_cell(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "|".join(repr(float(v)) for v in value)
    return value


def cmd_moment(args) -> int:
    model = parse_model_literal(args.model)
    query = MomentQuery(p=args.p, shift=args.shift, signed=args.signed)
    est = engines.moment(model, query, engine=args.engine, seed=args.seed, count=args.count)
    _emit(
        args,
        {
            "value": est.value,
            "error": est.error,
            "engine": est.engine,
            "p": est.p,
            "shift": args.shift,
            "signed": args.signed,
            "model": model.fingerprint(),
            "seed": args.seed,
        },
    )
    return 0


def cmd_verify(args) -> int:
    from . import analysis

    suite = args.suite
    if suite == "theorem1":
        report = analysis.verify_theorem1(p=args.p, trials=args.trials, seed=args.seed)
    elif suite == "hunter":
        report = analysis.verify_hunter_exact(trials=args.trials, seed=args.seed)
    elif suite == "mrtt":
        report = analysis.verify_mrtt(p=args.p, trials=args.trials, seed=args.seed)
    elif suite == "all-equal":
        report = analysis.verify_all_equal()
    elif suite == "gamma":
        report = analysis.verify_gamma_extension(trials=args.trials, seed=args.seed)
    elif suite == "claim":
        report = analysis.verify_claim(trials=args.trials, seed=args.seed)
    elif suite == "stepII-bound":
        report = analysis.verify_stepII_bound(trials=min(args.trials, 200), seed=args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown suite {suite!r}")
    _emit(args, report.to_dict())
    return 0 if report.passed else 1


def cmd_schur(args) -> int:
    from . import schur

    res = schur.schur_scan(p=args.p, n=args.n, trials=args.trials, seed=args.seed)
    payload = res.to_dict()
    fields = ["trial", "x", "y", "i", "j", "lam", "mp_x", "err_x", "mp_y", "err_y", "gap", "contribution"]
    _emit(args, payload, rows=list(res.rows), row_fields=fields)
    return 0


def cmd_failure(args) -> int:
    from . import schur

    prof = schur.failure_profile(args.p)
    rows = [{"x": x, "f": f, "fprime": d}
            for x, f, d in zip(prof.xs.tolist(), prof.f.tolist(), prof.fprime.tolist())]
    payload = {
        "p": prof.p,
        "monotone_regime": prof.monotone_regime,
        "monotone_increasing": prof.monotone_increasing,
        "critical_point": prof.critical_point,
        "critical_value": prof.critical_value,
        "f_at_zero": prof.f_at_zero,
        "f_at_right": prof.f_at_right,
        "d1_at_zero": prof.d1_at_zero,
        "d1_at_right": prof.d1_at_right,
        "d2_at_right": prof.d2_at_right,
    }
    _emit(args, payload, rows=rows, row_fields=["x", "f", "fprime"])
    return 0


def cmd_solve(args) -> int:
    from . import analysis

    res = analysis.solve_pstar() if args.constant == "pstar" else analysis.solve_p0()
    _emit(args, res.to_dict())
    return 0


def cmd_minimize(args) -> int:
    from . import analysis

    res = analysis.minimize_sphere(n=args.n, p=args.p, multistart=args.multistart, seed=args.seed)
    _emit(args, res.to_dict())
    return 0


def cmd_reproduce(args) -> int:
    from . import acceptance

    results = acceptance.run_battery(only=args.only)
    n_fail = sum(1 for r in results if not r.passed)
    if args.format == "table":
        lines = [r.line() for r in results] + [f"total: {len(results)} criteria, {n_fail} failing"]
        _write(args, "\n".join(lines) + "\n")
    else:
        _emit(args, {"failing": n_fail, "total": len(results)}, rows=[r.to_dict() for r in results],
              row_fields=["index", "name", "pass", "detail"])
    return 1 if n_fail else 0


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _positive_int(text: str) -> int:
    """An argparse type: an integer >= 1, else a parse error (exit 2)."""
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _seed(text: str) -> int:
    """An argparse type: an integer >= 0, else a parse error (exit 2)."""
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"a seed must be a nonnegative integer, got {value}")
    return value


def _criteria(text: str) -> list[int]:
    """An argparse type: comma-separated criterion numbers, each in
    1.._CRITERIA, else a parse error (exit 2)."""
    picked = []
    for tok in text.split(","):
        try:
            index = int(tok)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid criterion number: {tok!r}") from None
        if not 1 <= index <= _CRITERIA:
            raise argparse.ArgumentTypeError(f"criteria are numbered 1-{_CRITERIA}, got {index}")
        picked.append(index)
    return picked


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: `main` reads
    EXPMOMENTS_SEED on every call, for a --seed left unset."""
    parser = argparse.ArgumentParser(
        prog="expmoments",
        description="Moments and sharp-inequality verification for weighted exponential/gamma sums",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output(sp):
        sp.add_argument("--format", choices=("table", "csv", "json"), default="table")
        sp.add_argument("--out", default=None, help="write output to FILE instead of stdout")

    def common(sp, trials_default=None):
        sp.add_argument("--seed", type=_seed, default=None)
        output(sp)
        if trials_default is not None:
            sp.add_argument("--trials", type=_positive_int, default=trials_default)

    sp = sub.add_parser("moment", help="compute E|S - shift|^p")
    sp.add_argument("-m", "--model", required=True, help="weights literal, e.g. '1,2^3,-0.5'")
    sp.add_argument("-p", type=float, required=True)
    sp.add_argument("--shift", type=float, default=0.0)
    sp.add_argument("--signed", action="store_true")
    sp.add_argument("--engine", choices=engines.ENGINES, default=None)
    sp.add_argument("--count", type=_positive_int, default=1_000_000, help="Monte Carlo sample count")
    common(sp)
    sp.set_defaults(func=cmd_moment)

    sp = sub.add_parser("verify", help="run an inequality verification suite")
    suites = sp.add_subparsers(dest="suite", required=True)
    # each suite takes only the flags it reads
    p_defaults = {"theorem1": 3.0, "mrtt": 0.5}
    for suite in ("theorem1", "hunter", "mrtt", "all-equal", "gamma", "claim", "stepII-bound"):
        ss = suites.add_parser(suite)
        if suite in p_defaults:
            ss.add_argument("-p", type=float, default=p_defaults[suite])
        if suite == "all-equal":
            output(ss)
        else:
            common(ss, trials_default=200)
        ss.set_defaults(func=cmd_verify)

    sp = sub.add_parser("schur", help="scan Schur-monotonicity of M_p")
    sp.add_argument("-p", type=float, required=True)
    sp.add_argument("-n", type=int, required=True)
    common(sp, trials_default=500)
    sp.set_defaults(func=cmd_schur)

    sp = sub.add_parser("failure", help="two-coordinate profile for p > 4")
    sp.add_argument("-p", type=float, required=True)
    output(sp)
    sp.set_defaults(func=cmd_failure)

    sp = sub.add_parser("solve", help="solve for a named constant")
    sp.add_argument("constant", choices=("pstar", "p0"))
    output(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("minimize", help="minimize E|S_x|^p on the unit sphere")
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("-p", type=float, required=True)
    sp.add_argument("--multistart", type=_positive_int, default=8)
    common(sp)
    sp.set_defaults(func=cmd_minimize)

    sp = sub.add_parser("reproduce", help="run the acceptance battery")
    sp.add_argument("--only", type=_criteria, default=None, help=f"comma-separated criterion numbers, 1-{_CRITERIA}")
    output(sp)
    sp.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", 0) is None:
        try:
            args.seed = _seed(os.environ.get("EXPMOMENTS_SEED", "0"))
        except argparse.ArgumentTypeError as exc:
            parser.error(f"environment variable EXPMOMENTS_SEED: {exc}")
    try:
        return args.func(args)
    except ModelLiteralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
