"""Which expmoments functions the traced run wraps, and the per-layer
metrics computed from its spans.

Each metric is listed with the end-to-end metric it should move and the
workload on which it should move it (a zero elsewhere is expected):

setup.*                                   setup_s                     all
specialfn.loggamma.*                      ops_per_s, op_p50_ms        scan (about 0 on montecarlo)
model.partial_fraction_density.*,
model.power_moment_with_error.*           ops_per_s                   scan
model.chs.*                               ops_per_s                   scan (p = 2, exact engine), battery
model.density_evals*, model.charfn.*      ops_per_s, op_p90_ms        quad
quadrature.*                              ops_per_s, op_p90_ms        quad (0 on scan and montecarlo)
engines.moment.*, engines.mix.*,
engines.fallbacks                         ops_per_s                   all
engines.montecarlo.*                      ops_per_s                   montecarlo
engines.bound_miss.*, engines.err_rel_p50.*  check.bound_miss_rate    scan, quad, montecarlo
schur.*                                   ops_per_s, op_p50_ms        scan
analysis.*, acceptance.*, cli.main.*      ops_per_s, op_p90_ms        battery
"""

from __future__ import annotations

import inspect

ENGINES = ("exact", "density", "fourier", "montecarlo")
ANALYSIS = ("solve_pstar", "solve_p0", "verify_hunter_exact", "verify_theorem1",
            "minimize_sphere", "gradient", "logconvexity_probe")

# (metric name, unit), in output order
PER_LAYER = (
    [("setup.interpreter_s", "s"), ("setup.import_numpy_s", "s"),
     ("setup.import_expmoments_s", "s"), ("setup.first_op_s", "s")]
    + [(f"{f}.{k}", u) for f in ("specialfn.loggamma", "model.partial_fraction_density",
                                 "model.power_moment_with_error", "model.chs")
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("model.density_evals", "count"), ("model.density_evals.self_s", "s"),
       ("model.charfn.calls", "count"), ("model.charfn.self_s", "s")]
    + [(f"{f}.{k}", u) for f in ("quadrature.integrate", "quadrature.integrate_abs_power")
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("quadrature.evals_per_integrate", "count"), ("quadrature.errors", "count"),
       ("quadrature.failed_s", "s"), ("engines.moment.calls", "count"), ("engines.moment.self_s", "s")]
    + [(f"engines.mix.{e}", "count") for e in ENGINES]
    + [("engines.fallbacks", "count"), ("engines.montecarlo.samples", "count"),
       ("engines.montecarlo.s_per_1e6", "s")]
    + [(f"engines.bound_miss.{e}", "ratio") for e in ENGINES]
    + [(f"engines.err_rel_p50.{e}", "ratio") for e in ENGINES]
    + [(f"{f}.{k}", u) for f in ("schur.schur_scan", "schur.m_p")
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"analysis.{f}.{k}", u) for f in ANALYSIS for k, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"acceptance.criterion_{i:02d}_s", "s") for i in range(1, 17)]
    + [("cli.main.calls", "count"), ("cli.main.self_s", "s"), ("trace.overhead", "ratio"),
       ("check.estimates", "count"), ("check.fail_rate", "ratio"), ("check.bound_miss_rate", "ratio")]
)


def install(tracer) -> None:
    """Wrap every traced function at each module or class that binds it."""
    from expmoments import acceptance, analysis, cli, engines, model, quadrature, schur, specialfn

    def span(name, observe=None):
        return lambda fn: tracer.span(name, fn, observe)

    def leaf(name):
        return lambda fn: tracer.leaf(name, fn)

    for owner in (specialfn, model, analysis):
        tracer.patch(owner, "loggamma", leaf("specialfn.loggamma"))
    for owner in (model, engines):
        tracer.patch(owner, "charfn", leaf("model.charfn"))
    tracer.patch(model.PartialFractionDensity, "_one_sided", leaf("model.density_evals"))
    for owner in (model, engines, acceptance):
        tracer.patch(owner, "partial_fraction_density", span("model.partial_fraction_density"))
    for owner in (model, acceptance):
        tracer.patch(owner, "chs", span("model.chs"))
    tracer.patch(model.PartialFractionDensity, "power_moment_with_error",
                 span("model.power_moment_with_error"))
    for owner in (quadrature, engines, schur):
        tracer.patch(owner, "integrate", span("quadrature.integrate"))
    for owner in (quadrature, engines):
        tracer.patch(owner, "integrate_abs_power", span("quadrature.integrate_abs_power"))
    tracer.patch(engines, "moment", span("engines.moment", _moment_observer(tracer, engines.moment)))
    tracer.patch(schur, "schur_scan", span("schur.schur_scan"))
    tracer.patch(schur, "m_p", span("schur.m_p"))
    for f in ANALYSIS:
        tracer.patch(analysis, f, span(f"analysis.{f}"))
    tracer.patch(cli, "main", span("cli.main"))
    # run_battery reads the CRITERIA tuple, so wrap its entries
    tracer.patch(acceptance, "CRITERIA", lambda criteria: tuple(
        tracer.span(f"acceptance.criterion_{i:02d}", fn) for i, fn in enumerate(criteria, start=1)))


def _moment_observer(tracer, moment):
    signature = inspect.signature(moment)

    def observe(i, args, kwargs, est):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        tracer.counters[f"engines.mix.{est.engine}"] += 1
        if call.arguments["model"].integer_shapes and est.engine not in ("exact", "density"):
            tracer.counters["engines.fallbacks"] += 1
        if est.engine == "montecarlo":
            tracer.counters["engines.montecarlo.samples"] += call.arguments["count"]
            tracer.counters["engines.montecarlo.s"] += tracer.end[i] - tracer.start[i]

    return observe


def metrics(tracer, setup: dict, checks: dict, overhead: float) -> dict:
    """Every PER_LAYER metric as {name: value}."""
    summary = tracer.summary()
    out = {
        "setup.interpreter_s": setup["interpreter_s"],
        "setup.import_numpy_s": setup["import_numpy_s"],
        "setup.import_expmoments_s": setup["import_expmoments_s"],
        "setup.first_op_s": setup["first_op_s"],
    }

    def fn(name):
        return summary.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})

    for name, _unit in PER_LAYER:
        if name in out:
            continue
        for suffix in (".calls", ".self_s"):
            if name.endswith(suffix):
                out[name] = fn(name[: -len(suffix)])[suffix[1:]]
    out["model.density_evals"] = fn("model.density_evals")["calls"]
    integrate_calls = fn("quadrature.integrate")["calls"]
    evals = fn("model.density_evals")["calls"] + fn("model.charfn")["calls"]
    out["quadrature.evals_per_integrate"] = evals / integrate_calls if integrate_calls else 0.0
    out["quadrature.errors"] = len(tracer.raised("quadrature.integrate", "QuadratureError"))
    out["quadrature.failed_s"] = sum(tracer.end[i] - tracer.start[i] for i in tracer.raised("op"))
    for e in ENGINES:
        out[f"engines.mix.{e}"] = tracer.counters.get(f"engines.mix.{e}", 0)
        out[f"engines.bound_miss.{e}"] = checks["bound_miss_by_engine"].get(e, 0.0)
        out[f"engines.err_rel_p50.{e}"] = checks["err_rel_p50_by_engine"].get(e, 0.0)
    out["engines.fallbacks"] = tracer.counters.get("engines.fallbacks", 0)
    samples = tracer.counters.get("engines.montecarlo.samples", 0)
    out["engines.montecarlo.samples"] = samples
    out["engines.montecarlo.s_per_1e6"] = (
        tracer.counters["engines.montecarlo.s"] / samples * 1e6 if samples else 0.0
    )
    for i in range(1, 17):
        out[f"acceptance.criterion_{i:02d}_s"] = fn(f"acceptance.criterion_{i:02d}")["total_s"]
    out["trace.overhead"] = overhead
    out["check.estimates"] = checks["estimates"]
    out["check.fail_rate"] = checks["fail_rate"]
    out["check.bound_miss_rate"] = checks["bound_miss_rate"]
    return {name: out[name] for name, _unit in PER_LAYER}
