"""One benchmark run: set-up samples, the timed closed loop, the reference
checks and the printed result.

End-to-end metrics come from untraced runs.  A traced run first times a
quarter of the run untraced, then replays the same number of following
operations under the tracer; traced over untraced wall time of those two
sections is the tracing overhead.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from . import layers, workloads
from .calibration import REFERENCE_S, speed_sample

# (name, unit, better) in output order
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
)
SETUP_SAMPLES = 7
# a speed sample is taken before an operation when the last one is older than this
CAL_INTERVAL_S = 0.1
# Estimates sent to the oracle: from every CHECK_STRIDE-th operation, at most
# CHECK_CAP of them, so that check time and memory stay bounded however fast
# the program gets.  Cheap checks (finite values, scan verdicts, battery
# failing == 0) run on every operation.
CHECK_STRIDE = {"scan": 1, "quad": 37, "montecarlo": 1, "battery": 1}
CHECK_CAP = {"scan": 2000, "quad": 120, "montecarlo": 400, "battery": 0}
WARMUP_INDEX = 10**9
RESULTS_DIR = ".bench_results"
CACHE_FILE = ".bench_cache/oracle-v1.json"


class BenchError(RuntimeError):
    """The run cannot produce a trustworthy result."""


def load_package(root: Path):
    """Import expmoments from <root>/src and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "expmoments" / "__init__.py").is_file():
        raise BenchError(f"no expmoments package under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("expmoments")
    if Path(pkg.__file__).resolve().parent.parent != src:
        raise BenchError(f"imported expmoments from {pkg.__file__}, not from {src}")
    if importlib.util.find_spec("mpmath") is None:
        raise BenchError("the reference oracle needs mpmath")
    return src


def measure_setup(src: Path, workload: str, seed: int) -> dict:
    """Medians over SETUP_SAMPLES fresh interpreters."""
    probe = Path(__file__).with_name("setup_probe.py")
    samples = []
    for _ in range(SETUP_SAMPLES):
        spawned = time.monotonic()
        proc = subprocess.run([sys.executable, str(probe), str(src), workload, str(seed)],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        stamp = json.loads(proc.stdout.strip().splitlines()[-1])
        scale = REFERENCE_S / stamp["speed_sample_s"]
        samples.append({
            "setup_s": (stamp["end"] - spawned) * scale,
            "setup_raw_s": stamp["end"] - spawned,
            "interpreter_s": stamp["start"] - spawned,
            "import_numpy_s": stamp["numpy_s"],
            "import_expmoments_s": stamp["expmoments_s"],
            "first_op_s": stamp["first_op_s"],
        })
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


class Loop:
    """The closed-loop client: runs operations and keeps what the checks need."""

    def __init__(self, workload: str, seed: int, tracer=None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.latencies = array("d")  # raw latency per kept operation
        self.failed: set[int] = set()  # indices of failed operations
        self.failures: list[dict] = []  # the first few, for the result file
        self.pending: list[tuple[int, dict]] = []  # (op index, estimate) for the oracle
        self.next_index = 0
        self.samples: list[float] = []  # speed samples, in time order
        # per step of a kept operation: its latency and the last speed sample before it
        self.step_latency = array("d")
        self.step_sample = array("l")
        self.op_steps = array("l")  # steps per kept operation
        self._sampled_at = -math.inf

    def run_one(self, index: int, keep: bool = True):
        if keep:
            op = workloads.GENERATORS[self.workload](self.seed, index)
        else:
            op = workloads.first_op(self.workload, self.seed, index)
        if self.tracer is not None:
            self.tracer.op_id = index
            span = self.tracer.open("op")
        error = None
        raws = []
        timed = []
        for step in workloads.steps(self.workload, op):
            if time.perf_counter() - self._sampled_at >= CAL_INTERVAL_S:
                self.samples.append(speed_sample())
                self._sampled_at = time.perf_counter()
            t0 = time.perf_counter()
            try:
                raws.append(workloads.execute(self.workload, step))
            except Exception as exc:  # a raising operation is a counted failure
                error = exc
            timed.append((time.perf_counter() - t0, len(self.samples) - 1))
            if error is not None:
                break
        if self.tracer is not None:
            self.tracer.close(span, error)
        if not keep:
            return
        self.latencies.append(sum(t for t, _ in timed))
        self.op_steps.append(len(timed))
        for t, j in timed:
            self.step_latency.append(t)
            self.step_sample.append(j)
        if error is not None:
            self._fail(index, repr(error), op)
            return
        out = workloads.digest(self.workload, op, raws)
        if not out["ok"]:
            self._fail(index, "output check failed", op)
        for est in out["estimates"]:
            if self._checked(index):
                self.pending.append((index, est))

    def _fail(self, index: int, reason: str, op: dict) -> None:
        self.failed.add(index)
        if len(self.failures) < 5:
            self.failures.append({"index": index, "reason": reason, "op": op})

    def _checked(self, index: int) -> bool:
        return index % CHECK_STRIDE[self.workload] == 0 and len(self.pending) < CHECK_CAP[self.workload]

    def run_for(self, seconds: float) -> None:
        """Whole cycles until `seconds` have passed."""
        cycle = workloads.CYCLES[self.workload]
        began = time.perf_counter()
        while True:
            self.run_one(self.next_index)
            self.next_index += 1
            if self.next_index % cycle == 0 and time.perf_counter() - began >= seconds:
                return

    def run_count(self, count: int) -> None:
        for _ in range(count):
            self.run_one(self.next_index)
            self.next_index += 1

    def scaled_latencies(self) -> list[float]:
        """Latencies at the reference speed: each step scaled by the mean of
        the speed samples that bracket it; call once, after the last operation."""
        self.samples.append(speed_sample())
        scaled = [t * REFERENCE_S / (0.5 * (self.samples[j] + self.samples[j + 1]))
                  for t, j in zip(self.step_latency, self.step_sample)]
        out = []
        first = 0
        for count in self.op_steps:
            out.append(sum(scaled[first:first + count]))
            first += count
        return out


def check_estimates(pending) -> dict:
    """Score kept estimates against the oracle; returns counts and rates."""
    from . import oracle

    oracle.self_check()
    cache_path = Path(CACHE_FILE)
    cache = json.loads(cache_path.read_text()) if cache_path.is_file() else {}
    bad_ops = set()
    misses = 0
    by_engine: dict[str, list] = {}
    for index, est in pending:
        engine = est["engine"] or _scan_engine(est)
        ref = _reference(oracle, est, cache)
        gap = abs(est["value"] - ref)
        if engine == "montecarlo":
            tolerance = 3.0 * est["error"]
        else:
            tolerance = 1e-8 * abs(ref) + 10.0 * est["error"] + 1e-12
        if not gap <= tolerance:
            bad_ops.add(index)
        miss = not gap <= est["error"]
        misses += miss
        rel = est["error"] / abs(est["value"]) if est["value"] else 0.0
        by_engine.setdefault(engine, []).append((miss, rel))
    cache_path.parent.mkdir(exist_ok=True)
    cache_path.write_text(json.dumps(cache))
    n = len(pending)
    return {
        "estimates": n,
        "bad_ops": bad_ops,
        "bound_misses": misses,
        "bound_miss_rate": misses / n if n else 0.0,
        "bound_miss_by_engine": {e: sum(m for m, _ in v) / len(v) for e, v in by_engine.items()},
        "err_rel_p50_by_engine": {e: statistics.median(r for _, r in v) for e, v in by_engine.items()},
    }


def _scan_engine(est) -> str:
    """Scan rows carry no engine tag; ask m_p again (deterministic) for it."""
    from expmoments import schur

    return schur.m_p(est["x"], est["p"]).engine


def _reference(oracle, est, cache) -> float:
    if est["kind"] == "scan":
        weights = [math.sqrt(v) for v in est["x"] if v > 0.0]
        shapes, shift, signed = [1.0] * len(weights), 0.0, False
    else:
        weights, shapes, shift, signed = est["weights"], est["shapes"], est["shift"], est["signed"]
    p = est["p"]
    if float(p).is_integer() and p >= 0 and (int(p) % 2 == 1) == signed:
        return float(oracle.exact_integer_moment(weights, shapes, int(p), shift))
    key = json.dumps([weights, shapes, p, shift, signed])
    if key in cache:
        return cache[key]
    if all(float(s).is_integer() for s in shapes):
        ref = oracle.integer_shape_moment(weights, shapes, p, shift, signed)
    elif not signed and 0.0 < p < 2.0:
        ref = oracle.fourier_moment(weights, shapes, p, shift)
    else:
        raise BenchError(f"no reference route for {est}")
    if shift != 0.0:  # the cheap shift-0 routes are not worth caching
        cache[key] = ref
    return ref


def environment() -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def _percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values), q))


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    src = load_package(root)
    setup = measure_setup(src, workload, seed)
    loop = Loop(workload, seed)
    loop.run_one(WARMUP_INDEX, keep=False)
    tracer = None
    probe = None
    if trace:
        from .tracer import Tracer

        loop.run_for(seconds / 4)
        untraced = len(loop.latencies)
        tracer = Tracer()
        layers.install(tracer)
        loop.tracer = tracer
        try:
            loop.run_count(untraced)
            if workload == "quad":
                probe = _run_probe(seed, tracer)
        finally:
            tracer.uninstall()
            loop.tracer = None
    else:
        loop.run_for(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = loop.latencies
    lat = loop.scaled_latencies()
    if trace:
        overhead = sum(lat[untraced:]) / sum(lat[:untraced])
    checks = check_estimates(loop.pending)
    attempted = len(loop.latencies)
    failed = len(loop.failed | checks["bad_ops"])
    e2e = {
        "setup_s": setup["setup_s"],
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": attempted / sum(lat),
        "op_p50_ms": 1e3 * _percentile(lat, 50),
        "op_p90_ms": 1e3 * _percentile(lat, 90),
    }
    checks["fail_rate"] = failed / attempted
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": attempted, "failed": failed, "latency_samples": len(lat),
        "failures": loop.failures, "oracle_failed_ops": sorted(checks["bad_ops"])[:5],
        "ops_beyond_p90": sum(1 for v in lat if 1e3 * v > e2e["op_p90_ms"]),
        "moments_per_s": workloads.moments_per_op(workload) * attempted / sum(lat),
        "speed_scale": sum(lat) / sum(raw), "speed_samples": len(loop.samples),
        "raw": {"ops_per_s": attempted / sum(raw), "op_p50_ms": 1e3 * _percentile(raw, 50),
                "op_p90_ms": 1e3 * _percentile(raw, 90), "setup_s": setup["setup_raw_s"]},
        "checked_estimates": checks["estimates"], "bound_misses": checks["bound_misses"],
        "bound_miss_rate": checks["bound_miss_rate"], "fail_rate": checks["fail_rate"],
        "setup_split": setup, "probe": probe, "environment": environment(),
    }
    if workload == "battery":
        info["battery_s"] = _percentile(lat, 50)
        info["seed_note"] = "battery criteria use fixed built-in seeds; the workload seed is ignored"
    if trace:
        metric_values = layers.metrics(tracer, setup, checks, overhead)
        units = dict(layers.PER_LAYER)
        _save_spans(tracer, workload)
    else:
        metric_values = e2e
        units = {name: unit for name, unit, _ in END_TO_END}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metric_values.items()},
        "info": info,
    }


def _run_probe(seed: int, tracer) -> dict:
    """The known-defect query, run once under the tracer outside the stream."""
    op = workloads.probe_op(seed)
    tracer.op_id = -2
    span = tracer.open("op")
    error = None
    t0 = time.perf_counter()
    try:
        workloads.execute("quad", op)  # one step
    except Exception as exc:  # the defect under measurement
        error = exc
    elapsed = time.perf_counter() - t0
    tracer.close(span, error)
    return {"query": op, "raised": type(error).__name__ if error else None,
            "message": str(error) if error else None, "seconds": elapsed}


def _save_spans(tracer, workload: str) -> None:
    out = Path(RESULTS_DIR)
    out.mkdir(exist_ok=True)
    np.savez_compressed(out / f"spans-{workload}.npz", names=np.array(tracer.names), **tracer.arrays())


def save_result(result: dict) -> Path:
    info = result["info"]
    out = Path(RESULTS_DIR)
    out.mkdir(exist_ok=True)
    path = out / f"{info['workload']}-seed{info['seed']}-trace{int(info['trace'])}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return path


def print_table(result: dict) -> None:
    info = result["info"]
    print(f"workload {info['workload']}  seed {info['seed']}  trace {int(info['trace'])}  "
          f"attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'timings scaled to reference speed by':40s} {info['speed_scale']:>16.6g} "
          f"({info['speed_samples']} speed samples; raw timings in the result file)")
    lat_n = info["latency_samples"]
    print(f"  {'latency samples':40s} {lat_n:>16d} (p90 has {info['ops_beyond_p90']} beyond it)")
    if info["workload"] != "battery":
        print(f"  {'moments_per_s':40s} {info['moments_per_s']:>16.6g} 1/s")
    else:
        print(f"  {'battery_s':40s} {info['battery_s']:>16.6g} s")
    print(f"  {'fail_rate':40s} {info['fail_rate']:>16.6g} ratio")
    print(f"  {'bound_miss_rate':40s} {info['bound_miss_rate']:>16.6g} ratio "
          f"({info['bound_misses']} of {info['checked_estimates']} checked estimates)")
    if info["probe"]:
        p = info["probe"]
        print(f"  {'defect probe':40s} raised {p['raised']} after {p['seconds']:.3f} s")
