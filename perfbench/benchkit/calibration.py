"""Machine-speed calibration for timings on a shared machine.

The machine the benchmark was tuned on (2 KVM vCPUs) switches between
speeds up to 2x apart for seconds at a time, so raw timings of identical
work spread by 10-20% between runs.  Every timing is therefore reported at
a reference speed: scaled by REFERENCE_S over the time `speed_sample`
takes next to it (the samples bracketing an operation, or one taken in the
fresh interpreter for set-up).  Raw timings stay in the result file.

The sample mixes what the package spends its time on: float math in the
interpreter, small-object allocation, and a numpy array pass.
"""

import math
import time

import numpy as np

REFERENCE_S = 1.2e-3

_FLOATS = [(i + 0.5) / 2000 for i in range(2000)]
_ARRAY = np.linspace(0.0, 1.0, 25_000)


def _kernel() -> None:
    acc = 0.0
    for x in _FLOATS:
        acc += math.exp(-x) * x + math.sqrt(x)
    rows = [(x, {"v": x * 2.0}) for x in _FLOATS[:1000]]
    rows.sort(key=lambda row: -row[1]["v"])
    float((np.abs(_ARRAY - 0.3) ** 2.5).sum())


def speed_sample() -> float:
    """Seconds for a fixed mixed kernel, best of three."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best
