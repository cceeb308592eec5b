"""One fresh-interpreter set-up sample: import numpy, import expmoments (and
expmoments.cli for the battery), then run the workload's first operation.

Usage: python3 setup_probe.py <src dir> <workload> <seed>

Prints one JSON line of time.monotonic() stamps and a speed sample taken in
this interpreter; the parent subtracts its own spawn stamp, which is
comparable because CLOCK_MONOTONIC is system-wide.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    src, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    t0 = time.monotonic()
    import numpy  # noqa: F401

    t1 = time.monotonic()
    sys.path.insert(0, src)
    import expmoments  # noqa: F401

    if workload == "battery":
        import expmoments.cli  # noqa: F401
    t2 = time.monotonic()
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from benchkit import workloads
    from benchkit.calibration import speed_sample

    op = workloads.first_op(workload, seed, 0)
    t3 = time.monotonic()
    for step in workloads.steps(workload, op):
        workloads.execute(workload, step)
    t4 = time.monotonic()
    print(json.dumps({"start": T_START, "numpy_s": t1 - t0, "expmoments_s": t2 - t1,
                      "first_op_s": t4 - t3, "end": t4, "speed_sample_s": speed_sample()}))


if __name__ == "__main__":
    main()
