"""Benchmark entry point.

    python3 perfbench/run.py --workload {scan,quad,montecarlo,battery} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root: the package is imported from ./src.  Prints a
table of every metric with its unit, writes the full result with an
environment record under .bench_results/, and ends with one JSON line
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0 and the per-layer metrics with --trace 1.  Exits non-zero without
a result when the package or the reference oracle cannot run.
"""

import argparse
import json
import sys
from pathlib import Path

from benchkit import harness, workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), Path.cwd())
    except harness.BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    harness.print_table(result)
    path = harness.save_result(result)
    print(f"  result file: {path}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
