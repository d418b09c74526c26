"""Benchmark entry point.

    python3 perfbench/run.py --workload cnn-onehot --seed 1 --seconds 20 --trace 0

Builds nothing: it imports the package from ``src/`` of the checkout it
sits in.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``).  Lines before it
carry the provenance, every repetition's value and, when traced, the span
detail.  Exits 1 when an output-correctness check fails and 2 when the
sources or arguments are missing.
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes: a small corpus and few passes")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "sentclass" / "__init__.py").is_file():
        print(f"error: no sentclass package under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread: with one per CPU, any other process on the machine
    # stalls every threaded BLAS call, and the run measures the scheduler.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import bench  # after the thread setting: numpy reads it on import

    print(json.dumps({"provenance": bench.provenance(ROOT, args.seed)}))
    workdir = ROOT / ".bench_build"
    workdir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="perfbench-", dir=workdir) as tmp:
        state = bench.Bench(args.workload, args.seed, Path(tmp), args.tiny)
        if args.trace:
            metrics, detail = bench.measure_traced(state)
            print(json.dumps({"trace": detail}))
        else:
            metrics, samples = bench.measure(state, args.seconds)
            print(json.dumps({"samples": samples, "absent": state.absent}))
    for problem in state.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = state.failed == 0
    print(json.dumps({"correct": correct, "attempted": state.attempted,
                      "failed": state.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
