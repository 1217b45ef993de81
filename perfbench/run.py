#!/usr/bin/env python3
"""Benchmark of gvcl's continual-learning runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads:

  mnist_vi   `gvcl run` (cli.cmd_run) with gvcl_film on Split-MNIST-shaped IDX files
  mnist_ewc  `gvcl run` with ewc on the same files
  tiny_mlp   runner.run_continual with gvcl and gvcl_film on a 12-8 MLP,
             the shape of acceptance criterion 7

Each run repeats whole rounds (one round is one full task sequence per
method) until --seconds have passed, checks every round's outputs and
prints one JSON object as its last line: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. See perfbench/README.md.
"""

import os
import sys
import time

T_START = time.perf_counter()
# One BLAS thread, fixed before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
WORK = os.path.join(BENCH, "work")
WORKLOADS = ("mnist_vi", "mnist_ewc", "tiny_mlp")
clock = time.perf_counter


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gvcl", "__init__.py")):
        print(f"run.py: no gvcl sources under {SRC}; run from a gvcl checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import gvcl.cli  # noqa: F401  (imports every module `gvcl run` needs)

    import_s = clock() - T_START
    import workloads  # noqa: E402  (sibling module; imports gvcl)

    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            result = workloads.run(args, import_s, WORK, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
